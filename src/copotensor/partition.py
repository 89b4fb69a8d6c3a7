"""Simplicial partitions of the standard simplex, the partition cones O^P and
I^P, and the branch-and-bound copositivity certifier.

All geometry is exact rational: a simplex is a tuple of Fraction vertices,
the root's the unit vectors, and only bisection makes new ones, each the
midpoint of two, so every vertex stays in the standard simplex.
Longest-edge selection compares squared edge lengths exactly and builds its
tie-break key, the sorted vertex pair, only when an edge ties the longest;
every verdict-bearing inequality is evaluated exactly.  Floating point
appears only in the reported diameter.  The searches keep plain nodes
(vertices, depth, table) on their stacks.

One integer table serves every per-simplex test: the values
<A, v_k1 (x) ... (x) v_kd> over the multisets of the simplex's vertex
indices, the simplicial Bernstein coefficients of the form (Leroy 2008), as
Python ints scaled by a positive constant.  The root's table is A's scaled
values, and bisecting an edge is a de Casteljau step on the coefficients
rather than a recomputation.  On the level-k partition (k rounds of
longest-edge bisection), O^P reads the vertex values (one distinct index)
and I^P adds the edge splits (two).  The certifier refutes on a negative
vertex value, reported off that coefficient, and prunes a simplex whose
whole table is non-negative, the full vertex-tuple test of Bundfuss & Dur
2008.  Only signs decide, so no Fraction table is ever formed.

The certifier first runs the exact routes of
:data:`copotensor.evidence.EXACT_ROUTES`, which ``verify`` re-runs: the
root table (its vertices are the unit vectors, so a tensor that it refutes
or prunes, every order-1 tensor among them, never builds the n-by-n
Fraction vertices of the standard simplex), then, for a matrix (d = 2) of
at most MAX_SCAN_DIMENSION rows, the principal-submatrix scan of Cottle,
Habetler & Lemke, which always decides.  Everything else goes to
branch-and-bound, which alone reads the depth and simplex budgets.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import MAX_TABLE_CELLS, binomial_at_most, count_text
from .evidence import decide
from .tensor import Scalar, SymTensor, scaled_values

Point = tuple[Fraction, ...]
Vertices = tuple[Point, ...]
# a search node: a simplex's vertices, its depth and its coefficient table
Node = tuple[Vertices, int, list[int]]

# certify_copositivity's default budgets, also the CLI's
DEFAULT_MAX_DEPTH = 32
DEFAULT_SIMPLEX_BUDGET = 100_000


def _unit_vectors(n: int) -> Vertices:
    """The vertices of the standard simplex, the root of every partition."""
    return tuple(tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n))


def _sq_dist(u: Point, v: Point) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(u, v))


def _longest_edge(verts: Vertices) -> tuple[int, int]:
    """Vertex indices (i, j), i < j, of a longest edge; ties broken by the
    lexicographically smallest (sorted) vertex pair, for determinism.
    """
    if len(verts) < 2:
        raise ValueError("cannot bisect a point")
    best = None
    best_len = Fraction(-1)
    best_key = None   # built on the first tie with best
    for i, j in itertools.combinations(range(len(verts)), 2):
        u, v = verts[i], verts[j]
        d2 = _sq_dist(u, v)
        if d2 > best_len:
            best, best_len, best_key = (i, j), d2, None
        elif d2 == best_len:
            if best_key is None:
                a, b = verts[best[0]], verts[best[1]]
                best_key = (min(a, b), max(a, b))
            key = (min(u, v), max(u, v))
            if key < best_key:
                best, best_key = (i, j), key
    if best_len == 0:
        raise ValueError("degenerate simplex: longest edge has length 0")
    return best


def _split(verts: Vertices, i: int, j: int) -> tuple[Vertices, Vertices]:
    """The children of a simplex in which vertex i, respectively j, becomes
    the midpoint of the edge (i, j)."""
    mid = tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))
    return verts[:i] + (mid,) + verts[i + 1:], verts[:j] + (mid,) + verts[j + 1:]


def _sq_diameter(verts: Vertices) -> Fraction:
    """The squared length of a simplex's longest edge."""
    return max(_sq_dist(u, v) for u, v in itertools.combinations(verts, 2))


class _StepTables(dict):
    """steps[i, j] of :func:`_casteljau_tables`, each built on first use: a
    run bisects along few of the n * (n - 1) ordered edges, often none."""

    def __init__(self, n: int, d: int):
        self.d = d
        self.index = {key: p for p, key in enumerate(
            itertools.combinations_with_replacement(range(n), d))}

    def __missing__(self, edge: tuple[int, int]):
        i, j = edge
        rows = []
        for key in self.index:   # canonical order
            k = key.count(i)
            rest = tuple(x for x in key if x != i)
            rows.append(tuple(
                (math.comb(k, t) << (self.d - k),
                 self.index[tuple(sorted(rest + (j,) * t + (i,) * (k - t)))])
                for t in range(k + 1)))
        self[edge] = rows = tuple(rows)
        return rows


@functools.lru_cache(maxsize=32)
def _casteljau_tables(n: int, d: int):
    """Index tables for the coefficients of a simplex with n vertices, keyed
    by 0-based vertex multisets in canonical order.

    Returns (diag, steps): diag[k] is the position of the multiset (k,)*d,
    the value at vertex k; steps[i, j] maps a parent's coefficients to those
    of the child in which vertex i becomes the midpoint of edge (i, j).  A
    multiset holding i k times gets sum over t of C(k, t) * 2^(d-k) times the
    parent coefficient with t of those i replaced by j, i.e. the exact value
    scaled by 2^d, which keeps every coefficient an int.
    """
    steps = _StepTables(n, d)
    return tuple(steps.index[(k,) * d] for k in range(n)), steps


def _casteljau_step(b: list[int], rows) -> list[int]:
    return [sum([w * b[src] for w, src in row]) for row in rows]


def _bisect(node: Node, steps) -> tuple[Node, Node]:
    """The two children of a search node, split at the midpoint of its
    simplex's longest edge (i, j): first the child in which vertex i moves,
    then j."""
    verts, depth, b = node
    i, j = _longest_edge(verts)
    child_i, child_j = _split(verts, i, j)
    return ((child_i, depth + 1, _casteljau_step(b, steps[i, j])),
            (child_j, depth + 1, _casteljau_step(b, steps[j, i])))


def _level_nonnegative(A: SymTensor, k: int, distinct: int) -> bool:
    """Whether, on each simplex of the level-k partition (k rounds of
    longest-edge bisection of the standard simplex, every simplex split in
    each round), every coefficient whose multiset has at most `distinct`
    different vertex indices is non-negative.

    The simplices are visited depth first, children in :func:`_bisect`
    order, so at most k + 1 tables are held at once, and the first negative
    coefficient decides.  Only signs are read, so the positive scale
    L * 2^(d * depth) is never undone.  A negative k, or 2^k simplices of
    more than MAX_TABLE_CELLS coefficients in all, raise ValueError before
    any table is built; a point (n = 1) cannot be bisected, so at n = 1 any
    k > 0 raises too.
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    tuples = binomial_at_most(A.n + A.d - 1, A.d)
    # a shift past the limit's bit length already exceeds it, so a huge k
    # never builds a huge int
    if tuples << min(k, MAX_TABLE_CELLS.bit_length()) > MAX_TABLE_CELLS:
        raise ValueError(f"level {k}: 2^{k} simplices of {count_text(tuples)} "
                         f"coefficients exceed the limit of {MAX_TABLE_CELLS} cells")
    root = scaled_values(A)[1]
    steps = _casteljau_tables(A.n, A.d)[1]
    positions = [p for key, p in steps.index.items() if len(set(key)) <= distinct]
    work = [(_unit_vectors(A.n), 0, root)]
    while work:
        node = work.pop()
        _, depth, b = node
        if depth < k:
            work.extend(reversed(_bisect(node, steps)))
        elif any(b[p] < 0 for p in positions):
            return False
    return True


def member_I_P(A: SymTensor, k: int) -> bool:
    """Pairwise inner cone on the level-k partition: vertex powers and all
    two-vertex splits along the partition's edges pair non-negatively with
    A.  For d > 2 this is weaker than the full table the certifier prunes
    on."""
    return _level_nonnegative(A, k, 2)


def member_O_P(A: SymTensor, k: int) -> bool:
    """Outer cone on the level-k partition: the form is non-negative at every
    partition vertex."""
    return _level_nonnegative(A, k, 1)


class Verdict(enum.Enum):
    COPOSITIVE = "Copositive"
    NOT_COPOSITIVE = "NotCopositive"
    INDETERMINATE = "StrictlyIndeterminate"


@dataclass(frozen=True)
class PartitionStats:
    max_depth: int
    simplices: int
    unresolved: int
    diameter_unresolved: float | None = None
    subsets: int | None = None   # principal submatrices the scan inverted


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    stats: PartitionStats
    witness: Point | None = None
    witness_value: Scalar | None = None


def certify_copositivity(A: SymTensor, max_depth: int = DEFAULT_MAX_DEPTH,
                         simplex_budget: int = DEFAULT_SIMPLEX_BUDGET) -> Certificate:
    """The exact routes of :func:`copotensor.evidence.decide` (the root
    table, then the principal-submatrix scan for a matrix of at most
    MAX_SCAN_DIMENSION rows), else depth-first branch-and-bound over
    longest-edge bisections of the standard simplex.

    A route decides at depth 0 on the one root simplex, and the scan's stats
    count the principal submatrices it inverted.  In the branch-and-bound, a
    negative form value at any encountered vertex refutes copositivity with
    that vertex as witness; a simplex passing the full vertex-tuple test is
    pruned; everything else is bisected.  Both tests read the simplex's
    integer Bernstein coefficients (see the module docstring), so float
    entries are decided on their exact binary values.  An empty work list
    certifies copositivity, and running out of depth or simplex budget yields
    StrictlyIndeterminate (boundary tensors may never terminate otherwise);
    the budgets bound nothing else.  More than MAX_ENUMERATION coefficients
    per simplex raise ValueError before any route runs.

    The work list is a stack of search nodes (vertices, depth, table).  Of a
    bisection's two children, the one whose table has the smaller least
    coefficient is taken first, so the search heads for the most negative
    part of the form; on a tie, the child in which the longest edge's
    higher-indexed vertex moves goes first (the second of :func:`_bisect`).
    Siblings share one scale, so the comparison is exact on ints.  The stack
    holds at most one unvisited sibling per depth, max_depth + 1 nodes in
    all.  A run that ends Copositive or depth-capped visits the same
    simplices in any order, so only a refutation's witness and counts depend
    on the order.  Unresolved simplices are counted, not kept: the
    depth-capped ones and, after a budget stop, the ones still on the stack;
    the diameter reported is the longest edge among them.
    """
    if max_depth < 0 or simplex_budget < 1:
        raise ValueError("budgets must be positive")
    scale, root = scaled_values(A)
    decision = decide(A, scale, root)
    if decision is not None:
        verdict = Verdict.COPOSITIVE if decision.witness is None else Verdict.NOT_COPOSITIVE
        return Certificate(verdict, PartitionStats(0, 1, 0, subsets=decision.subsets),
                           decision.witness, decision.value)
    diag, steps = _casteljau_tables(A.n, A.d)
    work = [(_unit_vectors(A.n), 0, root)]
    processed = 0
    max_depth_seen = 0
    unresolved = 0
    longest = Fraction(0)   # squared, over the unresolved simplices
    while work:
        if processed >= simplex_budget:
            unresolved += len(work)
            longest = max(longest, *(_sq_diameter(verts) for verts, _, _ in work))
            break
        node = work.pop()
        verts, depth, b = node
        processed += 1
        max_depth_seen = max(max_depth_seen, depth)
        for k, p in enumerate(diag):
            if b[p] < 0:
                return Certificate(
                    Verdict.NOT_COPOSITIVE,
                    PartitionStats(max_depth_seen, processed, len(work)),
                    verts[k], Fraction(b[p], scale << A.d * depth))
        if min(b) >= 0:
            continue
        if depth >= max_depth:
            unresolved += 1
            longest = max(longest, _sq_diameter(verts))
            continue
        child_i, child_j = _bisect(node, steps)
        # the top of the stack is taken first
        work += ((child_j, child_i) if min(child_i[2]) < min(child_j[2])
                 else (child_i, child_j))
    if unresolved:
        return Certificate(
            Verdict.INDETERMINATE,
            stats=PartitionStats(max_depth_seen, processed, unresolved,
                                 math.sqrt(float(longest))))
    return Certificate(Verdict.COPOSITIVE,
                       stats=PartitionStats(max_depth_seen, processed, 0))
