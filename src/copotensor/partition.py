"""Simplicial partitions of the standard simplex, the partition cones O^P and
I^P, and the branch-and-bound copositivity certifier.

All geometry is exact rational: vertices are Fraction points, longest-edge
selection compares squared edge lengths exactly, and every verdict-bearing
inequality is evaluated exactly.  Floating point appears only in the
reported diameter.

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
2008.  Only signs decide, so no Fraction table is ever formed.  The root
decides before any geometry: its vertices are the unit vectors, so a
tensor that it refutes or prunes (every order-1 tensor among them) never
builds the n-by-n Fraction vertices of the standard simplex.

The certifier's routes, in order: the root table; for a matrix (d = 2) of
at most MAX_SCAN_DIMENSION rows, the exact principal-submatrix scan of
Cottle, Habetler & Lemke (:func:`copotensor.evidence.scan_principal_submatrices`),
which always decides; everything else, branch-and-bound, which alone reads
the depth and simplex budgets.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (MAX_SCAN_DIMENSION, MAX_TABLE_CELLS, binomial_at_most,
                            count_text)
from .evidence import scan_principal_submatrices
from .tensor import Scalar, SymTensor, scaled_values

Point = tuple[Fraction, ...]

# certify_copositivity's default budgets, also the CLI's
DEFAULT_MAX_DEPTH = 32
DEFAULT_SIMPLEX_BUDGET = 100_000


@dataclass(frozen=True)
class Simplex:
    vertices: tuple[Point, ...]
    depth: int = 0

    def __post_init__(self):
        for v in self.vertices:
            if any(c < 0 for c in v) or sum(v) != 1:
                raise ValueError(f"vertex {v} is not in the standard simplex")


def standard_simplex(n: int) -> Simplex:
    if n < 1:
        raise ValueError("n must be >= 1")
    verts = tuple(tuple(Fraction(1 if j == i else 0) for j in range(n))
                  for i in range(n))
    return Simplex(verts)


def _sq_dist(u: Point, v: Point) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(u, v))


def _longest_edge(s: Simplex) -> tuple[int, int]:
    """Vertex indices (i, j), i < j, of a longest edge; ties broken by the
    lexicographically smallest (sorted) vertex pair, for determinism.
    """
    if len(s.vertices) < 2:
        raise ValueError("cannot bisect a point")
    best = None
    best_len = Fraction(-1)
    for i, j in itertools.combinations(range(len(s.vertices)), 2):
        u, v = s.vertices[i], s.vertices[j]
        d2 = _sq_dist(u, v)
        key = (min(u, v), max(u, v))
        if d2 > best_len or (d2 == best_len and key < best[2]):
            best = (i, j, key)
            best_len = d2
    if best_len == 0:
        raise ValueError("degenerate simplex: longest edge has length 0")
    return best[0], best[1]


def _split(s: Simplex, i: int, j: int) -> tuple[Simplex, Simplex]:
    """The children of s in which vertex i, respectively j, becomes the
    midpoint of the edge (i, j)."""
    u, v = s.vertices[i], s.vertices[j]
    mid = tuple((a + b) / 2 for a, b in zip(u, v))
    child_i = tuple(mid if k == i else w for k, w in enumerate(s.vertices))
    child_j = tuple(mid if k == j else w for k, w in enumerate(s.vertices))
    return (Simplex(child_i, s.depth + 1), Simplex(child_j, s.depth + 1))


def _sq_diameter(s: Simplex) -> Fraction:
    """The squared length of s's longest edge."""
    return max(_sq_dist(u, v) for u, v in itertools.combinations(s.vertices, 2))


def diameter(simplices: list[Simplex]) -> float:
    """Longest edge over the simplices; float is for reporting only, never
    for branching."""
    return math.sqrt(float(max(map(_sq_diameter, simplices))))


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


def _bisect(s: Simplex, b: list[int], steps) -> tuple[tuple[Simplex, list[int]], ...]:
    """The two (child, coefficients) pairs of s, split at the midpoint of its
    longest edge (i, j): first the child in which vertex i moves, then j."""
    i, j = _longest_edge(s)
    child_i, child_j = _split(s, i, j)
    return ((child_i, _casteljau_step(b, steps[i, j])),
            (child_j, _casteljau_step(b, steps[j, i])))


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
    work = [(standard_simplex(A.n), root)]
    while work:
        s, b = work.pop()
        if s.depth < k:
            work.extend(reversed(_bisect(s, b, steps)))
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
    max_depth_reached: int
    simplices_processed: int
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
    """The root table, then the principal-submatrix scan for a matrix of at
    most MAX_SCAN_DIMENSION rows, else depth-first branch-and-bound over
    longest-edge bisections of the standard simplex.

    The scan always decides, at depth 0 on the one root simplex, and its
    stats count the principal submatrices it inverted.  In the
    branch-and-bound, a negative form value at any encountered vertex
    refutes copositivity with that vertex as witness; a simplex passing the
    full vertex-tuple test is pruned; everything else is bisected.  Both tests read the simplex's
    integer Bernstein coefficients (see the module docstring), so float
    entries are decided on their exact binary values.  An empty work list
    certifies copositivity, and running out of depth or simplex budget yields
    StrictlyIndeterminate (boundary tensors may never terminate otherwise);
    the budgets bound nothing else.  More than MAX_ENUMERATION coefficients
    per simplex raise ValueError.

    The work list is a stack.  Of a bisection's two children, the one whose
    table has the smaller least coefficient is taken first, so the search
    heads for the most negative part of the form; on a tie, the child in
    which the longest edge's higher-indexed vertex moves goes first (the
    second of :func:`_bisect`).  Siblings share one scale, so the comparison
    is exact on ints.  The stack holds at most one unvisited sibling per
    depth, max_depth + 1 simplices in all.  A run that ends Copositive or
    depth-capped visits the same simplices in any order, so only a
    refutation's witness and counts depend on the order.  Unresolved
    simplices are counted, not kept: the depth-capped ones and, after a
    budget stop, the ones still on the stack; the diameter reported is the
    longest edge among them.
    """
    if max_depth < 0 or simplex_budget < 1:
        raise ValueError("budgets must be positive")
    scale, root = scaled_values(A)
    diag, steps = _casteljau_tables(A.n, A.d)
    # the root decides before any geometry: its vertices are the unit vectors
    for k, p in enumerate(diag):
        if root[p] < 0:
            return Certificate(Verdict.NOT_COPOSITIVE, PartitionStats(0, 1, 0),
                               tuple(Fraction(int(j == k)) for j in range(A.n)),
                               Fraction(root[p], scale))
    if min(root) >= 0:
        return Certificate(Verdict.COPOSITIVE, stats=PartitionStats(0, 1, 0))
    if A.d == 2 and A.n <= MAX_SCAN_DIMENSION:
        scan = scan_principal_submatrices(A.n, scale, root)
        verdict = Verdict.COPOSITIVE if scan.witness is None else Verdict.NOT_COPOSITIVE
        return Certificate(verdict, PartitionStats(0, 1, 0, subsets=scan.subsets),
                           scan.witness, scan.value)
    work = [(standard_simplex(A.n), root)]
    processed = 0
    max_depth_seen = 0
    unresolved = 0
    longest = Fraction(0)   # squared, over the unresolved simplices
    while work:
        if processed >= simplex_budget:
            unresolved += len(work)
            longest = max(longest, *(_sq_diameter(s) for s, _ in work))
            break
        s, b = work.pop()
        processed += 1
        max_depth_seen = max(max_depth_seen, s.depth)
        for k, p in enumerate(diag):
            if b[p] < 0:
                return Certificate(
                    Verdict.NOT_COPOSITIVE,
                    PartitionStats(max_depth_seen, processed, len(work)),
                    s.vertices[k], Fraction(b[p], scale << A.d * s.depth))
        if min(b) >= 0:
            continue
        if s.depth >= max_depth:
            unresolved += 1
            longest = max(longest, _sq_diameter(s))
            continue
        child_i, child_j = _bisect(s, b, steps)
        # the top of the stack is taken first
        work += ((child_j, child_i) if min(child_i[1]) < min(child_j[1])
                 else (child_i, child_j))
    if unresolved:
        return Certificate(
            Verdict.INDETERMINATE,
            stats=PartitionStats(max_depth_seen, processed, unresolved,
                                 math.sqrt(float(longest))))
    return Certificate(Verdict.COPOSITIVE,
                       stats=PartitionStats(max_depth_seen, processed, 0))
