"""Simplicial partitions of the standard simplex and the branch-and-bound
copositivity certifier.

All geometry is exact rational: vertices are Fraction points, longest-edge
selection compares squared edge lengths exactly, and every verdict-bearing
inequality is evaluated exactly.  Floating point appears only in the
reported diameter.

Every per-simplex test reads one table, the values <A, v_k1 (x) ... (x) v_kd>
over the multisets of the simplex's vertex indices: the simplicial Bernstein
coefficients of the form (Leroy 2008).  O^P reads the vertex values (one
distinct index), I^P adds the edge splits (two), and the full vertex-tuple
test of Bundfuss & Dur 2008 reads them all.  The certifier carries the table
as Python ints scaled by a positive constant, so one array refutes (a
negative vertex value, reported off that coefficient) and prunes (all
non-negative).  Bisecting an edge is a de Casteljau step on the coefficients
rather than a recomputation.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .tensor import Scalar, SymTensor, multi_product, scaled_values

Point = tuple[Fraction, ...]


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


def bisect_longest_edge(s: Simplex) -> tuple[Simplex, Simplex]:
    """Split at the midpoint of a longest edge; ties broken by the
    lexicographically smallest (sorted) vertex pair, for determinism.
    """
    return _split(s, *_longest_edge(s))


@dataclass
class Partition:
    simplices: list[Simplex]

    @property
    def vertex_set(self) -> list[Point]:
        seen: dict[Point, None] = {}
        for s in self.simplices:
            for v in s.vertices:
                seen.setdefault(v, None)
        return list(seen)

    @property
    def edge_set(self) -> list[tuple[Point, Point]]:
        seen: dict[tuple[Point, Point], None] = {}
        for s in self.simplices:
            for u, v in itertools.combinations(s.vertices, 2):
                seen.setdefault((min(u, v), max(u, v)), None)
        return list(seen)


def trivial_partition(n: int) -> Partition:
    return Partition([standard_simplex(n)])


def grid_partition(n: int, m: int) -> Partition:
    """Uniform triangulation of the standard simplex with every vertex on the
    denominator-m grid: segments for n = 2, the up/down triangle subdivision
    for n = 3.  This is the partition family whose vertex set matches the
    level-(m-d) rational grid, which the level-r coefficient cone embeds into.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n == 1:
        return trivial_partition(1)
    if n == 2:
        pts = [(Fraction(k, m), Fraction(m - k, m)) for k in range(m + 1)]
        return Partition([Simplex((pts[k], pts[k + 1])) for k in range(m)])
    if n == 3:
        def pt(a: int, b: int, c: int) -> Point:
            return (Fraction(a, m), Fraction(b, m), Fraction(c, m))
        simplices = []
        for a in range(m):
            for b in range(m - a):
                c = m - 1 - a - b
                simplices.append(Simplex((pt(a + 1, b, c), pt(a, b + 1, c),
                                          pt(a, b, c + 1))))
                if a + b + c >= 1 and c >= 1:
                    simplices.append(Simplex((pt(a + 1, b + 1, c - 1),
                                              pt(a + 1, b, c), pt(a, b + 1, c))))
        return Partition(simplices)
    raise ValueError("grid_partition supports n <= 3")


def refine_once(P: Partition) -> Partition:
    """Bisect every simplex; the result is a refinement of P."""
    out: list[Simplex] = []
    for s in P.simplices:
        out.extend(bisect_longest_edge(s))
    return Partition(out)


def refine(P: Partition, rounds: int) -> Partition:
    for _ in range(rounds):
        P = refine_once(P)
    return P


def diameter(P: Partition) -> float:
    """max edge length; float is for reporting only, never for branching."""
    return math.sqrt(float(max(_sq_dist(u, v) for u, v in P.edge_set)))


def _vertex_tuple_values(A: SymTensor, simplices: list[Simplex], distinct: int):
    """<A, v_k1 (x) ... (x) v_kd> for every multiset of a simplex's vertex
    indices with at most `distinct` different indices, simplex by simplex in
    canonical order, and each multiset of points once however many of the
    simplices share it; exact rational arithmetic."""
    seen: set[tuple[Point, ...]] = set()
    for s in simplices:
        verts = s.vertices
        for key in itertools.combinations_with_replacement(range(len(verts)), A.d):
            if len(set(key)) <= distinct:
                points = tuple(sorted(verts[k] for k in key))
                if points not in seen:
                    seen.add(points)
                    yield multi_product(A, points)


def inner_test_full(A: SymTensor, s: Simplex) -> bool:
    """Full vertex-tuple condition: every value of the simplex's table is
    non-negative.  Sufficient for non-negativity of the form on the simplex.
    """
    return all(value >= 0 for value in _vertex_tuple_values(A, [s], A.d))


def member_I_P(A: SymTensor, P: Partition) -> bool:
    """Pairwise inner cone: vertex powers and all two-vertex splits along the
    partition's edges must pair non-negatively with A.  This reproduces the
    edge-based definition; for d > 2 it is weaker than
    :func:`inner_test_full`, the condition the certifier prunes on.
    """
    return all(value >= 0 for value in _vertex_tuple_values(A, P.simplices, 2))


def member_O_P(A: SymTensor, P: Partition) -> bool:
    """Outer cone: the form is non-negative at every partition vertex."""
    return all(value >= 0 for value in _vertex_tuple_values(A, P.simplices, 1))


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


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    witness: Point | None = None
    witness_value: Scalar | None = None
    stats: PartitionStats | None = None


def certify_copositivity(A: SymTensor, max_depth: int = 32,
                         simplex_budget: int = 100_000) -> Certificate:
    """Branch-and-bound over longest-edge bisections of the standard simplex,
    first in, first out.

    A negative form value at any encountered vertex refutes copositivity with
    that vertex as witness; a simplex passing the full vertex-tuple test is
    pruned; everything else is bisected.  Both tests read the simplex's
    integer Bernstein coefficients (see the module docstring), so float
    entries are decided on their exact binary values.  An empty work list
    certifies copositivity, and running out of depth or simplex budget yields
    StrictlyIndeterminate (boundary tensors may never terminate otherwise).
    More than MAX_ENUMERATION coefficients per simplex raise ValueError.
    """
    if max_depth < 0 or simplex_budget < 1:
        raise ValueError("budgets must be positive")
    scale, root = scaled_values(A)
    diag, steps = _casteljau_tables(A.n, A.d)
    work: deque[tuple[Simplex, list[int]]] = deque([(standard_simplex(A.n), root)])
    processed = 0
    max_depth_seen = 0
    unresolved: list[Simplex] = []
    while work:
        if processed >= simplex_budget:
            unresolved.extend(s for s, _ in work)
            break
        s, b = work.popleft()
        processed += 1
        max_depth_seen = max(max_depth_seen, s.depth)
        for k, p in enumerate(diag):
            if b[p] < 0:
                return Certificate(
                    Verdict.NOT_COPOSITIVE, s.vertices[k],
                    Fraction(b[p], scale << A.d * s.depth),
                    PartitionStats(max_depth_seen, processed, len(work)))
        if min(b) >= 0:
            continue
        if s.depth >= max_depth:
            unresolved.append(s)
            continue
        i, j = _longest_edge(s)
        child_i, child_j = _split(s, i, j)
        work.append((child_i, _casteljau_step(b, steps[i, j])))
        work.append((child_j, _casteljau_step(b, steps[j, i])))
    if unresolved:
        return Certificate(
            Verdict.INDETERMINATE,
            stats=PartitionStats(max_depth_seen, processed, len(unresolved),
                                 diameter(Partition(unresolved))))
    return Certificate(Verdict.COPOSITIVE,
                       stats=PartitionStats(max_depth_seen, processed, 0))
