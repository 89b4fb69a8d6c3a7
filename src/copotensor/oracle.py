"""Deliberately naive brute-force ground truth.

Nothing here shares code paths with the hierarchy modules: expansion is
literal term-by-term polynomial multiplication and minimization is
exhaustive grid evaluation, a literal sum over the canonical tuples (not
the integer form the kernels share), both exact.  A bug in the main modules
cannot be mirrored here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial_at_most, count_text
from .tensor import Scalar, SymTensor

# The most grid points times coordinates, and grid points times canonical
# tuples, one oracle call may evaluate.
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class OracleReport:
    min_value: Scalar
    argmin: tuple[Scalar, ...]
    resolution: int


def _compositions(total: int, parts: int):
    """Compositions in lexicographic order, without recursion: the next one
    raises the part before the last nonzero c[t], t > 0, by one and moves
    c[t] - 1 to the end."""
    c = [0] * (parts - 1) + [total]
    while True:
        yield tuple(c)
        t = parts - 1
        while t > 0 and c[t] == 0:
            t -= 1
        if t == 0:
            return
        rest, c[t] = c[t] - 1, 0
        c[t - 1] += 1
        c[-1] = rest


def simplex_grid_min(A: SymTensor, resolution: int) -> OracleReport:
    """Exact minimum of the form over all simplex points with denominator
    `resolution`, the lexicographically first on a tie.  A point c / m is
    evaluated on ints as L m^d f(c / m): the sum over the canonical tuples of
    a L d! / prod counts! prod c_i^counts, L the lcm of the denominators.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    count = binomial_at_most(A.n + resolution - 1, resolution)
    if count * A.n > MAX_GRID_POINTS:
        raise ValueError(f"grid of {count_text(count)} points in {A.n} coordinates "
                         f"exceeds cap {MAX_GRID_POINTS}")
    tuples = binomial_at_most(A.n + A.d - 1, A.d)
    if count * tuples > MAX_GRID_POINTS:
        raise ValueError(f"grid of {count_text(count)} points times {count_text(tuples)} "
                         f"canonical tuples exceeds cap {MAX_GRID_POINTS}")
    values = [(key, a) for key, a in A.items() if a]
    scale = math.lcm(*(a.denominator for _, a in values))
    terms = []   # (a L d! / prod counts!, the (0-based index, count) pairs)
    for key, a in values:
        runs = [(i - 1, len(list(run))) for i, run in itertools.groupby(key)]
        counts = [e for _, e in runs]
        multiplicity = math.prod(map(math.comb, itertools.accumulate(counts), counts))
        terms.append((a.numerator * (scale // a.denominator) * multiplicity, runs))
    best = None
    for comp in _compositions(resolution, A.n):
        total = 0
        for w, runs in terms:
            for i, e in runs:
                w *= comp[i] ** e
            total += w
        if best is None or total < best[0]:
            best = total, comp
    return OracleReport(Fraction(best[0], scale * resolution ** A.d),
                        tuple(Fraction(c, resolution) for c in best[1]), resolution)


def expand_bruteforce(A: SymTensor, r: int) -> dict[tuple[int, ...], Fraction]:
    """Exact coefficients of f_A(y o y) (sum y_k^2)^r over exponent vectors,
    by literal polynomial multiplication over all n^d index tuples.
    Keys are the (all-even) y-exponent vectors of degree 2(d+r).
    """
    if A.n ** A.d > 100_000:
        raise ValueError("brute-force expansion size cap exceeded")
    n, d = A.n, A.d
    poly: dict[tuple[int, ...], Fraction] = {}
    for tup in itertools.product(range(1, n + 1), repeat=d):
        a = A.entries.get(tuple(sorted(tup)), A.default)
        if a == 0:
            continue
        expo = [0] * n
        for i in tup:
            expo[i - 1] += 2
        key = tuple(expo)
        poly[key] = poly.get(key, Fraction(0)) + Fraction(a)
    sq = {tuple(2 if j == k else 0 for j in range(n)): Fraction(1) for k in range(n)}
    for _ in range(r):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in poly.items():
            for e2, c2 in sq.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
        poly = nxt
    return {k: v for k, v in poly.items() if v != 0}

