"""Deliberately naive brute-force ground truth.

Nothing here shares code paths with the hierarchy modules: expansion is
literal term-by-term polynomial multiplication and minimization is
exhaustive grid evaluation, both in exact rational arithmetic.  A bug in the
main modules cannot be mirrored here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial_at_most, count_text
from .tensor import Scalar, SymTensor, eval_form

# The most grid points times coordinates (the Fractions a grid builds) one
# oracle call may evaluate.
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
    `resolution`.  Rational arithmetic throughout.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    count = binomial_at_most(A.n + resolution - 1, resolution)
    if count * A.n > MAX_GRID_POINTS:
        raise ValueError(f"grid of {count_text(count)} points in {A.n} coordinates "
                         f"exceeds cap {MAX_GRID_POINTS}")
    coords = [Fraction(c, resolution) for c in range(resolution + 1)]
    best_val = None
    best_pt = None
    for comp in _compositions(resolution, A.n):
        x = tuple(coords[c] for c in comp)
        v = eval_form(A, x)
        if best_val is None or v < best_val:
            best_val, best_pt = v, x
    return OracleReport(best_val, best_pt, resolution=resolution)


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

