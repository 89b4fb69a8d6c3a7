"""Deliberately naive brute-force ground truth.

Nothing here shares code paths with the hierarchy modules: expansion is
literal term-by-term polynomial multiplication, minimization is exhaustive
grid evaluation, and sampling is plain seeded Monte Carlo.  A bug in the main
modules cannot be mirrored here.  Only the float sampler imports numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinatorics import binomial_at_most, count_text, tuple_multiplicity
from .tensor import Scalar, SymTensor, eval_form

# The most grid points times coordinates (the Fractions a grid builds), or
# sphere samples times canonical tuples (the terms of eval_many), one oracle
# call may evaluate.
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class OracleReport:
    min_value: Scalar
    argmin: tuple[Scalar, ...]
    resolution: int | None = None
    samples: int | None = None
    seed: int | None = None


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


def barycentric_grid_min(A: SymTensor, vertices: Sequence[Sequence[Scalar]],
                         resolution: int) -> OracleReport:
    """Exact minimum over the barycentric grid of a sub-simplex."""
    m = len(vertices)
    n = A.n
    best_val = None
    best_pt = None
    for comp in _compositions(resolution, m):
        x = [Fraction(0)] * n
        for lam, v in zip(comp, vertices):
            for i in range(n):
                x[i] += Fraction(lam, resolution) * v[i]
        val = eval_form(A, x)
        if best_val is None or val < best_val:
            best_val, best_pt = val, tuple(x)
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


def eval_many(A: SymTensor, X: np.ndarray) -> np.ndarray:
    """Float evaluation of the form at each row of X, vectorized per
    canonical tuple."""
    import numpy as np

    out = np.zeros(X.shape[0])
    for key, a in A.items():
        if a == 0:
            continue
        term = float(a) * tuple_multiplicity(key) * np.ones(X.shape[0])
        for i in key:
            term *= X[:, i - 1]
        out += term
    return out


def fullspace_sample_min(A: SymTensor, trials: int, seed: int,
                         extra_probes: Sequence[Sequence[float]] = ()) -> OracleReport:
    """Minimum of the form over seeded pseudo-random unit-sphere points.

    Points are Gaussian draws normalized to the sphere (numpy PCG64
    generator), so both orthants are covered; any directed probes are
    appended after normalization.  Deterministic for a given seed.
    """
    import numpy as np

    if not 1 <= trials <= MAX_GRID_POINTS:
        raise ValueError(f"trials must be between 1 and {MAX_GRID_POINTS}")
    terms = trials * binomial_at_most(A.n + A.d - 1, A.d)
    if terms > MAX_GRID_POINTS:
        raise ValueError(f"{trials} samples of {A.n}-variate degree-{A.d} form: "
                         f"{count_text(terms)} terms exceed cap {MAX_GRID_POINTS}")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((trials, A.n))
    norms = np.linalg.norm(pts, axis=1)
    norms[norms == 0] = 1.0
    pts /= norms[:, None]
    rows = [pts]
    for p in extra_probes:
        v = np.asarray(p, dtype=float)
        nv = np.linalg.norm(v)
        rows.append((v / nv if nv else v)[None, :])
    X = np.vstack(rows)
    vals = eval_many(A, X)
    k = int(np.argmin(vals))
    return OracleReport(float(vals[k]), tuple(float(c) for c in X[k]),
                        samples=X.shape[0], seed=seed)
