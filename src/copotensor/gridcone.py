"""Outer hierarchy from rational grids on the standard simplex.

Level r uses all points x of the simplex with (r+2) x integral; the
cumulative grid is the union over levels 0..r (the unit vertices sit in
every level, so starting the union at 0 only makes that explicit).
Evaluation at grid points is exact; there is no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import enumerate_exponents
from .tensor import Scalar, SymTensor, eval_form

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class RationalGrid:
    n: int
    r: int
    points: tuple[Point, ...]
    cumulative: bool


def _level_points(n: int, m: int) -> list[Point]:
    # compositions of m into n parts, lexicographic, scaled by 1/m
    return [tuple(Fraction(c, m) for c in comp) for comp in enumerate_exponents(n, m)]


def grid_points(n: int, r: int) -> RationalGrid:
    """Single-level grid with denominator r+2.

    Count is binomial(n+r+1, r+2); the composition count, which follows from
    the defining condition (the literature sometimes quotes a smaller figure
    that is inconsistent with it).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    pts = _level_points(n, r + 2)
    assert len(pts) == math.comb(n + r + 1, r + 2)
    return RationalGrid(n, r, tuple(pts), cumulative=False)


def cumulative_grid(n: int, r: int) -> RationalGrid:
    """Union of the level grids 0..r, deduplicated; enumeration order is
    levels ascending, points lexicographic within a level."""
    seen: dict[Point, None] = {}
    for k in range(r + 1):
        for p in _level_points(n, k + 2):
            seen.setdefault(p, None)
    return RationalGrid(n, r, tuple(seen), cumulative=True)


@dataclass(frozen=True)
class GridVerdict:
    member: bool
    r: int
    witness: Point | None = None
    value: Scalar | None = None


def member_O_r(A: SymTensor, r: int) -> GridVerdict:
    """Outer cone membership: the form must be non-negative at every point of
    the cumulative grid.  The first negative point in enumeration order is
    the witness."""
    grid = cumulative_grid(A.n, r)
    for p in grid.points:
        v = eval_form(A, p)
        if v < 0:
            return GridVerdict(False, r, p, v)
    return GridVerdict(True, r)
