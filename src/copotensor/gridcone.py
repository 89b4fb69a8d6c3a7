"""Outer hierarchy from rational grids on the standard simplex.

Level r uses all points x of the simplex with (r+2) x integral; the
cumulative grid is the union over levels 0..r (the unit vertices sit in
every level, so starting the union at 0 only makes that explicit).  A grid
point is enumerated once, at its first appearance: as the composition
c = m x of the smallest denominator m in 2..r+2 with m x integral.
Evaluation is exact on ints, on A's one integer form,
:func:`tensor.scaled_terms`: with L the lcm of A's denominators, the form at
c / m is default * L * m^d plus one term per stored entry that differs from
the default, over L m^d, and only a reported value becomes a Fraction; there
is no tolerance.  A point costs time linear in the stored entries, not in
the C(n+d-1, d) canonical tuples.  A level whose grid would
exceed ``combinatorics.MAX_ENUMERATION`` compositions, or a tensor with more
canonical tuples than that, raises ValueError before anything is enumerated.

That evaluation is the only one of the form on the grid: :func:`member_O_r`
reads its first negative value, and :func:`grid_zeros` its zeros at level 2,
which the SOS solver's faces are built from (on the simplex, every level's
P^(r)(sqrt(x)) = f(x) (sum x)^r is f(x), so the zeros are the same at every
level r of K^(r)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .combinatorics import (COUNT_CAP, binomial_at_most, check_enumeration_size,
                            enumerate_exponents)
from .tensor import Scalar, SymTensor, check_tuple_count

Point = tuple[Fraction, ...]
GridPoint = tuple[int, tuple[int, ...]]   # the point c / m as (m, c)

SEARCH_CAP = 1 << 16   # grid_zeros: at most this many grid points times canonical tuples


def grid_point_count(n: int, r: int) -> int:
    """C(n+m-1, m) summed over 2 <= m <= r+2, C(n+r+2, r+2) - n - 1 by the
    hockey stick: the level-r grid's size, exact up to COUNT_CAP."""
    return binomial_at_most(n + r + 2, r + 2, COUNT_CAP + n + 1) - n - 1


def first_appearances(n: int, r: int) -> Iterator[GridPoint]:
    """Each point of the cumulative grid once, as (m, composition of m): every
    composition at m = 2, and at m > 2 those with gcd(m, *c) = 1 (the others
    reduce to a smaller denominator).  Levels ascend, compositions are
    lexicographic within a level.  A negative r or an oversized grid raises
    ValueError here, at the call, not when the points are first drawn."""
    if r < 0:
        raise ValueError("r must be >= 0")
    check_enumeration_size(grid_point_count(n, r), f"level {r} grid point count")
    return ((m, c) for m in range(2, r + 3) for c in enumerate_exponents(n, m)
            if m == 2 or math.gcd(m, *c) == 1)


@dataclass(frozen=True)
class GridVerdict:
    member: bool
    r: int
    witness: Point | None = None
    value: Scalar | None = None


def _grid_values(A: SymTensor, r: int) -> tuple[int, Iterator[tuple[int, tuple[int, ...], int]]]:
    """L, the lcm of A's denominators, and for each point c / m of the level-r
    cumulative grid, in :func:`first_appearances` order, (m, c, L m^d f(c / m))
    with the value an int.

    By the multinomial theorem the multiplicities times prod c_i^counts_i
    sum to (sum c)^d = m^d over the canonical tuples, so the default adds
    default * L * m^d to every point, and each term of :func:`scaled_terms`
    adds its weight times one power per run: a huge order costs a power per
    run, not d products."""
    points = first_appearances(A.n, r)
    check_tuple_count(A)   # the tensor's size limit, however few its terms
    scale, default, terms = A.integer_form

    def evaluate() -> Iterator[tuple[int, tuple[int, ...], int]]:
        level, base = None, 0   # points arrive grouped by m: one m^d per m
        for m, c in points:
            if m != level:
                level, base = m, default * m ** A.d
            total = base
            for w, runs in terms:
                for i, e in runs:
                    w *= c[i] ** e
                total += w
            yield m, c, total
    return scale, evaluate()


def member_O_r(A: SymTensor, r: int) -> GridVerdict:
    """Outer cone membership: the form must be non-negative at every point of
    the cumulative grid.  The first negative point in enumeration order is
    the witness."""
    scale, values = _grid_values(A, r)
    for m, c, total in values:
        if total < 0:
            return GridVerdict(False, r, tuple(Fraction(ci, m) for ci in c),
                               Fraction(total, scale * m ** A.d))
    return GridVerdict(True, r)


def grid_zeros(A: SymTensor) -> tuple[GridPoint, ...]:
    """The points c / m of the level-2 grid (m in 2..4, in
    :func:`first_appearances` order) where the form is exactly 0, as (m, c);
    none when the grid points times A's canonical tuples would pass
    SEARCH_CAP.  Never raises: within the cap, both counts stay below
    MAX_ENUMERATION, as there are at least n canonical tuples and, for
    n >= 2, at least 12 grid points."""
    if grid_point_count(A.n, 2) * binomial_at_most(A.n + A.d - 1, A.d) > SEARCH_CAP:
        return ()
    _, values = _grid_values(A, 2)
    return tuple((m, c) for m, c, total in values if total == 0)
