"""Inner hierarchy based on non-negative coefficients.

Level r tests whether every coefficient of P(y) = f_A(y o y) (sum y_k^2)^r is
non-negative.  Coefficients are indexed by exponent vectors theta of degree
s = r + d (the monomial y^(2 theta)) and are exact.  The production route,
:func:`_brackets`, evaluates an integer falling-factorial bracket B(theta)
for every theta at once on Python ints (A's values scaled by the lcm of
their denominators); a coefficient is multinomial(theta) * B(theta) over one
common denominator.  The default is taken in closed form, one term shared
by every bracket, and each stored entry that differs from it adds one
column, so the cost is linear in the stored entries, not in the
C(n+d-1, d) canonical tuples.  :func:`member_C_r` reads only the signs of
the brackets on a Member level and builds a single Fraction, the worst
coefficient, on a NotMember one; :func:`expand_Pr` builds one Fraction per
coefficient.  A level with more than ``combinatorics.MAX_ENUMERATION``
coefficients or canonical tuples (for n = 1, with a larger
(r+d+1) x (d+1) falling-factorial table) raises ValueError before anything
is enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .combinatorics import (binomial_at_most, check_enumeration_size,
                            enumerate_exponents, falling_factorial,
                            falling_factorial_column, index_runs, multinomial,
                            multinomials, tuple_multiplicity)
from .tensor import SymTensor, check_tuple_count, scaled_deltas

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class PolyExpansion:
    n: int
    d: int
    r: int
    coeffs: Mapping[Exponent, Fraction]

    @property
    def s(self) -> int:
        return self.r + self.d

    def __post_init__(self):
        expected = set(enumerate_exponents(self.n, self.s))
        if set(self.coeffs) != expected:
            raise ValueError("coefficient domain must be exactly I^n(r+d)")


def _brackets(A: SymTensor, r: int) -> tuple[tuple[Exponent, ...], np.ndarray, int]:
    """The exponents theta of level r in lexicographic order, the integer
    bracket B(theta) of each, and the common denominator D.

    Each coefficient is the sum over index tuples of
    multinomial(theta - counts) * a_{i_1..i_d}, and
    multinomial(theta - counts) = multinomial(theta) *
    prod_i fall(theta_i, counts_i) / fall(s, d).  With L the lcm of A's
    denominators, B(theta) = sum over canonical tuples of
    multiplicity * a * L * prod fall(theta_i, counts_i) is an int, and the
    coefficient is multinomial(theta) * B(theta) / D with D = fall(s, d) * L.
    By Vandermonde's identity the multiplicities times the falling-factorial
    products sum to fall(s, d) over the canonical tuples, so the default
    adds default * L * fall(s, d) to every bracket, and each delta of
    :func:`scaled_deltas` adds one column product, over a Python-int object
    array indexed by the theta table.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    check_enumeration_size(binomial_at_most(A.n + r + A.d - 1, r + A.d),
                           f"level {r} coefficient count")
    d, s = A.d, r + A.d
    # for n = 1 both counts here are 1 and bound neither fall(s, d), d
    # factors, nor a column of s + 1 falling factorials; the (s+1) x (d+1)
    # table size bounds both
    if A.n == 1:
        check_enumeration_size((s + 1) * (d + 1), f"level {r} falling-factorial table size")
    check_tuple_count(A)   # the tensor's size limit, however few its deltas
    scale, default, deltas = scaled_deltas(A)
    thetas = enumerate_exponents(A.n, s)
    table = np.array(thetas, dtype=np.intp)
    fall_s = falling_factorial(s, d)
    brackets = np.full(len(thetas), default * fall_s, dtype=object)
    columns: dict[int, np.ndarray] = {}   # fall(t, c) for t = 0..s, per c
    factors: dict[tuple[int, int], np.ndarray] = {}   # fall(theta_i, c) per (i, c)
    for key, delta in deltas:
        column = tuple_multiplicity(key) * delta
        for i, c in index_runs(key):
            if (i, c) not in factors:
                if c not in columns:
                    columns[c] = np.array(falling_factorial_column(s, c), dtype=object)
                factors[i, c] = columns[c][table[:, i - 1]]
            column = column * factors[i, c]
        brackets += column
    return thetas, brackets, fall_s * scale


def expand_Pr(A: SymTensor, r: int) -> PolyExpansion:
    """Coefficient table of P(y): multinomial(theta) * B(theta) / D for the
    integer brackets of :func:`_brackets`, one Fraction per coefficient."""
    thetas, brackets, denom = _brackets(A, r)
    return PolyExpansion(A.n, A.d, r, {
        theta: Fraction(multinomial(theta) * b, denom)
        for theta, b in zip(thetas, brackets)})


@dataclass(frozen=True)
class CoefficientVerdict:
    member: bool
    r: int
    worst_theta: Exponent | None = None
    worst_value: Fraction | None = None


def member_C_r(A: SymTensor, r: int) -> CoefficientVerdict:
    """Membership in the non-negative-coefficient cone at level r, decided
    exactly.  multinomial(theta) > 0, so a coefficient has the sign of its
    bracket: with no negative bracket the tensor is a member, and nothing
    else is computed.  Otherwise the worst coefficient is the most negative
    multinomial(theta) * B(theta), the lexicographically first on a tie.
    The multinomials of the negative brackets share their binomial rows,
    and the factor that D and those brackets share (fall(s, d) when the
    default dominates them) is divided out before they are multiplied, so
    a huge order compares small products."""
    thetas, brackets, denom = _brackets(A, r)
    negative = np.flatnonzero(brackets < 0).tolist()
    if not negative:
        return CoefficientVerdict(True, r)
    common = math.gcd(denom, *(brackets[k] for k in negative))
    numerators = {k: m * (brackets[k] // common) for k, m in
                  zip(negative, multinomials(thetas[k] for k in negative))}
    worst = min(numerators, key=numerators.__getitem__)
    return CoefficientVerdict(False, r, thetas[worst],
                              Fraction(numerators[worst], denom // common))
