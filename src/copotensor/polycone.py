"""Inner hierarchy based on non-negative coefficients.

Level r tests whether every coefficient of P(y) = f_A(y o y) (sum y_k^2)^r is
non-negative.  Coefficients are indexed by exponent vectors theta of degree
s = r + d (the monomial y^(2 theta)) and are exact.  The production route,
:func:`_brackets`, evaluates an integer falling-factorial bracket B(theta)
for every theta at once on Python ints (A's values scaled by the lcm of
their denominators); a coefficient is multinomial(theta) * B(theta) over one
common denominator.  :func:`member_C_r` reads only the signs of the brackets
on a Member level and builds a single Fraction, the worst coefficient, on a
NotMember one; :func:`expand_Pr` builds one Fraction per coefficient.  A
level with more than ``combinatorics.MAX_ENUMERATION`` coefficients (for
n = 1, with a larger (r+d+1) x (d+1) falling-factorial table) raises
ValueError before anything is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .combinatorics import (binomial_at_most, check_enumeration_size,
                            enumerate_exponents, falling_factorial, index_counts,
                            multinomial, tuple_multiplicity)
from .tensor import SymTensor, canonical_tuples, scaled_values

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
    Every theta is handled at once: a canonical tuple adds one column
    product to B, over a Python-int object array indexed by the theta table.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    check_enumeration_size(binomial_at_most(A.n + r + A.d - 1, r + A.d),
                           f"level {r} coefficient count")
    d, s = A.d, r + A.d
    # for n = 1 both counts above are 1 and do not bound the (s+1) x (d+1)
    # falling-factorial table, so it is bounded on its own; for n >= 2 it has
    # at most as many entries as the column products below, coefficients
    # times canonical tuples, a product that no check bounds
    if A.n == 1:
        check_enumeration_size((s + 1) * (d + 1), f"level {r} falling-factorial table size")
    scale, values = scaled_values(A)
    thetas = enumerate_exponents(A.n, s)
    table = np.array(thetas, dtype=np.intp)
    fall = np.array([[falling_factorial(t, c) for c in range(d + 1)]
                     for t in range(s + 1)], dtype=object)
    factors: dict[tuple[int, int], np.ndarray] = {}   # fall(theta_i, c) per (i, c)
    brackets = np.zeros(len(thetas), dtype=object)
    for key, a in zip(canonical_tuples(A.n, d), values):
        if not a:
            continue
        column = tuple_multiplicity(key) * a
        for i, c in enumerate(index_counts(key, A.n)):
            if c:
                if (i, c) not in factors:
                    factors[i, c] = fall[table[:, i], c]
                column = column * factors[i, c]
        brackets += column
    return thetas, brackets, falling_factorial(s, d) * scale


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
    multinomial(theta) * B(theta), the lexicographically first on a tie."""
    thetas, brackets, denom = _brackets(A, r)
    negative = np.flatnonzero(brackets < 0)
    if not len(negative):
        return CoefficientVerdict(True, r)
    numerators = {k: multinomial(thetas[k]) * brackets[k] for k in negative.tolist()}
    worst = min(numerators, key=numerators.__getitem__)
    return CoefficientVerdict(False, r, thetas[worst], Fraction(numerators[worst], denom))
