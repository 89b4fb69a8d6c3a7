"""Inner hierarchy based on non-negative coefficients.

Level r tests whether every coefficient of P(y) = f_A(y o y) (sum y_k^2)^r is
non-negative.  Coefficients are indexed by exponent vectors theta of degree
s = r + d (the monomial y^(2 theta)) and are exact.  The production route,
:func:`_brackets`, evaluates an integer falling-factorial bracket B(theta)
for every theta at once on Python ints, from A's one integer form
:func:`tensor.scaled_terms`: the default's closed form shared by every
bracket, and one column per stored entry that differs from it, so the cost
is linear in the stored entries, not in the C(n+d-1, d) canonical tuples.
One reduction, :func:`_coefficients`, turns brackets into coefficients
multinomial(theta) * B(theta) / D: :func:`member_C_r` reads only the signs
of the brackets on a Member level and reduces the negative ones on a
NotMember one, and :func:`coefficient_table` reduces all of them, for
:func:`expand_Pr` and for every level of the SOS hierarchy (``soscone``).
A level with more than ``combinatorics.MAX_ENUMERATION`` coefficients or
canonical tuples raises ValueError before anything is enumerated; for
n = 1 the same limit bounds fall(s, d)'s d factors and each column's s + 1
entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .combinatorics import (binomial_at_most, check_enumeration_size,
                            enumerate_exponents, falling_factorial_column,
                            multinomials)
from .tensor import SymTensor, check_tuple_count

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
    adds default * L * fall(s, d) to every bracket, and each term of
    :func:`scaled_terms` adds its weight times one column product per run,
    over a Python-int object array indexed by the theta table.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    check_enumeration_size(binomial_at_most(A.n + r + A.d - 1, r + A.d),
                           f"level {r} coefficient count")
    d, s = A.d, r + A.d
    # for n = 1 both counts here are 1 and bound neither fall(s, d), d
    # factors, nor a column's s + 1 entries; (s + 1) (d + 1) bounds both
    if A.n == 1:
        check_enumeration_size((s + 1) * (d + 1), f"level {r} falling-factorial table size")
    check_tuple_count(A)   # the tensor's size limit, however few its terms
    scale, default, terms = A.integer_form
    thetas = enumerate_exponents(A.n, s)
    table = np.array(thetas, dtype=np.intp)
    fall_s = math.perm(s, d)
    brackets = np.full(len(thetas), default * fall_s, dtype=object)
    columns: dict[int, np.ndarray] = {}   # fall(t, c) for t = 0..s, per c
    factors: dict[tuple[int, int], np.ndarray] = {}   # fall(theta_i, c) per (i, c)
    for column, runs in terms:
        for i, c in runs:
            if (i, c) not in factors:
                if c not in columns:
                    columns[c] = np.array(falling_factorial_column(s, c), dtype=object)
                factors[i, c] = columns[c][table[:, i]]
            column = column * factors[i, c]
        brackets += column
    return thetas, brackets, fall_s * scale


def _coefficients(thetas: tuple[Exponent, ...], brackets: np.ndarray, denom: int,
                  picks: Sequence[int]) -> tuple[list[int], int]:
    """multinomial(theta) * B(theta) / D at the thetas numbered in ``picks``,
    as numerators over one denominator, with the gcd of D and those brackets
    divided out first and binomial rows shared: a huge order multiplies small factors."""
    common = math.gcd(denom, *(brackets[k] for k in picks))
    numerators = [m * (brackets[k] // common) for k, m in
                  zip(picks, multinomials(thetas[k] for k in picks))]
    return numerators, denom // common


def coefficient_table(A: SymTensor, r: int) -> tuple[tuple[Exponent, ...], list[int], int]:
    """Every coefficient of P(y) at level r: the exponents theta in
    lexicographic order and, from their brackets of :func:`_brackets` all
    reduced by :func:`_coefficients`, integer numerators over one positive
    denominator."""
    thetas, brackets, denom = _brackets(A, r)
    return (thetas, *_coefficients(thetas, brackets, denom, range(len(thetas))))


def expand_Pr(A: SymTensor, r: int) -> PolyExpansion:
    """Coefficient table of P(y): :func:`coefficient_table`, one Fraction
    per coefficient."""
    thetas, numerators, denom = coefficient_table(A, r)
    return PolyExpansion(A.n, A.d, r, {
        theta: Fraction(v, denom) for theta, v in zip(thetas, numerators)})


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
    else is computed.  Otherwise :func:`_coefficients` reduces the negative
    brackets, and the worst coefficient is the most negative of them, the
    lexicographically first on a tie."""
    thetas, brackets, denom = _brackets(A, r)
    negative = np.flatnonzero(brackets < 0).tolist()
    if not negative:
        return CoefficientVerdict(True, r)
    numerators, denom = _coefficients(thetas, brackets, denom, negative)
    worst = min(range(len(negative)), key=numerators.__getitem__)
    return CoefficientVerdict(False, r, thetas[negative[worst]],
                              Fraction(numerators[worst], denom))
