"""Inner hierarchy based on non-negative coefficients.

Level r tests whether every coefficient of P(y) = f_A(y o y) (sum y_k^2)^r is
non-negative.  Coefficients are indexed by exponent vectors theta of degree
s = r + d (the monomial y^(2 theta)) and are exact.  The production route,
:func:`_brackets`, evaluates an integer falling-factorial bracket B(theta)
for every theta at once from A's one integer form
:func:`tensor.scaled_terms`: the default's closed form shared by every
bracket, and one column per stored entry that differs from it, so the cost
is linear in the stored entries, not in the C(n+d-1, d) canonical tuples.
The columns run on np.int64 when the bound
(|default * L| + sum_t |w_t|) * fall(s, d) <= 2^63 - 1 proves that no
partial product or sum overflows, and on numpy object arrays of Python ints
above it.  The bound holds by Vandermonde's identity:
fall(s, d) = sum over c of multinomial(c) * prod_i fall(theta_i, c_i), so
every product prod_i fall(theta_i, c_i), every prefix of it and every
falling-factorial column entry is at most fall(s, d), and each partial
column or sum is at most the bound.
One reduction, :func:`_coefficients`, turns brackets into coefficients
multinomial(theta) * B(theta) / D on Python ints: :func:`member_C_r` reads
only the signs of the brackets on a Member level and reduces the negative
ones on a NotMember one, and :func:`coefficient_table` reduces all of them,
for ``expand`` and for every level of the SOS hierarchy (``soscone``).
A level with more than ``combinatorics.MAX_ENUMERATION`` coefficients or
canonical tuples raises ValueError before anything is enumerated; for
n = 1 the same limit bounds fall(s, d)'s d factors and each column's s + 1
entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .combinatorics import (binomial_at_most, check_enumeration_size,
                            enumerate_exponents, falling_factorial_column,
                            multinomials)
from .tensor import SymTensor, check_tuple_count

Exponent = tuple[int, ...]

INT64_MAX = 2 ** 63 - 1


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
    :func:`scaled_terms` adds its weight w times one column product per run,
    indexed by the theta table.

    The same identity bounds every value formed here: each product
    prod_i fall(theta_i, c_i) is at most fall(s, d) / multinomial(c), each
    prefix of it (the identity over fewer parts) at most fall(s, d), and
    each column entry fall(t, c) <= fall(s, c) <= fall(s, d).  Every
    partial column is then at most |w| * fall(s, d), and every partial sum
    at most (|default * L| + sum |w|) * fall(s, d).  When that is at most
    2^63 - 1 the arrays are np.int64, exact; above it they hold Python
    ints.  The caller turns the brackets it reads into Python ints.
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
    bound = (abs(default) + sum(abs(w) for w, _ in terms)) * fall_s
    dtype = np.int64 if bound <= INT64_MAX else object
    brackets = np.full(len(thetas), default * fall_s, dtype=dtype)
    columns: dict[int, np.ndarray] = {}   # fall(t, c) for t = 0..s, per c
    factors: dict[tuple[int, int], np.ndarray] = {}   # fall(theta_i, c) per (i, c)
    for column, runs in terms:
        for i, c in runs:
            if (i, c) not in factors:
                if c not in columns:
                    columns[c] = np.array(falling_factorial_column(s, c), dtype=dtype)
                factors[i, c] = columns[c][table[:, i]]
            column = column * factors[i, c]
        brackets += column
    return thetas, brackets, fall_s * scale


def _coefficients(thetas: Sequence[Exponent], brackets: Sequence[int],
                  denom: int) -> tuple[list[int], int]:
    """multinomial(theta) * B / D for each theta and its bracket B, both
    Python ints, as numerators over one denominator, with the gcd of D and
    the brackets divided out first and binomial rows shared: a huge order
    multiplies small factors."""
    common = math.gcd(denom, *brackets)
    numerators = [m * (b // common) for b, m in zip(brackets, multinomials(thetas))]
    return numerators, denom // common


def coefficient_table(A: SymTensor, r: int) -> tuple[tuple[Exponent, ...], list[int], int]:
    """Every coefficient of P(y) at level r: the exponents theta in
    lexicographic order and, from their brackets of :func:`_brackets` all
    reduced by :func:`_coefficients`, integer numerators over one positive
    denominator."""
    thetas, brackets, denom = _brackets(A, r)
    return (thetas, *_coefficients(thetas, brackets.tolist(), denom))


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
    negative = np.flatnonzero(brackets < 0)
    if not negative.size:
        return CoefficientVerdict(True, r)
    picked = [thetas[k] for k in negative.tolist()]
    numerators, denom = _coefficients(picked, brackets[negative].tolist(), denom)
    worst = min(range(len(picked)), key=numerators.__getitem__)
    return CoefficientVerdict(False, r, picked[worst], Fraction(numerators[worst], denom))
