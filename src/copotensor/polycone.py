"""Inner hierarchy based on non-negative coefficients.

Level r tests whether every coefficient of P(y) = f_A(y o y) (sum y_k^2)^r is
non-negative.  Coefficients are indexed by exponent vectors theta of degree
s = r + d (the monomial y^(2 theta)) and computed exactly in rationals, as
every tensor value is a Fraction.  :func:`expand_Pr` is the production route;
:func:`expand_Pr_closed_form` reproduces the paper's closed form and serves
as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .combinatorics import (elementary_symmetric, enumerate_exponents,
                            falling_factorial, index_counts, multinomial,
                            tuple_multiplicity)
from .tensor import SymTensor

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


def _shifted(theta: Exponent, counts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(t - c for t, c in zip(theta, counts))


def expand_Pr(A: SymTensor, r: int) -> PolyExpansion:
    """Coefficient table of P(y) via the shifted-multinomial sum.

    For each theta of degree r+d the coefficient is the sum over all index
    tuples of multinomial(theta - e_{i_1} - ... - e_{i_d}) * a_{i_1..i_d};
    iterated over canonical tuples with permutation multiplicities.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    terms = [(index_counts(key, A.n), tuple_multiplicity(key) * a)
             for key, a in A.items() if a != 0]
    coeffs: dict[Exponent, Fraction] = {}
    for theta in enumerate_exponents(A.n, r + A.d):
        total = Fraction(0)
        for counts, wa in terms:
            c = multinomial(_shifted(theta, counts))
            if c:
                total += c * wa
        coeffs[theta] = total
    return PolyExpansion(A.n, A.d, r, coeffs)


def expand_Pr_closed_form(A: SymTensor, r: int) -> PolyExpansion:
    """Coefficient table via the closed form in theta.

    Writing s = r + d and omega = theta, each coefficient equals

        c(theta)/(s(s-1)...(s-d+1)) * [ <A, theta^d>
            + sum_{k=1}^{d-1} (-1)^k e_k(1..d-1) <A, Diag(theta^(d-k))>
            + repeated-off-diagonal correction ]

    The e_k corrections turn the diagonal weights theta_i^d into falling
    factorials theta_i (theta_i - 1) ... (theta_i - d + 1).  Off-diagonal
    tuples that repeat an index need the same falling-factorial treatment,
    so the final bracket is the correction from power weights to falling
    factorials on those tuples.  Agrees exactly with :func:`expand_Pr`.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    d = A.d
    if d < 2:
        raise ValueError("closed form requires d >= 2")
    s = r + d
    denom = falling_factorial(s, d)
    betas = [elementary_symmetric(k, d - 1) for k in range(d)]
    terms = []
    for key, a in A.items():
        if a == 0:
            continue
        counts = index_counts(key, A.n)
        mult = tuple_multiplicity(key)
        terms.append((counts, mult * a))
    coeffs: dict[Exponent, Fraction] = {}
    for theta in enumerate_exponents(A.n, s):
        bracket = Fraction(0)
        # diagonal entries: sum_k (-1)^k beta_k theta_i^(d-k) = fall(theta_i, d)
        for i in range(A.n):
            a = A.get((i + 1,) * d)
            if a == 0:
                continue
            w = sum((-1) ** k * betas[k] * theta[i] ** (d - k) for k in range(d))
            bracket += a * w
        # off-diagonal tuples: product of per-index falling factorials
        for counts, wa in terms:
            if max(counts) == d:
                continue  # diagonal, handled above
            w = 1
            for t, c in zip(theta, counts):
                if c:
                    w *= falling_factorial(t, c)
                    if w == 0:
                        break
            if w:
                bracket += wa * w
        coeffs[theta] = Fraction(multinomial(theta), denom) * bracket
    return PolyExpansion(A.n, d, r, coeffs)


@dataclass(frozen=True)
class CoefficientVerdict:
    member: bool
    r: int
    expansion: PolyExpansion
    worst_theta: Exponent | None = None
    worst_value: Fraction | None = None


def member_C_r(A: SymTensor, r: int) -> CoefficientVerdict:
    """Membership in the non-negative-coefficient cone at level r, decided
    exactly: the lexicographically first most negative coefficient is the
    worst, and the tensor is a member when it is >= 0."""
    exp = expand_Pr(A, r)
    worst_theta = min(enumerate_exponents(A.n, r + A.d), key=exp.coeffs.__getitem__)
    worst_value = exp.coeffs[worst_theta]
    if worst_value < 0:
        return CoefficientVerdict(False, r, exp, worst_theta, worst_value)
    return CoefficientVerdict(True, r, exp)
