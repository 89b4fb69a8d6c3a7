"""Multinomial coefficients, exponent-vector enumeration and the size
limits every hierarchy level is checked against.

Everything here is exact big-integer arithmetic; for n = 4 and total degree
around 10 the multinomials already overflow 64 bits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence


# The most exponent vectors, grid points or monomials one hierarchy level
# may enumerate; larger levels are refused before any enumeration starts.
MAX_ENUMERATION = 10_000

# Size checks count exactly up to COUNT_CAP; beyond it a count is only known
# to be larger, which every limit here needs (see binomial_at_most).
COUNT_CAP = 10 ** 12

# The SOS solver's default iteration budget per level; kept here, with the
# other limits, so that the CLI parser sets it without loading the solver.
DEFAULT_MAX_ITERS = 20000


def binomial_at_most(n: int, k: int, cap: int = COUNT_CAP) -> int:
    """C(n, k) when it is at most ``cap``, else cap + 1.

    The partial products C(n - k + i, i), i = 1..k (k taken as the smaller of
    k and n - k), at least double at each step and end at C(n, k), so the
    multiplying stops once one passes cap: a few dozen steps, where the exact
    C(800000, 400000) has 240 000 digits.
    """
    if not 0 <= k <= n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
        if out > cap:
            return cap + 1
    return out


def count_text(count: int) -> str:
    """A size for a message: the count itself up to COUNT_CAP."""
    return str(count) if count <= COUNT_CAP else f"more than {COUNT_CAP}"


def check_enumeration_size(count: int, what: str) -> None:
    """Raise ValueError when ``count`` items would exceed MAX_ENUMERATION;
    a count above COUNT_CAP is reported as more than it."""
    if count > MAX_ENUMERATION:
        raise ValueError(f"{what}: {count_text(count)} exceeds the limit of "
                         f"{MAX_ENUMERATION}")


def multinomial(alpha: Sequence[int]) -> int:
    """Multinomial coefficient ``(sum alpha)! / prod(alpha_i!)``.

    Returns 0 if any component is negative, matching the convention used by
    the polynomial-expansion machinery (shifted exponent vectors routinely
    leave the non-negative orthant and must contribute nothing).  It is the
    product of the binomials C(alpha_1 + ... + alpha_k, alpha_k), so no
    factorial is formed: a single part of 10**6 costs nothing, where
    factorial(10**6) takes seconds.
    """
    total, out = 0, 1
    for a in alpha:
        if a < 0:
            return 0
        total += a
        out *= math.comb(total, a)
    return out


def tuple_multiplicity(idx: Sequence[int]) -> int:
    """Number of distinct permutations of an index tuple: d!/prod(count_i!)."""
    counts: dict[int, int] = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    return multinomial(list(counts.values()))


@lru_cache(maxsize=None)
def enumerate_exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All compositions of d into n non-negative parts, lexicographic order.

    Length is binomial(n+d-1, d).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d + 1):
        for rest in enumerate_exponents(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


def falling_factorial(x: int, k: int) -> int:
    """x (x-1) ... (x-k+1); empty product for k = 0."""
    out = 1
    for j in range(k):
        out *= x - j
    return out


def index_counts(idx: Iterable[int], n: int) -> tuple[int, ...]:
    """Occurrence counts of each index 1..n in an index tuple."""
    counts = [0] * n
    for i in idx:
        counts[i - 1] += 1
    return tuple(counts)
