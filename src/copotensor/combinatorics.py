"""Multinomial coefficients, exponent-vector enumeration and the size
limits every hierarchy level is checked against.

Everything here is exact big-integer arithmetic; for n = 4 and total degree
around 10 the multinomials already overflow 64 bits.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Sequence


# The most exponent vectors, grid points or monomials one hierarchy level
# may enumerate; larger levels are refused before any enumeration starts.
MAX_ENUMERATION = 10_000

# The most cells (vectors times n) one exponent table may hold; within
# MAX_ENUMERATION, order >= 2 reaches at most 9870 x 140 = 1 381 800.
MAX_TABLE_CELLS = 2_000_000

# Size checks count exactly up to COUNT_CAP; beyond it a count is only known
# to be larger, which every limit here needs (see binomial_at_most).
COUNT_CAP = 10 ** 12

# The largest matrix (order-2 tensor) that certify decides by scanning its
# principal submatrices: up to 2^n - 1 of them, each inverted exactly, which
# for the worst case, (n + 1) I - J with a negative entry in every row, takes
# about a third of a second at n = 12 on a shared 2-vCPU VM, and 2.5 times
# longer per added row.
MAX_SCAN_DIMENSION = 12

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


def index_runs(idx: Iterable[int]) -> list[tuple[int, int]]:
    """Each distinct index of an index tuple with its occurrence count, in
    order of first appearance: the runs of equal indices, in index order,
    for a sorted tuple."""
    counts: dict[int, int] = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    return list(counts.items())


@lru_cache(maxsize=None)
def enumerate_exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All compositions of d into n non-negative parts, lexicographic order.

    Length is binomial(n+d-1, d): the gaps between n - 1 bars among n + d - 1
    slots, bars in lexicographic order.  A table of more than MAX_TABLE_CELLS
    cells raises ValueError before it is built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    cells = binomial_at_most(n + d - 1, d) * n
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"exponent table of {count_text(cells)} cells exceeds "
                         f"the limit of {MAX_TABLE_CELLS}")
    slots = n + d - 1
    return tuple(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
                 for bars in itertools.combinations(range(slots), n - 1))


def multinomials(thetas: Iterable[Sequence[int]]) -> list[int]:
    """multinomial(theta) for each theta, all parts non-negative: the product
    of C(theta_1 + ... + theta_k, theta_k) over k >= 2, each read from the
    row C(t, 0..t), built once for each t that occurs by
    C(t, j + 1) = C(t, j) (t - j) / (j + 1).  :func:`multinomial` forms each
    binomial anew, and one C(9999, 5000) takes milliseconds."""
    rows: dict[int, list[int]] = {}
    out = []
    for theta in thetas:
        total, value = theta[0], 1
        for a in theta[1:]:
            total += a
            if total not in rows:
                row = [1]
                for j in range(total):
                    row.append(row[-1] * (total - j) // (j + 1))
                rows[total] = row
            value *= rows[total][a]
        out.append(value)
    return out


def falling_factorial_column(s: int, c: int) -> list[int]:
    """fall(t, c) for t = 0..s: zero below c, c! at c, and then one
    multiplication and one exact division per entry, by
    fall(t, c) = fall(t-1, c) t / (t-c)."""
    if c > s:
        return [0] * (s + 1)
    column = [0] * c + [math.factorial(c)]
    for t in range(c + 1, s + 1):
        column.append(column[-1] * t // (t - c))
    return column
