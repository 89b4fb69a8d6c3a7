"""The exact checks that ``verify`` trusts: a witness re-evaluated on the
form, a Copositive claim re-derived from the entries' signs or, for a
matrix, by the principal-submatrix scan that ``certify`` also decides
matrices with, and an SOS refutation re-checked on a level's exact parts,
which the SOS solver also calls on its candidates.  No numpy and no solver
module (soscone, faces, polycone, gridcone, partition) is imported here.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Any, Mapping, NamedTuple, Sequence

from .combinatorics import MAX_SCAN_DIMENSION
from .docio import DocumentError, parse_scalar, scalar_text
from .tensor import SymTensor, eval_form, scaled_values

Exponent = tuple[int, ...]


def check_witness(A: SymTensor, cert: dict[str, Any]) -> tuple[bool, str]:
    """Whether the certificate's witness point is non-negative, with the form
    negative there and equal to the witness's value if given, and that value
    as detail; DocumentError unless it has a point array of scalars."""
    witness = cert.get("witness")
    if not isinstance(witness, dict) or not isinstance(witness.get("point"), list):
        raise DocumentError(f"certificate witness {witness!r} is not an "
                            "object with a 'point' array")
    # each distinct coordinate is parsed and sign-checked once; the key
    # holds the type so that true is not taken for 1
    try:
        parsed = dict.fromkeys((type(c), c) for c in witness["point"])
    except TypeError as exc:   # an array or object coordinate
        raise DocumentError(f"certificate witness coordinate: {exc}") from exc
    for key in parsed:
        parsed[key] = parse_scalar(key[1])
    point = tuple(parsed[type(c), c] for c in witness["point"])
    value = eval_form(A, point)
    ok = value < 0 and all(c >= 0 for c in parsed.values())
    if "value" in witness:
        ok = ok and value == parse_scalar(witness["value"])
    return ok, f"witness value {scalar_text(value) or 'too long to print'}"


class ScanResult(NamedTuple):
    subsets: int                                 # principal submatrices inverted
    witness: tuple[Fraction, ...] | None = None  # the refuting point, if any
    value: Fraction | None = None                # the form there


def scan_principal_submatrices(n: int, scale: int, values: Sequence[int]) -> ScanResult:
    """Whether the symmetric matrix A is copositive, by Cottle, Habetler &
    Lemke (1970): it is unless some principal submatrix A_S is invertible
    with A_S^-1 <= 0 entrywise, and then x = -A_S^-1 1, zero off S, is
    positive on S with x^T A x = 1^T A_S^-1 1 < 0.

    ``values`` are L A's entries a_ij, i <= j, in canonical order, L = scale
    > 0 (:func:`copotensor.tensor.scaled_values` of an order-2 tensor).  The
    sets S are scanned by size, then lexicographically, up to the first
    refutation.  An S with a row of A_S that has no negative entry is
    skipped, since A_S x = -1 with x > 0 needs one in every row.  Every
    other A_S is inverted by fraction-free (Bareiss) Gauss-Jordan
    elimination of [A_S | I] on ints, which ends at [D I | D A_S^-1], D =
    +-det A_S, each division exact; no pivot in a column means singular.  A
    refuting S gives the point x / sum x = y / sum y, y the row sums of
    D A_S^-1, where the form is D / (L sum y).
    """
    a = [[0] * n for _ in range(n)]
    for (i, j), v in zip(itertools.combinations_with_replacement(range(n), 2), values):
        a[i][j] = a[j][i] = v
    negatives = [sum(1 << j for j, v in enumerate(row) if v < 0) for row in a]
    subsets = 0
    for size in range(1, n + 1):
        for S in itertools.combinations(range(n), size):
            mask = sum(1 << i for i in S)
            if not all(negatives[i] & mask for i in S):
                continue
            subsets += 1
            rows = [[a[i][j] for j in S] + [int(i == j) for j in S] for i in S]
            prev = 1
            for c in range(size):
                p = next((r for r in range(c, size) if rows[r][c]), None)
                if p is None:
                    break
                rows[c], rows[p] = rows[p], rows[c]
                pivot_row = rows[c]
                pivot = pivot_row[c]
                for r, row in enumerate(rows):
                    if r != c:
                        f = row[c]
                        rows[r] = [(pivot * x - f * y) // prev
                                   for x, y in zip(row, pivot_row)]
                prev = pivot
            else:
                if all(x * prev <= 0 for row in rows for x in row[size:]):
                    y = [sum(row[size:]) for row in rows]
                    total = sum(y)
                    point = [Fraction(0)] * n
                    for i, v in zip(S, y):
                        point[i] = Fraction(v, total)
                    return ScanResult(subsets, tuple(point), Fraction(prev, scale * total))
    return ScanResult(subsets)


def check_copositive(A: SymTensor, cert: dict[str, Any]) -> tuple[bool, str] | None:
    """A Copositive claim re-derived: true when every entry is non-negative,
    whatever the order; for a matrix of at most MAX_SCAN_DIMENSION rows,
    the answer of :func:`scan_principal_submatrices`; else None, with
    nothing to re-check."""
    scale, values = scaled_values(A)
    if min(values) >= 0:
        return True, "every entry non-negative"
    if A.d != 2 or A.n > MAX_SCAN_DIMENSION:
        return None
    scan = scan_principal_submatrices(A.n, scale, values)
    if scan.witness is None:
        return True, (f"{scan.subsets} principal submatrices inverted, "
                      "none with a non-positive inverse")
    block = [i for i, c in enumerate(scan.witness, start=1) if c]
    return False, (f"principal submatrix {block} has a non-positive inverse, "
                   f"witness value {scan.value}")


def parity_blocks(basis: Sequence[Exponent]) -> tuple[tuple[int, ...], ...]:
    """Basis indices per parity class (exponents mod 2), classes in order."""
    parity: dict[Exponent, list[int]] = {}
    for idx, mono in enumerate(basis):
        parity.setdefault(tuple([e % 2 for e in mono]), []).append(idx)
    return tuple(tuple(v) for _, v in sorted(parity.items()))


def positive_definite(rows: Sequence[Sequence[Fraction | float]],
                      shift: Fraction | float = 0) -> bool:
    """Whether the symmetric matrix with the upper triangle of ``rows``, plus
    ``shift`` times the identity, is positive definite, each entry taken at
    its exact value (a float at its binary one): times the lcm of the
    denominators, a positive integer, with the shift added to that integer
    diagonal, then exact LDL^T in fraction-free (Bareiss) form on the upper
    triangle, whose k-th pivot is the k-th leading principal minor, all
    positive by Sylvester's criterion."""
    ratios = [[x.as_integer_ratio() for x in row[i:]] for i, row in enumerate(rows)]
    sp, sq = shift.as_integer_ratio()
    scale = math.lcm(sq, *(q for row in ratios for _, q in row))
    a = [[0] * i + [p * (scale // q) for p, q in row] for i, row in enumerate(ratios)]
    bump = sp * (scale // sq)
    for k, row in enumerate(a):
        row[k] += bump
    prev = 1
    for k, row_k in enumerate(a):
        pivot = row_k[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            row_i, a_ki = a[i], row_k[i]   # a_ik = a_ki by symmetry
            for j in range(i, len(a)):
                row_i[j] = (row_i[j] * pivot - a_ki * row_k[j]) // prev
        prev = pivot
    return True


def check_refutation(basis: Sequence[Exponent], numerators: Sequence[int],
                     blocks: Sequence[Sequence[int]],
                     moments: Mapping[Exponent, Fraction]) -> bool:
    """Whether ``moments`` prove that P^(r) has no Gram decomposition, from
    the level's basis theta, P's coefficients of y^(2 theta) as integer
    numerators over one positive denominator and the basis's parity blocks:
    one value per exponent 2 theta and no other, sum of moment times
    numerator negative (the sign of L(P)) and every block's moment matrix
    [L(y^(b_i + b_j))] positive definite."""
    keys = [tuple([2 * t for t in theta]) for theta in basis]
    if moments.keys() != set(keys):
        return False
    moments = {g: Fraction(m) for g, m in moments.items()}
    if sum(moments[g] * c for g, c in zip(keys, numerators)) >= 0:
        return False
    return all(positive_definite([[moments[tuple(map(operator.add, basis[a], basis[b]))]
                                   for b in members] for a in members])
               for members in blocks)
