"""The exact checks that ``verify`` trusts: a witness re-evaluated on the
form, and an SOS refutation re-checked on a level's exact parts, which the
SOS solver also calls on its candidates.  No numpy and no solver module
(soscone, faces, polycone, gridcone, partition) is imported here.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .docio import DocumentError, parse_scalar, scalar_text
from .tensor import SymTensor, eval_form

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
