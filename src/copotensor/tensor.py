"""Canonical storage for symmetric tensors of order d and dimension n.

Entries are keyed by sorted (non-decreasing) 1-based index tuples; a single
default value covers every canonical tuple absent from the map, which matches
the "value v otherwise" shape of the motivating examples.  Every stored value
is an exact ``fractions.Fraction``: ints and Fractions convert as they are, a
float keeps its exact binary value (0.1 is 3602879701896397/2^55), and NaN,
infinities and non-numbers raise ValueError.
A's one integer form, :func:`scaled_terms` (the default in closed form and
one term per stored entry that differs), is built once per tensor and kept
as :attr:`SymTensor.integer_form`.  It serves form evaluation, the grid, the
coefficient brackets and the screen's face descent; the simplicial Bernstein
table of the partition cones and the certifier starts from the dense
:func:`scaled_values` instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .combinatorics import (binomial_at_most, check_enumeration_size, index_runs,
                            multinomial)

Scalar = Fraction | int | float
Index = tuple[int, ...]
# (L, default * L, terms (w, runs)): see scaled_terms
IntegerForm = tuple[int, int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]


def _exact(value: object) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational) or (isinstance(value, float) and math.isfinite(value)):
        return Fraction(value)
    raise ValueError(f"tensor value {value!r} is not an int, Fraction or finite float")


def canonicalize(idx: Sequence[int], n: int) -> Index:
    """Sort an index tuple into canonical non-decreasing form.

    Raises ValueError if any component falls outside 1..n.
    """
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"index component {i} out of range 1..{n}")
    return tuple(sorted(idx))


def canonical_tuples(n: int, d: int) -> Iterator[Index]:
    """All sorted index tuples of length d over 1..n, lexicographic order."""
    return itertools.combinations_with_replacement(range(1, n + 1), d)


@dataclass(frozen=True)
class SymTensor:
    """Immutable symmetric tensor; mutate through :class:`SymTensorBuilder`.

    The default and every entry are stored as exact Fractions.
    """

    n: int
    d: int
    entries: Mapping[Index, Fraction] = field(default_factory=dict)
    default: Fraction = Fraction(0)

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        for key in self.entries:
            if len(key) != self.d:
                raise ValueError(f"key {key} has length {len(key)}, expected {self.d}")
            # a non-decreasing tuple with both ends in 1..n is canonical; any
            # other key gets canonicalize's range error or the one below
            if not (type(key) is tuple and all(map(operator.le, key, key[1:]))
                    and 1 <= key[0] and key[-1] <= self.n) \
                    and canonicalize(key, self.n) != key:
                raise ValueError(f"key {key} is not in canonical sorted form")
        object.__setattr__(self, "default", _exact(self.default))
        object.__setattr__(self, "entries", MappingProxyType(
            {key: _exact(v) for key, v in self.entries.items()}))

    def get(self, idx: Sequence[int]) -> Fraction:
        key = canonicalize(idx, self.n)
        if len(key) != self.d:
            raise ValueError(f"index length {len(key)} does not match order {self.d}")
        return self.entries.get(key, self.default)

    def items(self) -> Iterator[tuple[Index, Fraction]]:
        """All (canonical tuple, value) pairs, defaults included, lex order."""
        for key in canonical_tuples(self.n, self.d):
            yield key, self.entries.get(key, self.default)

    def diag_vector(self) -> tuple[Fraction, ...]:
        return tuple(self.get((i,) * self.d) for i in range(1, self.n + 1))

    @functools.cached_property
    def integer_form(self) -> IntegerForm:
        """:func:`scaled_terms` of this tensor, built on first use."""
        return scaled_terms(self)


class SymTensorBuilder:
    """The only mutation path; produces immutable SymTensor values."""

    def __init__(self, n: int, d: int, default: Scalar = 0):
        if n < 1 or d < 1:
            raise ValueError("n and d must be positive")
        self.n = n
        self.d = d
        self.default = default
        self._entries: dict[Index, Scalar] = {}

    def set(self, idx: Sequence[int], value: Scalar) -> "SymTensorBuilder":
        if len(idx) != self.d:
            raise ValueError(f"index length {len(idx)} does not match order {self.d}")
        self._entries[canonicalize(idx, self.n)] = value
        return self

    def build(self) -> SymTensor:
        return SymTensor(self.n, self.d, dict(self._entries), self.default)


def from_matrix(rows: Sequence[Sequence[Scalar]]) -> SymTensor:
    """Order-2 tensor from a symmetric matrix given as nested rows."""
    n = len(rows)
    b = SymTensorBuilder(n, 2)
    for i in range(n):
        if len(rows[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(i, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix is not symmetric")
            if rows[i][j] != 0:
                b.set((i + 1, j + 1), rows[i][j])
    return b.build()


def check_tuple_count(A: SymTensor) -> None:
    """Raise ValueError when A has more than MAX_ENUMERATION canonical tuples."""
    check_enumeration_size(binomial_at_most(A.n + A.d - 1, A.d), "canonical tuple count")


def scaled_values(A: SymTensor) -> tuple[int, list[int]]:
    """The lcm L of the denominators of A's default and of its values, and
    the values in canonical tuple order times L, as ints.  More than
    MAX_ENUMERATION canonical tuples raise ValueError before any value is
    built."""
    check_tuple_count(A)
    values = [a for _, a in A.items()]
    scale = math.lcm(A.default.denominator, *(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def scaled_terms(A: SymTensor) -> IntegerForm:
    """A's one integer form: the lcm L of the denominators of the default and
    the stored values, default * L, and for each stored a != default, in
    canonical order, (w, runs) with w = multiplicity * (a - default) * L and
    runs the pairs (i, e) of a 0-based index i and its count e in the key.
    L f(x) is then default * L * (sum x)^d plus w * prod x_i^e per term."""
    scale = math.lcm(A.default.denominator, *(a.denominator for a in A.entries.values()))
    default = A.default.numerator * (scale // A.default.denominator)
    terms = []
    for key, a in sorted(A.entries.items()):
        delta = a.numerator * (scale // a.denominator) - default
        if delta:
            runs = tuple((i - 1, e) for i, e in index_runs(key))
            terms.append((multinomial([e for _, e in runs]) * delta, runs))
    return scale, default, tuple(terms)


def eval_form(A: SymTensor, x: Sequence[Scalar]) -> Fraction:
    """The associated homogeneous form: sum over all n^d index tuples of
    a_{i_1..i_d} x_{i_1}...x_{i_d}, exactly (a float coordinate counts at
    its exact binary value).

    On the integers p = q x, q the lcm of the coordinates' denominators,
    this is :func:`scaled_terms`' form at p over L q^d: one power of sum p
    for the default and, per term whose indices all lie in the support of
    p (its nonzero coordinates), one power per run.  The work is linear in
    the stored entries, whatever n is, and a few big powers for a huge d.
    """
    if len(x) != A.n:
        raise ValueError(f"vector has dimension {len(x)}, tensor has n={A.n}")
    coords = {i: Fraction(c) for i, c in enumerate(x) if c != 0}
    q = math.lcm(*(c.denominator for c in coords.values()))
    p = {i: c.numerator * (q // c.denominator) for i, c in coords.items()}
    scale, default, terms = A.integer_form
    total = default * sum(p.values()) ** A.d if default else 0
    for w, runs in terms:
        if all(i in p for i, _ in runs):
            for i, e in runs:
                w *= p[i] ** e
            total += w
    return Fraction(total, scale * q ** A.d)


@dataclass(frozen=True)
class ScreenResult:
    passed: bool
    reason: str | None = None
    witness_index: Index | None = None
    witness: tuple[Fraction, ...] | None = None   # orthant point, form < 0
    witness_value: Fraction | None = None


def _face_roles(key: Index, d: int) -> Iterator[tuple[int, int]]:
    """The pairs (i, j), i != j, with key the canonical form of
    (i,) * (d - 1) + (j,); both orders of an off-diagonal key when d = 2."""
    first, last = key[0], key[-1]
    if first == last:
        return
    if key.count(first) == d - 1:
        yield first, last
    if key.count(last) == d - 1:
        yield last, first


def necessary_screen(A: SymTensor) -> ScreenResult:
    """Necessary conditions for copositivity; a fail proves non-copositivity.

    Fails when some diagonal entry is negative, or when a zero diagonal entry
    at index i coexists with a negative entry a_{i^(d-1) j}: along
    e_i + t e_j the form is d * a_{i^(d-1) j} * t + O(t^2).  Other mixed
    entries involving i are not constrained by a zero diagonal when d >= 3.
    The first such (i, j) in index order is reported.  A fail carries a
    witness and the form's value there: e_i and a_{i...i} for a negative
    diagonal, and e_i + t e_j with t = 1/2^k, halved until the form is
    negative, for a zero one (the linear term dominates for small t, so the
    halving stops).  The work is linear in n and in the number of stored
    entries: an unstored mixed entry equals the default, so only a negative
    default makes one a candidate.
    """
    n, d, entries, default = A.n, A.d, A.entries, A.default

    def unit(i: int) -> list[Fraction]:
        point = [Fraction(0)] * n
        point[i - 1] = Fraction(1)
        return point

    # a sorted key is diagonal when its ends agree
    diag = [default] * n
    for key, a in entries.items():
        if key[0] == key[-1]:
            diag[key[0] - 1] = a
    for i, a in enumerate(diag, start=1):
        if a < 0:
            return ScreenResult(False, f"diagonal entry at index {i} is negative",
                                (i,) * d, tuple(unit(i)), a)
    if d == 1:
        return ScreenResult(True)   # a linear form: the diagonal decides
    if default < 0:
        # every diagonal is stored, and the scan for an i stops at the first
        # j whose entry is unstored, so this is linear in the stored entries
        pairs = ((i, j) for i, a in enumerate(diag, start=1) if a == 0
                 for j in range(1, n + 1) if j != i)
    else:
        pairs = sorted((i, j) for key, a in entries.items() if a < 0
                       for i, j in _face_roles(key, d) if diag[i - 1] == 0)
    for i, j in pairs:
        key = canonicalize((i,) * (d - 1) + (j,), n)
        if entries.get(key, default) < 0:
            k, value = _face_descent(A, i, j)
            point = unit(i)
            point[j - 1] = Fraction(1, 1 << k)
            return ScreenResult(
                False, f"zero diagonal at index {i} with negative mixed entry {key}",
                key, tuple(point), value)
    return ScreenResult(True)


def _face_descent(A: SymTensor, i: int, j: int) -> tuple[int, Fraction]:
    """The least k >= 0 with f(e_i + 2^-k e_j) < 0, and that value, for a
    zero a_{i...i} and a negative a_{i^(d-1) j}.

    On the face, L f(e_i + t e_j) is default * L * (1 + t)^d plus w t^c for
    each term of :func:`scaled_terms` with runs (i, d - c), (j, c), its
    weight already C(d, c) (a - default) L.  At t = 2^-k, times 2^(dk), that
    is the integer default L (2^k + 1)^d + sum w 2^(k (d - c)).
    """
    scale, default, terms = A.integer_form
    face = [(dict(runs).get(i - 1, 0), w) for w, runs in terms
            if all(k in (i - 1, j - 1) for k, _ in runs)]
    k = 0
    while (total := default * ((1 << k) + 1) ** A.d
           + sum(w << (k * e) for e, w in face)) >= 0:
        k += 1
    return k, Fraction(total, scale << (A.d * k))
