"""JSON document formats: tensors in, certificates out.

Rational values travel as strings ("p/q" or a decimal literal) so that exact
paths never pass through floats.  The canonical text that :func:`emit_scalar`
writes, an optional "-", ASCII digits and optionally "/" and ASCII digits, is
read with ``int()``; every other literal (a decimal, an exponent, whitespace,
"+", "_" or non-ASCII digits) goes to ``Fraction``, which reads the canonical
text to the same value.  A JSON number is taken at its exact binary value,
and NaN or infinity is rejected.  The sizes n and d and every index
component must be JSON integers; nothing is truncated or converted.
:func:`parse_tensor` checks each index once and hands its entries straight
to ``SymTensor``.  Certificates carry the input tensor's digest so a later
`verify` run can re-check a witness, or an SOS refutation's moments, with no
access to the producing run's state.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from typing import Any

from .combinatorics import KEY_CACHE_SIZE, binomial_at_most
from .tensor import Index, Scalar, SymTensor, canonical_tuples

TOOL_VERSION = "0.2.0"
# the largest n and d a document may declare: the screen builds n-long
# lists and d-long index tuples before it reads an entry
MAX_SIZE = 10 ** 6


class DocumentError(ValueError):
    """Malformed tensor or certificate document."""


def parse_scalar(value: Any) -> Scalar:
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            if value.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() \
                    and (not slash or den.isdigit()):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational string {value!r}") from exc
    if isinstance(value, bool):
        raise DocumentError(f"bad scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DocumentError(f"bad scalar: {value!r}")
        return Fraction(value)
    raise DocumentError(f"bad scalar: {value!r}")


def emit_scalar(value: Scalar) -> str:
    """The exact value as "p/q", or "p" when it is an integer."""
    return str(value if type(value) is Fraction else Fraction(value))


def scalar_text(value: Scalar) -> str | None:
    """:func:`emit_scalar`, or None for a value past Python's limit on the
    digits of an int's decimal text (4300 by default)."""
    try:
        return emit_scalar(value)
    except ValueError:
        return None


def parse_tensor(text: str) -> SymTensor:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("tensor document must be a JSON object")
    n, d = doc.get("n"), doc.get("d")
    # `type(...) is int` turns away floats, strings and bools alike
    if type(n) is not int or type(d) is not int:
        raise DocumentError("document needs integer fields 'n' and 'd'")
    if max(n, d) > MAX_SIZE:
        raise DocumentError(f"n = {n}, d = {d}: one exceeds the limit {MAX_SIZE}")
    default = parse_scalar(doc.get("default", 0))
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rows = doc.get("entries", [])
    if not isinstance(rows, list):
        raise DocumentError(f"'entries' must be a JSON array, not {rows!r}")
    # each index is checked once here, and SymTensor only re-reads its
    # length, order and ends
    entries: dict[tuple[int, ...], Fraction] = {}
    for entry in rows:
        try:
            idx = tuple(entry["idx"])
            val = parse_scalar(entry["val"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"bad entry {entry!r}") from exc
        if any(type(i) is not int for i in idx):
            raise DocumentError(f"bad entry {entry!r}: index components must be integers")
        if len(idx) != d:
            raise DocumentError(f"index {idx} has length {len(idx)}, expected {d}")
        # the sorted index's ends bound every component
        ordered = tuple(sorted(idx))
        if ordered[0] < 1 or ordered[-1] > n:
            raise DocumentError(f"index {idx} out of range 1..{n}")
        if ordered != idx:
            raise DocumentError(f"index {idx} is not sorted non-decreasing")
        if idx in entries:
            raise DocumentError(f"duplicate canonical index {idx}")
        entries[idx] = val
    return SymTensor(n, d, entries, default)


def emit_tensor(A: SymTensor) -> str:
    doc = {"n": A.n, "d": A.d, "default": emit_scalar(A.default),
           "entries": [{"idx": list(k), "val": emit_scalar(v)}
                       for k, v in sorted(A.entries.items())]}
    return json.dumps(doc, indent=2)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _key_text(key: Index) -> str:
    """A key's digest text "i,j,k"; built once per key.  The indices are
    written as integers ("%d"), so that keys that are equal, such as
    (True, 2) and (1, 2), get the same text whichever came first."""
    return ("%d," * len(key))[:-1] % key


def tensor_digest(A: SymTensor) -> str:
    """sha256 over a canonical serialization; stable across entry order,
    across storing vs defaulting equal values and across the choice of
    default.  The serialization's default is the most common value over the
    C(n+d-1, d) canonical tuples, the least on a tie, and it lists every
    tuple whose value differs.  A default that covers more than half the
    tuples is the most common, and is taken without counting; else the
    tuples number at most twice the stored entries."""
    # SymTensor stores exact Fractions, so str writes each as emit_scalar
    # does; values are counted and compared as these texts, which hash
    # faster than Fractions
    texts = {key: str(v) for key, v in A.entries.items()}
    default = str(A.default)
    total = binomial_at_most(A.n + A.d - 1, A.d, 2 * len(texts))
    if total <= 2 * len(texts):
        counts = Counter(texts.values())
        counts[default] += total - len(texts)
        top = max(counts.values())
        value = dict(zip(texts.values(), A.entries.values()))
        value[default] = A.default
        least = str(min(value[t] for t, c in counts.items() if c == top))
        if least != default and total > len(texts):
            texts = {key: texts.get(key, default) for key in canonical_tuples(A.n, A.d)}
        default = least
    parts = [f"n={A.n}", f"d={A.d}", f"default={default}"]
    parts += [f"{_key_text(key)}:{t}" for key, t in sorted(texts.items()) if t != default]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def certificate_document(verdict: str, method: str, *,
                         level: int | None = None,
                         depth: int | None = None,
                         witness: tuple[Scalar, ...] | None = None,
                         witness_value: Scalar | None = None,
                         stats: dict[str, Any] | None = None,
                         moments: dict[tuple[int, ...], Scalar] | None = None,
                         tensor: SymTensor) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "verdict": verdict,
        "method": method,
        "tool_version": TOOL_VERSION,
        "input_digest": tensor_digest(tensor),
    }
    if level is not None:
        doc["level"] = level
    if depth is not None:
        doc["depth"] = depth
    if witness is not None:
        doc["witness"] = {"point": [emit_scalar(c) for c in witness]}
        # a value too long to write is left out; verify recomputes it
        if witness_value is not None and (text := scalar_text(witness_value)):
            doc["witness"]["value"] = text
    if stats:
        doc["stats"] = stats
    if moments is not None:
        doc["moments"] = [{"exponent": list(g), "value": emit_scalar(v)}
                          for g, v in sorted(moments.items())]
    return doc


def parse_moments(cert: dict[str, Any]) -> dict[tuple[int, ...], Fraction]:
    """A certificate's ``moments`` array as exponent -> exact value.  A
    missing array, a row that is not an object with an integer ``exponent``
    array and a scalar ``value``, or a repeated exponent raises
    DocumentError."""
    rows = cert.get("moments")
    if not isinstance(rows, list):
        raise DocumentError("certificate has no 'moments' array")
    out: dict[tuple[int, ...], Fraction] = {}
    for row in rows:
        try:
            exponent = row["exponent"]
            value = parse_scalar(row["value"])
        except (KeyError, TypeError) as exc:
            raise DocumentError(f"bad moment {row!r}") from exc
        if not isinstance(exponent, list) or any(type(e) is not int for e in exponent):
            raise DocumentError(f"bad moment {row!r}: exponent must be an integer array")
        if tuple(exponent) in out:
            raise DocumentError(f"duplicate moment exponent {exponent}")
        out[tuple(exponent)] = value
    return out


def load_certificate(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "verdict" not in doc or "input_digest" not in doc:
        raise DocumentError("not a certificate document")
    return doc
