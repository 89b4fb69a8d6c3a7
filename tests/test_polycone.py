import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from copotensor import combinatorics, polycone
from copotensor.cli import main
from copotensor.combinatorics import enumerate_exponents, multinomial
from copotensor.docio import TOOL_VERSION
from copotensor.oracle import expand_bruteforce, simplex_grid_min
from copotensor.polycone import member_C_r
from copotensor.tensor import SymTensor, SymTensorBuilder, canonical_tuples, from_matrix
from conftest import (BOUNDARY, HORN, coefficients, default_tensors,
                      example31_tensor, expand_Pr_closed_form, float_tensors,
                      index_counts, rand_float_tensor, rand_nonneg_tensor,
                      rand_rational_tensor, reference_brackets, tuple_multiplicity)


def bruteforce_coeffs(A, r):
    """Re-key the oracle's even y-exponents 2*theta down to theta."""
    raw = expand_bruteforce(A, r)
    out = {}
    for key, v in raw.items():
        assert all(e % 2 == 0 for e in key)
        out[tuple(e // 2 for e in key)] = v
    return out


def convolve_up(exp: dict) -> dict:
    """Literal reference for the level recursion P^(r+1)(y) = (sum y_k^2)
    P^(r)(y): each theta gains the level-r coefficients at theta - e_k."""
    first = next(iter(exp))
    n, s = len(first), sum(first)
    coeffs = {}
    for theta in enumerate_exponents(n, s + 1):
        total = Fraction(0)
        for k in range(n):
            if theta[k] > 0:
                prev = tuple(t - (1 if i == k else 0) for i, t in enumerate(theta))
                total += exp[prev]
        coeffs[theta] = total
    return coeffs


def reference_expand_Pr(A, r):
    """Literal reference: the shifted-multinomial sum in Fractions, one
    multinomial(theta - counts) per (theta, canonical tuple)."""
    terms = [(index_counts(key, A.n), tuple_multiplicity(key) * a)
             for key, a in A.items() if a != 0]
    coeffs = {}
    for theta in enumerate_exponents(A.n, r + A.d):
        total = Fraction(0)
        for counts, wa in terms:
            c = multinomial(tuple(t - k for t, k in zip(theta, counts)))
            if c:
                total += c * wa
        coeffs[theta] = total
    return coeffs


def assert_matches_oracle(exp: dict, A, r):
    oracle = bruteforce_coeffs(A, r)
    for theta, c in exp.items():
        assert c == oracle.get(theta, 0), (theta, c, oracle.get(theta, 0))


class TestExpandPr:
    def test_boundary_matrix_level1(self):
        # (y1^2 - y2^2)^2 (y1^2 + y2^2)
        exp = coefficients(BOUNDARY, 1)
        assert exp == {(3, 0): 1, (2, 1): -1, (1, 2): -1, (0, 3): 1}

    def test_all_ones_level1(self):
        # (y1^2 + y2^2)^3
        A = from_matrix([[1, 1], [1, 1]])
        exp = coefficients(A, 1)
        assert exp == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}

    def test_level0_is_multiplicity_weighted_entries(self, rng):
        for n, d in ((2, 2), (3, 3), (2, 4)):
            A = rand_rational_tensor(rng, n, d)
            exp = coefficients(A, 0)
            for key, a in A.items():
                theta = tuple(key.count(i) for i in range(1, n + 1))
                assert exp[theta] == tuple_multiplicity(key) * a

    def test_domain_is_exactly_In_s(self, rng):
        A = rand_rational_tensor(rng, 3, 2)
        exp = coefficients(A, 2)
        assert set(exp) == set(enumerate_exponents(3, 4))

    def test_matches_bruteforce(self, rng):
        for n, d in itertools.product((2, 3), (2, 3)):
            A = rand_rational_tensor(rng, n, d)
            for r in range(3):
                assert_matches_oracle(coefficients(A, r), A, r)


def reference_member_C_r(A, r):
    """(member, worst_theta, worst_value) read off the literal reference
    table: the lexicographically first most negative coefficient."""
    coeffs = reference_expand_Pr(A, r)
    worst = min(sorted(coeffs), key=coeffs.__getitem__)
    if coeffs[worst] >= 0:
        return True, None, None
    return False, worst, coeffs[worst]


def assert_route_matches_references(A, r):
    exp = coefficients(A, r)
    assert exp == reference_expand_Pr(A, r)
    assert_matches_oracle(exp, A, r)
    v = member_C_r(A, r)
    assert (v.member, v.worst_theta, v.worst_value) == reference_member_C_r(A, r)


class TestMatchesReference:
    """The integer falling-factorial brackets give the same Fractions as the
    shifted-multinomial sum and the brute-force oracle, and member_C_r,
    which reads only their signs on a Member level, gives the verdict and
    worst coefficient of the reference table."""

    @settings(max_examples=60, deadline=None)
    @given(float_tensors(max_n=5, max_d=5), st.integers(min_value=0, max_value=6))
    def test_random_float_tensors(self, A, r):
        assert_route_matches_references(A, r)

    @settings(max_examples=80, deadline=None)
    @given(default_tensors(), st.integers(min_value=0, max_value=5))
    def test_default_tensors_match_the_all_tuple_loop(self, A, r):
        # the default's closed form plus one column per delta gives the
        # brackets of one column per canonical tuple
        thetas, brackets, denom = polycone._brackets(A, r)
        ref_thetas, ref_brackets, ref_denom = reference_brackets(A, r)
        assert (thetas, brackets.tolist(), denom) == \
            (ref_thetas, ref_brackets.tolist(), ref_denom)
        assert_route_matches_references(A, r)

    @pytest.mark.parametrize("name, A", [
        ("flagship", example31_tensor()), ("horn", HORN), ("boundary", BOUNDARY),
        ("float-3-4", rand_float_tensor(random.Random(1), 3, 4)),
        ("float-4-3", rand_float_tensor(random.Random(2), 4, 3)),
        ("tie", from_matrix([[1, -1, -1], [-1, 1, 0], [-1, 0, 1]])),
        ("zero", SymTensor(3, 3, {}, 0)),
        ("n1-negative", SymTensor(1, 3, {}, -2)),
        ("n1-positive", SymTensor(1, 4, {}, Fraction(1, 3))),
        ("d1", rand_rational_tensor(random.Random(3), 4, 1)),
        ("d1-n1", SymTensor(1, 1, {}, -1))])
    def test_fixed_cases(self, name, A):
        for r in range(5):
            assert_route_matches_references(A, r)

    def test_one_multinomial_per_coefficient(self, monkeypatch):
        tables = []
        monkeypatch.setattr(polycone, "multinomials",
                            lambda thetas: tables.append(list(thetas))
                            or combinatorics.multinomials(tables[-1]))
        exp = coefficients(example31_tensor(), 6)
        assert len(tables) == 1 and sorted(tables[0]) == sorted(exp)

    def test_member_level_builds_no_fraction_and_no_multinomial(self, monkeypatch):
        tables, fractions = [], []
        monkeypatch.setattr(polycone, "multinomials",
                            lambda thetas: tables.append(list(thetas))
                            or combinatorics.multinomials(tables[-1]))
        monkeypatch.setattr(polycone, "Fraction",
                            lambda *args: fractions.append(args) or Fraction(*args))
        assert member_C_r(example31_tensor(), 6).member
        assert tables == fractions == []
        # a NotMember level: the multinomials of the negative brackets, -4 at
        # (2, 3) and (3, 2), which share 4 with D = 20, and one Fraction
        v = member_C_r(BOUNDARY, 3)
        assert not v.member
        assert tables == [[(2, 3), (3, 2)]]
        assert fractions == [(-10, 5)]

    def test_huge_order_against_binomials(self):
        # P at level 0 of the all-ones form in two variables has coefficient
        # C(d, k) at (k, d - k); D = 9999! divides every bracket
        exp = coefficients(SymTensor(2, 9999, {}, 1), 0)
        assert len(exp) == 10_000
        for k in (0, 1, 17, 4999, 5000, 9998, 9999):
            assert exp[k, 9999 - k] == math.comb(9999, k)


def bracket_bound(A, r):
    """(|default * L| + sum |w|) * fall(s, d): the bound that puts
    _brackets on np.int64 when it is at most 2^63 - 1."""
    _, default, terms = A.integer_form
    return (abs(default) + sum(abs(w) for w, _ in terms)) * math.perm(r + A.d, A.d)


def assert_python_ints(A, r):
    """Nothing numpy leaves the module: the table, the worst theta and the
    worst value are built from Python ints on either side of the bound."""
    _, numerators, denom = polycone.coefficient_table(A, r)
    assert type(denom) is int and all(type(v) is int for v in numerators)
    v = member_C_r(A, r)
    if not v.member:
        assert type(v.worst_theta) is tuple
        assert all(type(t) is int for t in v.worst_theta)
        assert type(v.worst_value.numerator) is int
        assert type(v.worst_value.denominator) is int


class TestInt64Bound:
    """The brackets run on np.int64 up to the Vandermonde bound and on
    Python-int object arrays past it, with the same coefficients."""

    @pytest.mark.parametrize("value, dtype", [
        (2 ** 63 - 1, np.int64), (-(2 ** 63 - 1), np.int64),
        (2 ** 63, object), (-(2 ** 63), object)])
    def test_order_one_at_the_limit(self, value, dtype):
        # n = 1, d = 1, level 0: the bound is |value| * fall(1, 1) = |value|
        A = SymTensor(1, 1, {(1,): value}, 0)
        assert bracket_bound(A, 0) == abs(value)
        assert polycone._brackets(A, 0)[1].dtype == dtype
        for r in range(3):
            assert_route_matches_references(A, r)
            assert_python_ints(A, r)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=4), st.data(),
           st.sampled_from([np.int64, object]), st.integers(min_value=0, max_value=3))
    def test_scaled_tensors_on_both_sides(self, n, d, r, data, dtype, past):
        # small entries over 1 or 3, scaled by the 2^k that puts the bound
        # ``past`` doublings below or above 2^63 - 1: 2^k is prime to 3, so
        # L stays and the bound scales by exactly 2^k
        value = st.builds(Fraction, st.integers(min_value=-9, max_value=15),
                          st.sampled_from([1, 3]))
        default = data.draw(value)
        entries = {key: v for key in canonical_tuples(n, d)
                   if (v := data.draw(st.none() | value)) is not None}
        base = bracket_bound(SymTensor(n, d, entries, default), r)
        assume(0 < base <= polycone.INT64_MAX)
        top = (polycone.INT64_MAX // base).bit_length() - 1   # largest k in int64
        k = top - past if dtype is np.int64 else top + 1 + past
        assume(k >= 0)
        A = SymTensor(n, d, {key: v * 2 ** k for key, v in entries.items()},
                      default * 2 ** k)
        assert (bracket_bound(A, r) <= polycone.INT64_MAX) == (dtype is np.int64)
        assert polycone._brackets(A, r)[1].dtype == dtype
        thetas, numerators, denom = polycone.coefficient_table(A, r)
        assert dict(zip(thetas, (Fraction(v, denom) for v in numerators))) == \
            reference_expand_Pr(A, r)
        v = member_C_r(A, r)
        assert (v.member, v.worst_theta, v.worst_value) == reference_member_C_r(A, r)
        assert_python_ints(A, r)

    def test_cli_documents_past_the_bound(self, tmp_path, capsys):
        # x1^2 - 2^64 x1 x2 + x2^2: w = 2 (-2^63 - 1), so the bound is
        # (1 + 2^64 + 2) * fall(3, 2), past 2^63: object arrays
        path = tmp_path / "big.json"
        path.write_text('{"n": 2, "d": 2, "default": "1", "entries": '
                        '[{"idx": [1, 2], "val": "-9223372036854775808"}]}')
        A = SymTensor(2, 2, {(1, 2): -2 ** 63}, 1)
        assert polycone._brackets(A, 1)[1].dtype == object
        assert main(["expand", "--level", "1", str(path)]) == 0
        rows = [((0, 3), "1"), ((1, 2), "-18446744073709551615"),
                ((2, 1), "-18446744073709551615"), ((3, 0), "1")]
        assert capsys.readouterr().out == json.dumps(
            {"n": 2, "d": 2, "level": 1,
             "coefficients": [{"theta": list(theta), "coefficient": c}
                              for theta, c in rows]}, indent=2) + "\n"
        assert main(["check", "--method", "coef", "--level", "1", str(path)]) == 1
        assert capsys.readouterr().out == json.dumps(
            {"verdict": "NotMember", "method": "coef", "tool_version": TOOL_VERSION,
             "input_digest": "a9a6769a596238f896053e0066c53add1e1809bd5956d0037d2a5da00295f4c6",
             "level": 1,
             "stats": {"worst_theta": [1, 2], "worst_value": "-18446744073709551615"}},
            indent=2) + "\n"


class TestSizeLimit:
    def test_oversized_level_rejected_before_enumeration(self, monkeypatch):
        A = SymTensor(10, 4, {}, 1)
        calls = []
        monkeypatch.setattr(polycone, "enumerate_exponents",
                            lambda *args: calls.append(args))
        for expand in (coefficients, expand_Pr_closed_form):
            with pytest.raises(ValueError, match="exceeds the limit"):
                expand(A, 10)
        with pytest.raises(ValueError, match="exceeds the limit"):
            member_C_r(A, 10)
        assert calls == []

    def test_limit_is_inclusive(self, monkeypatch):
        A = example31_tensor()
        count = math.comb(3 + 5 + 4 - 1, 5 + 4)
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", count)
        assert len(coefficients(A, 5)) == count
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", count - 1)
        with pytest.raises(ValueError):
            coefficients(A, 5)


class TestClosedForm:
    def test_pure_diagonal_theta(self, rng):
        # theta = s*e_i keeps only the diagonal entry a_{(i)^d}... at r=0;
        # for general r the coefficient scales by multinomial shift, so test
        # agreement with the direct expansion instead of a literal value
        for d in (2, 3, 4):
            A = rand_rational_tensor(rng, 3, d)
            exp = expand_Pr_closed_form(A, 0)
            for i in range(3):
                theta = tuple(d if j == i else 0 for j in range(3))
                assert exp[theta] == A.get((i + 1,) * d)

    def test_agrees_with_direct(self, rng):
        for n, d in itertools.product((2, 3), (2, 3, 4)):
            for r in range(3):
                A = rand_rational_tensor(rng, n, d)
                assert expand_Pr_closed_form(A, r) == coefficients(A, r)

    def test_d1_rejected(self):
        A = SymTensorBuilder(2, 1).set((1,), Fraction(1)).build()
        with pytest.raises(ValueError):
            expand_Pr_closed_form(A, 0)


class TestConvolution:
    def test_convolve_matches_direct(self, rng):
        for n, d in ((2, 2), (3, 3)):
            A = rand_rational_tensor(rng, n, d)
            exp = coefficients(A, 0)
            for r in range(1, 4):
                exp = convolve_up(exp)
                assert exp == coefficients(A, r)

    def test_convolved_path(self, rng):
        A = rand_rational_tensor(rng, 2, 3)
        exp = coefficients(A, 0)
        for _ in range(4):
            exp = convolve_up(exp)
        assert exp == coefficients(A, 4)


class TestMemberCr:
    def test_example31_level0_member(self, example31):
        assert member_C_r(example31, 0).member

    def test_boundary_matrix_not_member_all_levels(self):
        for r in range(6):
            v = member_C_r(BOUNDARY, r)
            assert not v.member
            assert v.worst_value < 0

    def test_zero_tensor_member(self):
        Z = SymTensorBuilder(3, 2).build()
        for r in range(4):
            assert member_C_r(Z, r) == polycone.CoefficientVerdict(True, r)

    def test_level0_characterization(self, rng):
        for _ in range(20):
            A = rand_rational_tensor(rng, 3, 3)
            entrywise = all(v >= 0 for _, v in A.items())
            assert member_C_r(A, 0).member == entrywise

    def test_monotonicity(self, rng):
        for _ in range(15):
            A = rand_nonneg_tensor(rng, 2, 3)
            for r in range(3):
                if member_C_r(A, r).member:
                    assert member_C_r(A, r + 1).member

    def test_soundness_member_implies_grid_nonneg(self, rng):
        checked = 0
        for _ in range(10):
            A = rand_nonneg_tensor(rng, 3, 2)
            if member_C_r(A, 1).member:
                checked += 1
                assert simplex_grid_min(A, 50).min_value >= 0
        assert checked > 0

    def test_worst_theta_deterministic_lex(self):
        for r in range(4):
            v = member_C_r(BOUNDARY, r)
            coeffs = coefficients(BOUNDARY, r)
            # lexicographically first among the most negative coefficients
            worst = min(coeffs.values())
            firsts = [t for t, c in sorted(coeffs.items()) if c == worst]
            assert (v.worst_theta, v.worst_value) == (firsts[0], worst)

    def test_tie_goes_to_lex_first(self):
        # -2 at (1, 0, 1) and at (1, 1, 0)
        A = from_matrix([[1, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        v = member_C_r(A, 0)
        assert (v.worst_theta, v.worst_value) == ((1, 0, 1), -2)

    def test_worst_is_not_the_most_negative_bracket(self):
        # brackets 6, -2, -8, -12 over (0,3) .. (3,0), multinomials 1, 3, 3, 1,
        # so the coefficients are 1, -1, -4, -2
        v = member_C_r(from_matrix([[-2, -1], [-1, 1]]), 1)
        assert (v.worst_theta, v.worst_value) == ((2, 1), -4)

    def test_float_mode_tolerance(self):
        # float entries are taken at their exact binary values: no tolerance
        A = from_matrix([[1.0, -1e-15], [-1e-15, 1.0]])
        v = member_C_r(A, 0)
        assert not v.member
        assert v.worst_value == 2 * Fraction(-1e-15)
