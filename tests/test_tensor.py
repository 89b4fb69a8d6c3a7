import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copotensor import combinatorics, tensor
from copotensor.oracle import simplex_grid_min
from copotensor.partition import Verdict, certify_copositivity
from copotensor.tensor import (SymTensor, SymTensorBuilder, canonicalize,
                               eval_form, from_matrix, necessary_screen,
                               scaled_terms, scaled_values, canonical_tuples)
from conftest import (default_tensors, float_tensors, index_counts, multi_product,
                      rand_float_tensor, rand_rational_tensor,
                      reference_face_descent, tuple_multiplicity)


def literal_eval(A: SymTensor, x) -> Fraction:
    """Independent n^d-term summation, no multiplicity shortcut."""
    total = 0
    for tup in itertools.product(range(1, A.n + 1), repeat=A.d):
        a = A.entries.get(tuple(sorted(tup)), A.default)
        term = a
        for i in tup:
            term = term * x[i - 1]
        total = total + term
    return total


class TestCanonicalize:
    def test_sorts(self):
        assert canonicalize((3, 1, 2, 1), 3) == (1, 1, 2, 3)

    def test_identity_on_sorted(self):
        assert canonicalize((2, 2, 2, 2), 2) == (2, 2, 2, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            canonicalize((1, 3), 2)


class TestGetSet:
    def test_example_entries(self, example31):
        assert example31.get((1, 1, 1, 1)) == 0
        assert example31.get((2, 2, 2, 2)) == 1
        assert example31.get((1, 2, 3, 1)) == 5

    @given(st.permutations(range(4)))
    def test_permutation_invariance(self, perm):
        b = SymTensorBuilder(4, 4)
        b.set((1, 2, 3, 4), Fraction(7))
        A = b.build()
        idx = tuple(p + 1 for p in perm)
        assert A.get(idx) == 7

    def test_immutability(self, example31):
        with pytest.raises(TypeError):
            example31.entries[(1, 1, 1, 1)] = 9

    def test_bad_keys_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 2, {(2, 1): Fraction(1)})


class TestExactValues:
    def test_values_stored_as_exact_fractions(self):
        A = from_matrix([[0.1, 2], [2, Fraction(1, 3)]])
        assert all(type(v) is Fraction for _, v in A.items())
        assert A.get((1, 1)) == Fraction(3602879701896397, 2 ** 55)
        B = SymTensor(2, 2, {}, 0.5)
        assert type(B.default) is Fraction and B.default == Fraction(1, 2)

    def test_fractions_kept_unchanged(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        A = SymTensor(2, 2, {(1, 2): half}, third)
        assert A.get((1, 2)) is half and A.default is third

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                     "1/2", None])
    def test_non_numbers_rejected(self, bad):
        with pytest.raises(ValueError):
            SymTensorBuilder(2, 2).set((1, 2), bad).build()
        with pytest.raises(ValueError):
            SymTensorBuilder(2, 2, default=bad).build()
        with pytest.raises(ValueError):
            SymTensor(2, 2, {(1, 2): bad})
        with pytest.raises(ValueError):
            SymTensor(2, 2, default=bad)


class TestScaledValues:
    def test_scaled_ints_over_L_give_back_the_values(self, rng):
        for n, d in ((1, 1), (2, 3), (3, 4)):
            for A in (rand_rational_tensor(rng, n, d), rand_float_tensor(rng, n, d)):
                scale, ints = scaled_values(A)
                assert all(type(v) is int for v in ints)
                assert [Fraction(v, scale) for v in ints] == [a for _, a in A.items()]

    def test_scale_is_the_lcm_default_included(self):
        A = SymTensor(3, 2, {(1, 1): Fraction(1, 2), (2, 3): Fraction(-1, 3)},
                      Fraction(3, 5))
        scale, ints = scaled_values(A)
        assert scale == 30
        assert ints == [15, 18, 18, 18, -10, 18]
        # the default counts even when every tuple is set explicitly
        B = SymTensor(1, 1, {(1,): Fraction(1, 2)}, Fraction(1, 7))
        assert scaled_values(B) == (14, [7])

    def test_tuple_count_checked_before_building(self, monkeypatch):
        # C(n+d-1, d) canonical tuples, against the enumeration limit
        A = SymTensorBuilder(3, 4, default=1).build()
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", math.comb(6, 4))
        assert scaled_values(A) == (1, [1] * 15)
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", 14)
        with pytest.raises(ValueError, match="canonical tuple count: 15 exceeds"):
            scaled_values(A)
        # 1.6e9 tuples: refused at once, not built
        with pytest.raises(ValueError, match="canonical tuple count"):
            scaled_values(SymTensorBuilder(100, 6, default=1).build())


class TestScaledTerms:
    @settings(max_examples=80, deadline=None)
    @given(default_tensors(max_n=4, max_d=5),
           st.lists(st.integers(min_value=-3, max_value=4), min_size=4, max_size=4))
    def test_closed_form_equals_the_dense_sum(self, A, x):
        scale, default, terms = scaled_terms(A)
        values = [a for _, a in A.items()]
        assert scale == math.lcm(A.default.denominator, *(a.denominator for a in values))
        assert default == A.default * scale
        # L times the literal sum over canonical tuples, each with its
        # multiplicity, at an integer point
        x = x[:A.n]
        dense = sum(tuple_multiplicity(key) * a * scale * math.prod(x[i - 1] for i in key)
                    for key, a in A.items())
        closed = default * sum(x) ** A.d
        for w, runs in terms:
            closed += w * math.prod(x[i] ** e for i, e in runs)
        assert closed == dense
        # one term per stored entry that differs from the default, in
        # canonical order, with its 0-based index runs and integer weight
        stored = [(key, a) for key, a in sorted(A.entries.items()) if a != A.default]
        assert [runs for _, runs in terms] == \
            [tuple((i, c) for i, c in enumerate(index_counts(key, A.n)) if c)
             for key, _ in stored]
        assert [w for w, _ in terms] == \
            [tuple_multiplicity(key) * (a - A.default) * scale for key, a in stored]
        assert all(type(w) is int for w, _ in terms)

    def test_built_once_per_tensor(self, monkeypatch):
        # eval_form, the grid, the brackets and the screen's face descent
        # all read the one cached build
        from copotensor.gridcone import member_O_r
        from copotensor.polycone import member_C_r
        calls = []

        def counting(A):
            calls.append(A)
            return scaled_terms(A)

        monkeypatch.setattr(tensor, "scaled_terms", counting)
        A = SymTensor(3, 4, {(1, 1, 1, 1): 0, (1, 1, 1, 2): -1}, 1)
        for k in range(100):
            eval_form(A, (1, k, 2))
        member_O_r(A, 2)
        member_C_r(A, 1)
        assert not necessary_screen(A).passed   # zero diagonal, negative a_1112
        assert calls == [A]
        eval_form(SymTensor(3, 4, default=1), (1, 1, 1))
        assert len(calls) == 2


class TestEval:
    def test_identity_diag_at_unit_vector(self):
        b = SymTensorBuilder(3, 3)
        for i in range(1, 4):
            b.set((i,) * 3, 1)
        A = b.build()
        assert eval_form(A, (1, 0, 0)) == 1

    def test_example_probe_is_negative(self, example31):
        assert eval_form(example31, (-2, 0, 1)) < 0

    def test_example_probe_exact_value(self, example31):
        # frozen from the literal 3^4-term summation
        v = eval_form(example31, (-2, 0, 1))
        assert v == literal_eval(example31, (-2, 0, 1)) == Fraction(-79)

    def test_eval_matches_literal_sum(self, rng):
        for n, d in itertools.product((1, 2, 3), (1, 2, 3, 4)):
            for _ in range(3):
                A = rand_rational_tensor(rng, n, d)
                x = [Fraction(rng.randint(-4, 4), 3) for _ in range(n)]
                assert eval_form(A, x) == literal_eval(A, x)

    def test_dimension_mismatch(self, example31):
        with pytest.raises(ValueError):
            eval_form(example31, (1, 2))

    @settings(max_examples=200, deadline=None)
    @given(float_tensors(max_n=5), st.data())
    def test_support_sum_equals_full_sum(self, A, data):
        # sparse points (about half the coordinates zero) and dense ones
        nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)
        coordinate = data.draw(st.sampled_from([st.just(0) | nonzero, nonzero]))
        x = data.draw(st.lists(coordinate, min_size=A.n, max_size=A.n))
        assert eval_form(A, x) == literal_eval(A, x)

    @settings(max_examples=200, deadline=None)
    @given(default_tensors(max_n=4), st.data())
    def test_default_tensors_equal_the_full_sum(self, A, data):
        # the default in closed form plus one term per delta: unchanged for
        # negative, fractional and float defaults and for entries stored at
        # the default
        coordinate = st.just(0) | st.fractions(min_value=-3, max_value=3, max_denominator=7) \
            | st.floats(min_value=-2, max_value=2, allow_nan=False)
        x = data.draw(st.lists(coordinate, min_size=A.n, max_size=A.n))
        assert eval_form(A, x) == literal_eval(A, [Fraction(c) for c in x])

    def test_cost_follows_the_support(self):
        # a 2-sparse point in n = 100 000 visits 3 canonical tuples, not 5e9
        A = SymTensorBuilder(100_000, 2).set((1, 2), -1).set((2, 2), 3).build()
        x = [0] * 100_000
        x[0], x[1] = Fraction(1), Fraction(1, 2)
        start = time.perf_counter()
        assert eval_form(A, x) == Fraction(-1) + Fraction(3, 4)
        assert time.perf_counter() - start < 1


    def test_high_order_costs_a_few_powers(self):
        # d = 20 000 on a two-coordinate point: default (x1 + x2)^d plus one
        # term per stored entry that differs from the default, where the
        # support's C(d + 1, d) tuples each took d products
        d = 20_000
        A = (SymTensorBuilder(2, d, 1).set((1,) * d, 0)
             .set((1,) * (d - 1) + (2,), -1).build())
        t = Fraction(1, 16384)
        start = time.perf_counter()
        value = eval_form(A, (1, t))
        assert time.perf_counter() - start < 1
        assert value == (1 + t) ** d - 1 - 2 * d * t < 0

    @pytest.mark.parametrize("default", [0, Fraction(-2, 3), 5])
    def test_stored_defaults_and_repeats(self, rng, default):
        # entries stored at the default, and repeated indices, against the
        # literal n^d sum
        for n, d in ((1, 3), (2, 4), (3, 3), (4, 2)):
            b = SymTensorBuilder(n, d, default)
            for key in canonical_tuples(n, d):
                if rng.random() < 0.6:
                    b.set(key, default if rng.random() < 0.3
                          else Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            A = b.build()
            for _ in range(5):
                x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                assert eval_form(A, x) == literal_eval(A, x)


class TestInnerProduct:
    def test_pairing_rank_one_equals_eval(self, rng):
        # <A, x (x) ... (x) x> through the literal n^d-term pairing
        for _ in range(100):
            n = rng.randint(1, 4)
            d = rng.randint(1, 4)
            A = rand_rational_tensor(rng, n, d)
            x = [Fraction(rng.randint(-3, 3), 2) for _ in range(n)]
            assert multi_product(A, [x] * d) == eval_form(A, x)


class TestDiag:
    def test_example_diag_vector(self, example31):
        assert example31.diag_vector() == (0, 1, 1)

    def test_round_trip(self):
        theta = (Fraction(3), Fraction(0), Fraction(-2))
        b = SymTensorBuilder(3, 4)
        for i, v in enumerate(theta, start=1):
            b.set((i,) * 4, v)
        assert b.build().diag_vector() == theta


class TestNecessaryScreen:
    def test_negative_diagonal_fails(self):
        assert not necessary_screen(from_matrix([[-1, 0], [0, 1]])).passed

    def test_zero_diag_negative_mixed_fails(self):
        assert not necessary_screen(from_matrix([[0, -1], [-1, 1]])).passed

    def test_nonnegative_passes(self, example31):
        assert necessary_screen(example31).passed

    def test_zero_diag_constrains_only_the_adjacent_entry(self):
        # x2 * (3 x1^2 - 3 x1 x2 + x2^2) is non-negative on the orthant
        A = (SymTensorBuilder(2, 3).set((1, 1, 2), 1).set((1, 2, 2), -1)
             .set((2, 2, 2), 1).build())
        assert necessary_screen(A).passed
        assert certify_copositivity(A).verdict is Verdict.COPOSITIVE
        B = SymTensorBuilder(2, 3).set((1, 1, 2), -1).set((2, 2, 2), 1).build()
        res = necessary_screen(B)
        assert not res.passed and res.witness_index == (1, 1, 2)

    @pytest.mark.parametrize("rows, point, value", [
        ([[-1, 0], [0, 1]], (1, 0), -1),
        ([[0, -1], [-1, 1]], (1, 1), -1),
    ])
    def test_fail_carries_witness(self, rows, point, value):
        res = necessary_screen(from_matrix(rows))
        assert res.witness == point and res.witness_value == value
        assert eval_form(from_matrix(rows), res.witness) == value

    def test_zero_diag_witness_halves_until_negative(self):
        # x1^2 x2 coefficient -3 against x2^3 coefficient 100: t = 1/8 is the
        # first power of two where -3 t + 100 t^3 < 0
        B = SymTensorBuilder(2, 3).set((1, 1, 2), -1).set((2, 2, 2), 100).build()
        res = necessary_screen(B)
        assert res.witness == (1, Fraction(1, 8))
        assert res.witness_value == eval_form(B, res.witness) < 0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 3), (2, 4), (3, 3), (3, 4)]), st.data())
    def test_fail_is_never_certified_copositive(self, shape, data):
        n, d = shape
        # small entries with many zeros, so zero diagonals are common
        vals = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-1, 2)])
        b = SymTensorBuilder(n, d)
        for key in itertools.combinations_with_replacement(range(1, n + 1), d):
            b.set(key, data.draw(vals))
        A = b.build()
        if not necessary_screen(A).passed:
            cert = certify_copositivity(A, max_depth=12, simplex_budget=300)
            assert cert.verdict is not Verdict.COPOSITIVE

    def test_zero_diag_witness_matches_the_literal_halving(self):
        # the face polynomial sum_k C(d, k) a_{i^(d-k) j^k} t^k summed in
        # Fractions at t = 1, 1/2, 1/4, ... until negative, read entry by entry
        rng = random.Random(11)
        checked = 0
        for _ in range(300):
            n, d = rng.randint(2, 3), rng.randint(2, 9)
            default = Fraction(rng.randint(-1, 4), rng.choice((1, 3)))
            b = SymTensorBuilder(n, d, default)
            for _ in range(rng.randint(0, 6)):
                key = tuple(sorted(rng.randint(1, n) for _ in range(d)))
                b.set(key, Fraction(rng.randint(-6, 9), rng.choice((1, 2, 5))))
            b.set((1,) * d, 0)
            b.set((1,) * (d - 1) + (rng.randint(2, n),), Fraction(-rng.randint(1, 4), 3))
            A = b.build()
            res = necessary_screen(A)
            if res.passed or res.witness_value == 0 or res.witness[0] != 1 \
                    or A.get((1,) * d) != 0:
                continue
            j = next(k for k, c in enumerate(res.witness, 1) if k > 1 and c)
            face = [math.comb(d, k) * A.get((1,) * (d - k) + (j,) * k)
                    for k in range(d + 1)]
            t = Fraction(1)
            while (value := sum(c * t ** k for k, c in enumerate(face))) >= 0:
                t /= 2
            assert res.witness[j - 1] == t and res.witness_value == value
            checked += 1
        assert checked >= 200

    def test_face_descent_matches_the_face_formula(self):
        # seeded tensors with zero diagonals and negative mixed entries,
        # fractional, float and negative defaults included: every descent on
        # a qualifying (i, j) face, and each reported witness, equal the
        # face formula's over the face entries alone
        rng = random.Random(37)
        descents = 0
        for _ in range(400):
            n, d = rng.randint(2, 4), rng.randint(2, 6)
            default = rng.choice((Fraction(rng.randint(-2, 5), rng.choice((1, 3, 7))),
                                  rng.uniform(-1, 3)))
            b = SymTensorBuilder(n, d, default)
            for _ in range(rng.randint(0, 8)):
                key = tuple(sorted(rng.randint(1, n) for _ in range(d)))
                b.set(key, rng.choice((Fraction(rng.randint(-6, 9), rng.choice((1, 2, 5))),
                                       rng.uniform(-2, 4), 0)))
            for i in rng.sample(range(1, n + 1), rng.randint(1, n)):
                b.set((i,) * d, 0)
                j = rng.choice([k for k in range(1, n + 1) if k != i])
                b.set((i,) * (d - 1) + (j,), Fraction(-rng.randint(1, 4), 3))
            A = b.build()
            for i, j in itertools.permutations(range(1, n + 1), 2):
                if A.get((i,) * d) == 0 and A.get((i,) * (d - 1) + (j,)) < 0:
                    assert tensor._face_descent(A, i, j) == reference_face_descent(A, i, j)
                    descents += 1
            res = necessary_screen(A)
            if not res.passed and "zero diagonal" in res.reason:
                i = int(res.reason.split()[4])   # "zero diagonal at index i ..."
                j = next(k for k, c in enumerate(res.witness, 1) if k != i and c)
                k, value = reference_face_descent(A, i, j)
                assert (res.witness[j - 1], res.witness_value) == (Fraction(1, 1 << k), value)
        assert descents >= 400

    def test_zero_diag_of_high_order_reads_only_the_face(self):
        # f(e_1 + t e_2) = (1 + t)^d - 1 - 2 d t first goes negative near
        # t = 1/d; the d + 1 face entries are never built one by one
        d = 20_000
        A = (SymTensorBuilder(2, d, 1).set((1,) * d, 0)
             .set((1,) * (d - 1) + (2,), -1).build())
        start = time.perf_counter()
        res = necessary_screen(A)
        assert time.perf_counter() - start < 1
        t = Fraction(1, 16384)
        assert res.witness == (1, t)
        assert res.witness_value == (1 + t) ** d - 1 - 2 * d * t < 0
        assert (1 + 2 * t) ** d - 1 - 4 * d * t >= 0

    def test_never_fails_on_oracle_copositive(self, rng):
        # screen must pass whenever the dense-grid oracle confirms
        # nonnegativity over the simplex; pool is copositive-leaning so the
        # oracle confirms a usable number of instances
        from conftest import rand_diag_dominant_tensor, rand_nonneg_tensor
        pool = []
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 4)):
            pool.append(rand_nonneg_tensor(rng, n, d))
            pool.append(rand_diag_dominant_tensor(rng, n, d))
            pool.append(rand_rational_tensor(rng, n, d))
        confirmed = 0
        for A in pool:
            if simplex_grid_min(A, 50).min_value >= 0:
                confirmed += 1
                assert necessary_screen(A).passed
        assert confirmed >= 6
