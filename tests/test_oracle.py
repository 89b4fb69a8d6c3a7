from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copotensor import oracle
from copotensor.oracle import _compositions, expand_bruteforce, simplex_grid_min
from copotensor.tensor import SymTensorBuilder, eval_form, from_matrix
from conftest import default_tensors, float_tensors, rand_rational_tensor, tuple_multiplicity

F = Fraction


class TestSimplexGridMin:
    def test_identity_matrix(self):
        rep = simplex_grid_min(from_matrix([[1, 0], [0, 1]]), 2)
        assert rep.min_value == F(1, 2)
        assert rep.argmin == (F(1, 2), F(1, 2))

    def test_hollow_matrix(self):
        rep = simplex_grid_min(from_matrix([[0, -1], [-1, 0]]), 2)
        assert rep.min_value == F(-1, 2)

    def test_example31_nonnegative(self, example31):
        assert simplex_grid_min(example31, 20).min_value >= 0

    def test_argmin_consistency(self, rng):
        for _ in range(5):
            A = rand_rational_tensor(rng, 3, 3)
            rep = simplex_grid_min(A, 7)
            assert eval_form(A, rep.argmin) == rep.min_value

    def test_monotone_in_resolution(self, rng):
        for _ in range(10):
            A = rand_rational_tensor(rng, 2, 3)
            for m in (3, 5, 8):
                assert simplex_grid_min(A, 2 * m).min_value <= \
                    simplex_grid_min(A, m).min_value

    def test_size_cap(self, monkeypatch, example31):
        monkeypatch.setattr(oracle, "MAX_GRID_POINTS", 10)
        with pytest.raises(ValueError):
            simplex_grid_min(example31, 100)

    def test_terms_counted_against_the_cap(self, monkeypatch, example31):
        # 15 points in 3 coordinates pass a cap of 50; times 15 canonical
        # tuples they do not
        monkeypatch.setattr(oracle, "MAX_GRID_POINTS", 50)
        with pytest.raises(ValueError, match="15 points times 15 canonical tuples"):
            simplex_grid_min(example31, 4)

    def test_independent_of_the_integer_form(self):
        # x1^2 - 4 x1 x2 + x2^2 with its negative term dropped from the
        # integer form that eval_form, the grid and the coefficient kernels
        # read, which leaves x1^2 + x2^2: the oracle still finds the true
        # minimum -1/2 at (1/2, 1/2)
        A = from_matrix([[1, -2], [-2, 1]])
        scale, default, (square1, product, square2) = A.integer_form
        assert product == (-4, ((0, 1), (1, 1)))
        A.__dict__["integer_form"] = (scale, default, (square1, square2))
        assert eval_form(A, (F(1, 2), F(1, 2))) == F(1, 2)
        rep = simplex_grid_min(A, 2)
        assert (rep.min_value, rep.argmin) == (F(-1, 2), (F(1, 2), F(1, 2)))

    @settings(max_examples=80, deadline=None)
    @given(float_tensors(max_n=3, max_d=4) | default_tensors(max_n=3, max_d=4),
           st.integers(min_value=1, max_value=6))
    def test_literal_sum_matches_eval_form(self, A, resolution):
        # the least eval_form over the same grid, at its first composition
        points = [tuple(F(c, resolution) for c in comp)
                  for comp in _compositions(resolution, A.n)]
        values = [eval_form(A, x) for x in points]
        least = min(values)
        rep = simplex_grid_min(A, resolution)
        assert (rep.min_value, rep.argmin) == (least, points[values.index(least)])


class TestExpandBruteforce:
    def test_level0_multiplicity_weighted_entries(self, rng):
        A = rand_rational_tensor(rng, 2, 3)
        raw = expand_bruteforce(A, 0)
        for key, a in A.items():
            expo = tuple(2 * key.count(i) for i in range(1, 3))
            expected = tuple_multiplicity(key) * a
            assert raw.get(expo, 0) == expected

    def test_zero_tensor(self):
        Z = SymTensorBuilder(3, 2).build()
        assert expand_bruteforce(Z, 2) == {}

    def test_exponents_even_and_correct_degree(self, rng):
        A = rand_rational_tensor(rng, 3, 2)
        for r in (0, 2):
            for key in expand_bruteforce(A, r):
                assert all(e % 2 == 0 for e in key)
                assert sum(key) == 2 * (2 + r)

