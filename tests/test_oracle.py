from fractions import Fraction

import pytest

from copotensor import oracle
from copotensor.oracle import expand_bruteforce, simplex_grid_min
from copotensor.tensor import SymTensorBuilder, eval_form, from_matrix
from conftest import rand_rational_tensor, tuple_multiplicity

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

