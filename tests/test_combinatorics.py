import itertools
import math
import time

import pytest
from hypothesis import given, strategies as st

from copotensor.combinatorics import (COUNT_CAP, MAX_ENUMERATION, MAX_TABLE_CELLS,
                                      binomial_at_most, check_enumeration_size,
                                      enumerate_exponents, falling_factorial_column,
                                      index_runs, multinomial, multinomials)
from conftest import (elementary_symmetric, index_counts, reference_exponents,
                      tuple_multiplicity)


class TestMultinomial:
    def test_basic(self):
        assert multinomial((2, 1, 0)) == 3

    def test_negative_component_gives_zero(self):
        assert multinomial((1, -1, 2)) == 0

    def test_all_zero(self):
        assert multinomial((0, 0, 0)) == 1

    @given(st.lists(st.integers(0, 12), max_size=5))
    def test_factorial_formula(self, alpha):
        want = math.factorial(sum(alpha))
        for a in alpha:
            want //= math.factorial(a)
        assert multinomial(alpha) == want

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4))
    def test_pascal_recurrence(self, alpha):
        if sum(alpha) == 0:
            return
        total = sum(multinomial(tuple(a - (1 if k == i else 0)
                                      for k, a in enumerate(alpha)))
                    for i in range(len(alpha)))
        assert total == multinomial(alpha)

    def test_row_sums(self):
        for n in range(1, 5):
            for d in range(0, 7):
                assert sum(multinomial(a) for a in enumerate_exponents(n, d)) == n ** d


class TestEnumerateExponents:
    def test_counts(self):
        assert len(enumerate_exponents(3, 2)) == 6
        assert enumerate_exponents(1, 5) == ((5,),)
        assert enumerate_exponents(2, 3) == ((0, 3), (1, 2), (2, 1), (3, 0))

    def test_no_duplicates_and_count(self):
        for n in range(1, 5):
            for d in range(0, 6):
                exps = enumerate_exponents(n, d)
                assert len(set(exps)) == len(exps)
                assert len(exps) == math.comb(n + d - 1, d)
                assert all(sum(e) == d and min(e) >= 0 for e in exps)

    def test_lexicographic_order(self):
        exps = enumerate_exponents(3, 4)
        assert list(exps) == sorted(exps)

    def test_matches_recursive_reference(self):
        for n in range(1, 7):
            for d in range(0, 9):
                assert enumerate_exponents(n, d) == reference_exponents(n, d)

    def test_table_cell_limit(self):
        # n = 140 at degree 2, the largest table of order 2 or more within
        # MAX_ENUMERATION, and 1000 variables at degree 1 (a recursion 1000
        # deep for a recursive enumeration) are admitted; 5000 are not
        assert len(enumerate_exponents(140, 2)) * 140 == 1_381_800 <= MAX_TABLE_CELLS
        exps = enumerate_exponents(1000, 1)
        assert (exps[0], exps[-1]) == ((0,) * 999 + (1,), (1,) + (0,) * 999)
        with pytest.raises(ValueError, match="exponent table of 25000000 cells "
                                             "exceeds the limit"):
            enumerate_exponents(5000, 1)


class TestElementarySymmetric:
    def test_small(self):
        assert elementary_symmetric(1, 1) == 1
        assert elementary_symmetric(2, 3) == 11  # 1*2 + 1*3 + 2*3
        assert elementary_symmetric(0, 5) == 1
        assert elementary_symmetric(4, 3) == 0

    def test_falling_factorial_identity(self):
        # prod_{j=0}^{m} (w - j) = sum_k (-1)^k e_k(1..m) w^{m+1-k}
        for m in range(1, 6):
            for w in range(1, 11):
                lhs = math.prod(w - j for j in range(m + 1))
                rhs = sum((-1) ** k * elementary_symmetric(k, m) * w ** (m + 1 - k)
                          for k in range(m + 1))
                assert lhs == rhs


class TestHelpers:
    def test_tuple_multiplicity(self):
        assert tuple_multiplicity((1, 1, 1)) == 1
        assert tuple_multiplicity((1, 2)) == 2
        assert tuple_multiplicity((1, 1, 2, 3)) == 12  # 4!/2!

    def test_huge_parts_without_factorials(self):
        # factorial(10**6) alone takes seconds
        start = time.perf_counter()
        assert tuple_multiplicity((1,) * 10 ** 6) == 1
        assert multinomial([10 ** 6 - 1, 1]) == 10 ** 6
        assert multinomial([1, 10 ** 6 - 2, 1]) == 10 ** 6 * (10 ** 6 - 1)
        assert time.perf_counter() - start < 0.5

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=9))
    def test_multinomials(self, n, d):
        thetas = enumerate_exponents(n, d)
        assert multinomials(thetas) == [multinomial(t) for t in thetas]
        assert multinomials(reversed(thetas)) == [multinomial(t) for t in reversed(thetas)]

    def test_index_counts(self):
        assert index_counts((1, 1, 3), 3) == (2, 0, 1)

    def test_index_runs(self):
        assert index_runs((1, 1, 3)) == [(1, 2), (3, 1)]
        assert index_runs((3, 1, 3)) == [(3, 2), (1, 1)]
        assert index_runs((2,) * 7) == [(2, 7)]
        for key in itertools.combinations_with_replacement(range(1, 5), 4):
            counts = index_counts(key, 4)
            assert index_runs(key) == [(i, c) for i, c in enumerate(counts, 1) if c]

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=45))
    def test_falling_factorial_column(self, s, c):
        assert falling_factorial_column(s, c) == [math.perm(t, c) for t in range(s + 1)]


class TestEnumerationLimit:
    def test_limit_inclusive(self):
        check_enumeration_size(MAX_ENUMERATION, "items")
        with pytest.raises(ValueError, match="items: 10001 exceeds the limit"):
            check_enumeration_size(MAX_ENUMERATION + 1, "items")

    def test_count_above_cap_reported_as_more(self):
        with pytest.raises(ValueError, match=f"items: more than {COUNT_CAP} exceeds"):
            check_enumeration_size(COUNT_CAP + 1, "items")

    def test_limit_admits_known_sizes(self):
        # n=6, d=4 at level 6: the SOS basis of C(15, 10) = 3003 monomials
        assert math.comb(6 + 4 + 6 - 1, 4 + 6) <= MAX_ENUMERATION
        # flagship (n=3, d=4) grid at level 30
        assert sum(math.comb(3 + m - 1, m) for m in range(2, 33)) <= MAX_ENUMERATION
        # n=10, d=4 at level 10 is refused
        assert math.comb(10 + 4 + 10 - 1, 4 + 10) > MAX_ENUMERATION


class TestBinomialAtMost:
    @given(st.integers(min_value=0, max_value=80), st.integers(min_value=-2, max_value=82),
           st.integers(min_value=0, max_value=10 ** 15))
    def test_exact_up_to_the_cap(self, n, k, cap):
        exact = math.comb(n, k) if k >= 0 else 0
        assert binomial_at_most(n, k, cap) == (exact if exact <= cap else cap + 1)

    def test_huge_binomial_stops_at_the_cap(self):
        # the exact C(800000, 400000) has about 240 000 digits
        start = time.perf_counter()
        assert binomial_at_most(800_000, 400_000) == COUNT_CAP + 1
        assert binomial_at_most(10 ** 100, 3) == COUNT_CAP + 1
        assert time.perf_counter() - start < 0.1
