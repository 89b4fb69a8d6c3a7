import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from copotensor import combinatorics, gridcone
from copotensor.combinatorics import enumerate_exponents
from copotensor.gridcone import GridVerdict, first_appearances, member_O_r
from copotensor.tensor import SymTensor, eval_form, from_matrix
from conftest import (BOUNDARY, HORN, default_tensors, example31_tensor,
                      float_tensors, rand_float_tensor, rand_nonneg_tensor,
                      rand_rational_tensor, reference_cumulative_grid,
                      reference_grid_values)

F = Fraction


def cumulative_points(n, r):
    """The production enumeration's points as Fractions, in its order."""
    return tuple(tuple(F(ci, m) for ci in c) for m, c in first_appearances(n, r))


def level_points(n, r):
    """The points of the cumulative grid with (r+2) x integral: level r's
    own grid, which the cumulative one must hold in full."""
    return tuple(p for p in cumulative_points(n, r)
                 if all((ci * (r + 2)).denominator == 1 for ci in p))


def reference_member_O_r(A, r):
    """Literal reference: eval_form at each point of the reference grid."""
    for p in reference_cumulative_grid(A.n, r):
        v = eval_form(A, p)
        if v < 0:
            return GridVerdict(False, r, p, v)
    return GridVerdict(True, r)


class TestGridPoints:
    def test_n2_r0(self):
        assert set(level_points(2, 0)) == {(F(1), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1))}

    def test_n1_any_r(self):
        for r in range(5):
            assert level_points(1, r) == ((F(1),),)

    def test_n3_r1_count(self):
        assert len(level_points(3, 1)) == math.comb(5, 3) == 10

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
    def test_count_formula_and_validity(self, n, r):
        points = level_points(n, r)
        assert len(points) == math.comb(n + r + 1, r + 2)
        assert len(set(points)) == len(points)
        for p in points:
            assert sum(p) == 1
            assert all(c >= 0 and ((r + 2) * c).denominator == 1 for c in p)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            list(first_appearances(0, 1))
        with pytest.raises(ValueError):
            first_appearances(2, -1)


class TestCumulativeGrid:
    def test_nesting(self):
        for n in (2, 3):
            prev: set = set()
            for r in range(5):
                cur = set(cumulative_points(n, r))
                assert prev <= cur
                assert {tuple(F(c, r + 2) for c in comp)
                        for comp in enumerate_exponents(n, r + 2)} <= cur
                prev = cur

    def test_unit_vertices_always_present(self):
        points = cumulative_points(3, 0)
        for i in range(3):
            e = tuple(F(1 if j == i else 0) for j in range(3))
            assert e in points

    def test_negative_level_rejected(self):
        # level -1 used to be an empty grid, so any tensor was a Member
        with pytest.raises(ValueError, match="r must be >= 0"):
            first_appearances(2, -1)
        with pytest.raises(ValueError, match="r must be >= 0"):
            member_O_r(from_matrix([[1, -2], [-2, 1]]), -1)

    def test_no_duplicates(self):
        pts = cumulative_points(3, 6)
        assert len(set(pts)) == len(pts)


class TestMemberOr:
    def test_nonnegative_tensor_member(self, rng):
        A = rand_nonneg_tensor(rng, 3, 3)
        for r in range(4):
            assert member_O_r(A, r).member

    def test_midpoint_witness(self):
        A = from_matrix([[0, -1], [-1, 0]])
        v = member_O_r(A, 0)
        assert not v.member
        assert v.witness == (F(1, 2), F(1, 2))
        assert v.value == F(-1, 2)

    def test_witness_rechecks_exactly(self, rng):
        found = 0
        for _ in range(20):
            A = rand_rational_tensor(rng, 3, 2)
            v = member_O_r(A, 3)
            if not v.member:
                found += 1
                assert eval_form(A, v.witness) == v.value < 0
        assert found > 0

    def test_notmember_nesting(self, rng):
        # NotMember at r implies NotMember at every higher level
        for _ in range(20):
            A = rand_rational_tensor(rng, 2, 3)
            statuses = [member_O_r(A, r).member for r in range(5)]
            for r in range(4):
                if not statuses[r]:
                    assert not statuses[r + 1]

    def test_vertex_set_containment_bridge(self, rng):
        # structural fact: a larger test-point set induces a smaller cone
        for _ in range(10):
            A = rand_rational_tensor(rng, 2, 2)
            small = set(reference_cumulative_grid(2, 1))
            large = set(reference_cumulative_grid(2, 4))
            assert small <= large
            ok_large = all(eval_form(A, p) >= 0 for p in large)
            ok_small = all(eval_form(A, p) >= 0 for p in small)
            if ok_large:
                assert ok_small


class TestMatchesReference:
    """Integer evaluation over first appearances gives the reference's grid,
    in the same order, and the reference's verdict, witness and value."""

    @settings(max_examples=60, deadline=None)
    @given(float_tensors(), st.integers(min_value=0, max_value=4))
    def test_random_float_tensors(self, A, r):
        assert member_O_r(A, r) == reference_member_O_r(A, r)

    @settings(max_examples=80, deadline=None)
    @given(default_tensors(), st.integers(min_value=0, max_value=4))
    def test_default_tensors_match_the_all_tuple_loop(self, A, r):
        # the default's closed form plus one term per delta gives the values
        # of one term per canonical tuple, and so the same verdict and zeros
        scale, values = gridcone._grid_values(A, r)
        ref_scale, ref_values = reference_grid_values(A, r)
        assert (scale, list(values)) == (ref_scale, list(ref_values))
        verdict, zeros = member_O_r(A, r), gridcone.grid_zeros(A)
        with mock.patch.object(gridcone, "_grid_values", reference_grid_values):
            assert (member_O_r(A, r), gridcone.grid_zeros(A)) == (verdict, zeros)
        assert verdict == reference_member_O_r(A, r)

    @pytest.mark.parametrize("name, A", [
        ("flagship", example31_tensor()), ("horn", HORN), ("boundary", BOUNDARY),
        ("hollow", from_matrix([[0, -1], [-1, 0]])),
        ("float-3-4", rand_float_tensor(random.Random(1), 3, 4)),
        ("float-4-3", rand_float_tensor(random.Random(2), 4, 3))])
    def test_fixed_cases(self, name, A):
        for r in range(5):
            assert member_O_r(A, r) == reference_member_O_r(A, r)

    @pytest.mark.parametrize("n, d", [(1, 9), (2, 9), (2, 13), (3, 10)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_high_orders(self, n, d, seed):
        # long runs of one index, each taken as one power
        for A in (rand_float_tensor(random.Random(seed), n, d),
                  rand_nonneg_tensor(random.Random(seed), n, d)):
            for r in range(3):
                assert member_O_r(A, r) == reference_member_O_r(A, r)

    def test_witnesses_past_the_first_level(self):
        # found at denominators 3..6: exercises the gcd skip and the scaling
        rng = random.Random(3)
        late = 0
        for _ in range(60):
            A = rand_float_tensor(rng, 3, 3)
            v = member_O_r(A, 4)
            assert v == reference_member_O_r(A, 4)
            if not v.member and max(c.denominator for c in v.witness) > 2:
                late += 1
                assert eval_form(A, v.witness) == v.value < 0
        assert late > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cumulative_grid_same_points_same_order(self, n):
        for r in range(7):
            assert cumulative_points(n, r) == reference_cumulative_grid(n, r)


class TestSizeLimit:
    def test_oversized_level_rejected_before_enumeration(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gridcone, "enumerate_exponents",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="exceeds the limit"):
            member_O_r(SymTensor(10, 4, {}, 1), 10)
        with pytest.raises(ValueError, match="exceeds the limit"):
            first_appearances(10, 10)
        assert calls == []

    def test_limit_is_inclusive(self, monkeypatch):
        count = sum(math.comb(3 + m - 1, m) for m in range(2, 7))
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", count)
        assert member_O_r(example31_tensor(), 4).member
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", count - 1)
        with pytest.raises(ValueError):
            member_O_r(example31_tensor(), 4)
