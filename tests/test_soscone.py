import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from copotensor.soscone import (build_gram_problem, check_certificate,
                                jacobi_eigh, lift_certificate, member_K_r,
                                solve_gram)
from copotensor.polycone import member_C_r
from copotensor.tensor import SymTensorBuilder, from_matrix
from conftest import rand_nonneg_tensor

BOUNDARY = from_matrix([[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]])


def degree6_example():
    """f = x^6 + y^6 + z^6 + 2x^3y^3 + 2x^3z^3 - 2y^3z^3 as an order-6 tensor
    (mixed canonical entries carry 1/20 of the monomial coefficient)."""
    b = SymTensorBuilder(3, 6)
    for i in (1, 2, 3):
        b.set((i,) * 6, Fraction(1))
    b.set((1, 1, 1, 2, 2, 2), Fraction(1, 10))
    b.set((1, 1, 1, 3, 3, 3), Fraction(1, 10))
    b.set((2, 2, 2, 3, 3, 3), Fraction(-1, 10))
    return b.build()


def full_basis_problem(A, r):
    """Single-block variant of the Gram problem: no parity reduction, with
    explicit zero targets for the odd exponent vectors the cross-parity
    products can reach."""
    p = build_gram_problem(A, r)
    blocks = (tuple(range(len(p.basis))),)
    targets = dict(p.targets)
    constraints: dict = {}
    for i in range(len(p.basis)):
        for j in range(i, len(p.basis)):
            g = tuple(x + y for x, y in zip(p.basis[i], p.basis[j]))
            targets.setdefault(g, 0.0)
            constraints.setdefault(g, []).append((0, i, j))
    return dataclasses.replace(p, blocks=blocks, targets=targets,
                               constraints=constraints)


class TestBuild:
    def test_n2_d2_parity_blocks(self):
        p = build_gram_problem(from_matrix([[1, 0], [0, 1]]), 0)
        assert set(p.basis) == {(2, 0), (1, 1), (0, 2)}
        sizes = sorted(len(b) for b in p.blocks)
        assert sizes == [1, 2]   # {y1 y2} and {y1^2, y2^2}

    def test_n3_d6_basis_size(self):
        p = build_gram_problem(degree6_example(), 0)
        assert len(p.basis) == math.comb(8, 2) == 28

    def test_targets_all_even(self):
        p = build_gram_problem(BOUNDARY, 2)
        assert all(all(e % 2 == 0 for e in g) for g in p.targets)

    def test_every_target_reachable(self):
        p = build_gram_problem(BOUNDARY, 1)
        assert all(p.constraints[g] for g in p.targets)


class TestJacobi:
    def test_matches_numpy(self, rng):
        for _ in range(10):
            m = rng.randint(1, 8)
            M = np.array([[rng.uniform(-1, 1) for _ in range(m)] for _ in range(m)])
            M = M + M.T
            w, V = jacobi_eigh(M)
            assert np.allclose(sorted(w), np.linalg.eigvalsh(M), atol=1e-10)
            assert np.allclose(V @ np.diag(w) @ V.T, M, atol=1e-10)


class TestSolve:
    def test_boundary_matrix_certified_r0(self):
        # P^(0) = (y1^2 - y2^2)^2, an explicit square
        v = solve_gram(build_gram_problem(BOUNDARY, 0))
        assert v.certified
        assert v.residual <= 1e-8 and v.min_eig >= -1e-8

    def test_coefficient_member_certified(self, rng):
        A = rand_nonneg_tensor(rng, 2, 3)
        assert member_C_r(A, 1).member
        assert solve_gram(build_gram_problem(A, 1)).certified

    def test_bad_tolerances_rejected(self):
        p = build_gram_problem(BOUNDARY, 0)
        with pytest.raises(ValueError):
            solve_gram(p, eig_tol=0.0)

    def test_degree6_outcome_recorded(self):
        # the naive 3x3 Gram over the cubes is indefinite; the projection
        # solver's verdict on the extended basis is recorded, not asserted
        # (Unknown is a verdict, never a non-membership proof)
        v = member_K_r(degree6_example(), 0, max_iters=2000)
        assert v.certified in (True, False)
        if v.certified:
            assert v.residual <= 1e-8 and v.min_eig >= -1e-8


class TestMemberKr:
    def test_example31_fast_path(self, example31):
        v = member_K_r(example31, 0)
        assert v.certified and v.fast_path

    def test_zero_tensor(self):
        Z = SymTensorBuilder(2, 2).build()
        v = member_K_r(Z, 0)
        assert v.certified

    def test_strict_containment_over_coefficient_cone(self):
        assert not member_C_r(BOUNDARY, 0).member
        assert member_K_r(BOUNDARY, 0).certified

    def test_monotonicity_via_lifting(self):
        for r in range(4):
            v = member_K_r(BOUNDARY, r)
            assert v.certified, f"level {r}"
            assert v.residual <= 1e-8 and v.min_eig >= -1e-8


class TestCertificates:
    def test_independent_recheck(self):
        p = build_gram_problem(BOUNDARY, 0)
        v = solve_gram(p)
        assert v.certified
        assert check_certificate(p, v.certificate)

    def test_tampered_certificate_fails(self):
        p = build_gram_problem(BOUNDARY, 0)
        v = solve_gram(p)
        v.certificate.block_matrices[0][0, 0] -= 1.0
        assert not check_certificate(p, v.certificate)

    def test_lift_preserves_validity(self):
        low = build_gram_problem(BOUNDARY, 0)
        high = build_gram_problem(BOUNDARY, 1)
        v = solve_gram(low)
        lifted = lift_certificate(low, v.certificate, high)
        assert check_certificate(high, lifted)

    def test_parity_block_soundness(self, rng):
        # the block-diagonal reduction certifies the same instances as the
        # full single-block formulation
        instances = [BOUNDARY,
                     from_matrix([[1, 0], [0, 1]]),
                     rand_nonneg_tensor(rng, 2, 2)]
        for A in instances:
            blocked = solve_gram(build_gram_problem(A, 0)).certified
            full = solve_gram(full_basis_problem(A, 0)).certified
            assert blocked == full
