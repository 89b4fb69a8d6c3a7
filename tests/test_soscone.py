import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copotensor import cli, combinatorics, docio, gridcone, polycone, soscone
from copotensor.evidence import check_refutation
from copotensor.faces import point_moments, zero_kernels
from copotensor.gridcone import grid_zeros
from copotensor.soscone import (CHECK_EVERY, DEFAULT_MAX_ITERS, EIG_TOL, MATCH_TOL,
                                RELAXATION, STALL, GramProblem, SosVerdict,
                                _certified, _check_max_iters, _GramLayout,
                                build_gram_problem, lift_certificate, member_K_r,
                                solve_gram, sweep_K_r, uniform_moment)
from copotensor.oracle import simplex_grid_min
from copotensor.polycone import member_C_r
from copotensor.tensor import SymTensor, SymTensorBuilder, eval_form, from_matrix
from conftest import (BOUNDARY, HORN, coefficients, default_tensors,
                      diagonal_certificate, example31_tensor, float_tensors, rand_diag_dominant_tensor,
                      rand_nonneg_tensor, reference_check_refutation,
                      reference_cumulative_grid, reference_gram_targets,
                      reference_project_psd, solve_offering)


def refutes(problem, moments):
    """:func:`check_refutation` on the exact parts of ``problem``."""
    return check_refutation(problem.basis, problem.numerators, problem.blocks, moments)


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
    products can reach.  Its constraints, built on first use from the one
    block, are those listed here."""
    p = build_gram_problem(A, r)
    blocks = (tuple(range(len(p.basis))),)
    targets = dict(p.targets)
    constraints: dict = {}
    for i in range(len(p.basis)):
        for j in range(i, len(p.basis)):
            g = tuple(x + y for x, y in zip(p.basis[i], p.basis[j]))
            targets.setdefault(g, 0.0)
            constraints.setdefault(g, []).append((0, i, j))
    full = dataclasses.replace(p, blocks=blocks, targets=targets)
    assert full.constraints == {g: tuple(pairs) for g, pairs in constraints.items()}
    return full


def _reference_steps(problem):
    """The per-block pieces of the literal references below: the search
    layout (whose refutation both offer the affine step to), the cone
    projection of each block (one eigh per parity block, or per face of a
    block that grid zeros touch), the affine projection, a Python loop over
    every constraint, which records the coefficients it matched, and the
    residual, by the same loop."""
    zeros = grid_zeros(problem.tensor)
    search = _GramLayout(problem, zeros)
    kernels = zero_kernels(problem.basis, problem.blocks, zeros) if zeros \
        else [None] * len(problem.blocks)
    matched = []

    def project_psd(G):
        w, V = np.linalg.eigh(G)
        w = np.maximum(w, 0.0)
        out = (V * w) @ V.T
        return 0.5 * (out + out.T)

    def project_cone(mats):
        out = []
        for G, kernel in zip(mats, kernels):
            if kernel is None:
                out.append(project_psd(G))
                continue
            E, f, _ = kernel
            F = np.ascontiguousarray(E[:, :f])   # BLAS rounds by memory layout
            if F.shape[1] == 0:
                out.append(np.zeros_like(G))
                continue
            inner = F.T @ G @ F
            if F.shape[1] == 1:
                inner = np.maximum(inner, 0.0)
            else:
                w, V = np.linalg.eigh(inner)
                inner = (V * np.maximum(w, 0.0)) @ V.T
            face = F @ inner @ F.T
            out.append(0.5 * (face + face.T))
        return out

    def project_affine(mats):
        out = [m.copy() for m in mats]
        matched.clear()
        for g, pairs in problem.constraints.items():
            t = problem.targets[g]
            cur = 0.0
            weight = 0
            for b, i, j in pairs:
                w = 1 if i == j else 2
                cur += w * out[b][i, j]
                weight += w
            matched.append(cur)
            shift = (t - cur) / weight
            for b, i, j in pairs:
                out[b][i, j] += shift
                if i != j:
                    out[b][j, i] += shift
        return out

    def residual(mats):
        worst = 0.0
        for g, pairs in problem.constraints.items():
            cur = 0.0
            for b, i, j in pairs:
                cur += (1 if i == j else 2) * mats[b][i, j]
            worst = max(worst, abs(cur - problem.targets[g]))
        return worst

    return search, matched, project_cone, project_affine, residual


def least_eigvalsh(mats):
    """The least ``eigvalsh`` eigenvalue over ``mats``: the solver's screen,
    and the figure that a Certified verdict reports."""
    return min(float(np.linalg.eigvalsh(m)[0]) for m in mats)


def reference_solve_gram(problem, max_iters=20000):
    """Literal reference for :func:`solve_gram`: the over-relaxed loop
    x <- P_aff(x + RELAXATION (P_psd(x) - x)) per block, in the same order of
    operations.  At each check that does not certify, the coefficients that
    the last affine step matched go to the solver's refutation search if
    its residual has not fallen below STALL times the last check's (at
    first, the zero start's); that search stops the loop when it finds
    moments."""
    search, matched, project_cone, project_affine, residual = _reference_steps(problem)
    zeros = [np.zeros((len(bl), len(bl))) for bl in problem.blocks]
    last_residual = residual(zeros)
    mats = project_affine(zeros)
    best_residual = float("inf")
    best_min_eig = -float("inf")
    it = 0
    while it < max_iters:
        it += 1
        psd = project_cone(mats)
        relaxed = [m + RELAXATION * (p - m) for m, p in zip(mats, psd)]
        mats = project_affine(relaxed)
        if it % CHECK_EVERY == 0 or it == max_iters:
            me = least_eigvalsh(mats)
            best_min_eig = max(best_min_eig, me)
            res = residual(relaxed)
            best_residual = min(best_residual, res)
            if me >= -EIG_TOL:
                v = _certified(problem, [m.copy() for m in mats], it)
                if v is not None:
                    return v
            stalled = res >= STALL * last_residual
            last_residual = res
            if stalled:
                moments = search.refutation(problem, np.array(matched), it)
                if moments is not None:
                    return SosVerdict(False, problem.r, None, best_residual,
                                      best_min_eig, it, moments=moments)
    return SosVerdict(False, problem.r, None, best_residual, best_min_eig, it)


def reference_dykstra(problem, max_iters=20000):
    """The solver's earlier loop, kept as an independent cross-check:
    alternating projections with Dykstra's correction on the cone side,
    every iterate and its correction per block, and a check every 25
    iterations that offers each affine step to the refutation search."""
    search, matched, project_cone, project_affine, residual = _reference_steps(problem)
    mats = project_affine([np.zeros((len(bl), len(bl))) for bl in problem.blocks])
    corrections = [np.zeros_like(m) for m in mats]
    best_residual = float("inf")
    best_min_eig = -float("inf")
    it = 0
    while it < max_iters:
        it += 1
        shifted = [m + p for m, p in zip(mats, corrections)]
        psd = project_cone(shifted)
        corrections = [sh - ps for sh, ps in zip(shifted, psd)]
        mats = project_affine(psd)
        if it % 25 == 0 or it == max_iters:
            me = least_eigvalsh(mats)
            best_min_eig = max(best_min_eig, me)
            best_residual = min(best_residual, residual(psd))
            if me >= -EIG_TOL:
                v = _certified(problem, [m.copy() for m in mats], it)
                if v is not None:
                    return v
            moments = search.refutation(problem, np.array(matched), it)
            if moments is not None:
                return SosVerdict(False, problem.r, None, best_residual, best_min_eig,
                                  it, moments=moments)
    return SosVerdict(False, problem.r, None, best_residual, best_min_eig, it)


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

    def test_oversized_basis_rejected(self):
        with pytest.raises(ValueError, match="monomial basis size: 817190 exceeds"):
            build_gram_problem(SymTensorBuilder(10, 4, default=1).build(), 10)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", math.comb(2 + 2 + 2 - 1, 2 + 2))
        assert len(build_gram_problem(BOUNDARY, 2).basis) == 5
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", 4)
        with pytest.raises(ValueError):
            build_gram_problem(BOUNDARY, 2)


def _bits(values):
    """The float64 bit patterns of ``values``, every NaN as one pattern: which
    operand a NaN comes from is up to the order numpy's vector loops pick."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.uint64).tolist()


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

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_max_iters_below_one_rejected(self, max_iters):
        with pytest.raises(ValueError):
            solve_gram(build_gram_problem(BOUNDARY, 0), max_iters=max_iters)
        with pytest.raises(ValueError):
            member_K_r(BOUNDARY, 0, max_iters=max_iters)

    def test_degree6_outcome_recorded(self):
        # the naive 3x3 Gram over the cubes is indefinite; the projection
        # solver's verdict on the extended basis is recorded, not asserted
        # (Unknown is a verdict, never a non-membership proof)
        v = member_K_r(degree6_example(), 0, max_iters=2000)
        assert v.certified in (True, False)
        if v.certified:
            assert v.residual <= 1e-8 and v.min_eig >= -1e-8


def _nonnegative(seed, n, d):
    """A member of the sos benchmark pool's fast-path families: each entry,
    in canonical order, k/8 with k drawn from 0..8 by Random(seed)."""
    rng = random.Random(seed)
    b = SymTensorBuilder(n, d)
    for key in itertools.combinations_with_replacement(range(1, n + 1), d):
        b.set(key, Fraction(rng.randint(0, 8), 8))
    return b.build()


class TestFastPath:
    """The fast path returns its verdict without the float checker and with
    no Gram blocks; its residual and minimum eigenvalue are those the checker
    reports for the diagonal certificate, bit for bit.  The zero form takes
    it too, though the checker's strict rule rejects its all-zero blocks."""

    @staticmethod
    def _matches_checker(A, r):
        problem = build_gram_problem(A, r)
        v = soscone._fast_path(problem)
        assert v is not None and v.certified and v.fast_path and v.iterations == 0
        assert v.certificate is None
        assert v.residual == 0.0 and v.min_eig == min(problem.targets.values())
        blocks = diagonal_certificate(problem)
        want = _certified(problem, blocks)
        if not any(problem.numerators):
            assert want is None and v.min_eig == least_eigvalsh(blocks) == 0.0
            return
        assert want is not None
        assert _bits([v.residual, v.min_eig]) == _bits([want.residual, want.min_eig])

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_flagship(self, r):
        self._matches_checker(example31_tensor(), r)

    @pytest.mark.parametrize("seed, n, d", [(4000, 3, 4), (4017, 3, 4),
                                            (5000, 4, 3), (5031, 4, 3)])
    @pytest.mark.parametrize("r", [0, 1])
    def test_pool_members(self, seed, n, d, r):
        self._matches_checker(_nonnegative(seed, n, d), r)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]),
           st.integers(0, 2), st.data())
    def test_hypothesis_shapes(self, shape, r, data):
        n, d = shape
        vals = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1),
                                Fraction(5, 2), Fraction(7), Fraction(10 ** 20, 3)])
        b = SymTensorBuilder(n, d)
        for key in itertools.combinations_with_replacement(range(1, n + 1), d):
            b.set(key, data.draw(vals))
        self._matches_checker(b.build(), r)


class TestMemberKr:
    def test_example31_fast_path(self, example31):
        v = member_K_r(example31, 0)
        assert v.certified and v.fast_path

    def test_zero_tensor(self, monkeypatch):
        # s = 0: the fast path certifies the zero form without the checker,
        # whose strict rule (G + EIG_TOL s I positive definite) rejects the
        # all-zero diagonal certificate
        Z = SymTensorBuilder(2, 2).build()
        for r in (0, 1):
            problem = build_gram_problem(Z, r)
            assert _certified(problem, diagonal_certificate(problem)) is None

        def refuse(*args, **kwargs):
            raise AssertionError("the zero form reached the checker or the solver")

        monkeypatch.setattr(soscone, "_certified", refuse)
        monkeypatch.setattr(soscone, "solve_gram", refuse)
        for r in (0, 1):
            v = member_K_r(Z, r)
            assert v.certified and v.fast_path and (v.residual, v.min_eig) == (0.0, 0.0)
        assert all(v.fast_path for v in sweep_K_r(Z, 2))

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
        assert _certified(p, v.certificate) is not None

    def test_verdict_carries_the_checkers_figures(self):
        # the residual and minimum eigenvalue are recomputed from the blocks
        # by the independent checker, which changes nothing it is given
        p = build_gram_problem(BOUNDARY, 0)
        v = solve_gram(p)
        blocks = [b.copy() for b in v.certificate]
        assert _certified(p, v.certificate) is not None
        assert all(np.array_equal(a, b) for a, b in zip(blocks, v.certificate,
                                                        strict=True))
        assert (v.residual, v.min_eig) == (soscone._residual(v.certificate, p),
                                           least_eigvalsh(v.certificate))

    def test_tampered_certificate_fails(self):
        p = build_gram_problem(BOUNDARY, 0)
        v = solve_gram(p)
        v.certificate[0][0, 0] -= 1.0
        assert _certified(p, v.certificate) is None

    def test_trusted_check_uses_no_lapack(self, monkeypatch):
        # Horn K^(1) (certified on its face), the benchmark's first
        # converge-34 member at level 0 and its lift to level 1, each with a
        # tampered and an indefinite copy: numpy's eigenvalues, patched to
        # put every block far inside the cone or far outside it, change no
        # decision and are only the reported min_eig
        horn = build_gram_problem(HORN, 1)
        low, high = build_gram_problem(_dd(6000), 0), build_gram_problem(_dd(6000), 1)
        solved = solve_gram(horn, max_iters=200), solve_gram(low)
        assert all(v.certified for v in solved)
        checks = []
        for problem, blocks in [(horn, solved[0].certificate), (low, solved[1].certificate),
                                (high, lift_certificate(low, solved[1].certificate, high))]:
            shifted = [b.copy() for b in blocks]
            shifted[0][0, 0] -= 1.0
            indefinite = _indefinite_copy(problem, blocks)
            assert soscone._residual(indefinite, problem) <= MATCH_TOL
            checks += [(problem, blocks), (problem, shifted), (problem, indefinite)]
        decisions = [_certified(problem, blocks) is not None for problem, blocks in checks]
        assert decisions == [True, False, False] * 3

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg factorization called by the trusted check")

        for name in ("svd", "cholesky", "qr", "det", "slogdet"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for fake in (-1e300, 1e300):
            def values(a, *args, **kwargs):
                return np.full(np.shape(a)[:-1], fake)

            def pairs(a, *args, **kwargs):
                return values(a), np.eye(np.shape(a)[-1]) * np.ones(np.shape(a))

            for name, wrong in (("eigvalsh", values), ("eigvals", values),
                                ("eigh", pairs), ("eig", pairs)):
                monkeypatch.setattr(np.linalg, name, wrong)
            verdicts = [_certified(problem, blocks) for problem, blocks in checks]
            assert [v is not None for v in verdicts] == decisions, fake
            assert all(v.min_eig == fake for v in verdicts if v is not None)

    def test_exact_rule_at_the_threshold(self):
        # x1^2 - x1 x2 + x2^2: blocks [[1, q], [q, 1]] on (y2^2, y1^2) and
        # [1 + 2 delta] on y1 y2 with q = -1 - delta match it exactly; the
        # least eigenvalue 1 + q = -delta sits within 2^-52 on either side of
        # -EIG_TOL, closer than a float eigenvalue near 1 can tell
        problem = build_gram_problem(from_matrix([[1, Fraction(-1, 2)],
                                                  [Fraction(-1, 2), 1]]), 0)
        assert problem.blocks == ((0, 2), (1,))
        tau = Fraction(EIG_TOL)
        for k, accepted in ((45035996, True), (45035997, False)):
            delta = Fraction(k, 2 ** 52)
            assert (delta < tau) is accepted and abs(delta - tau) < Fraction(1, 2 ** 52)
            q = float(-1 - delta)
            blocks = [np.array([[1.0, q], [q, 1.0]]), np.array([[-1.0 - 2.0 * q]])]
            assert Fraction(q) == -1 - delta and Fraction(blocks[1][0, 0]) == 1 + 2 * delta
            assert soscone._residual(blocks, problem) == 0.0
            assert (_certified(problem, blocks) is not None) is accepted, k

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_not_certified(self, bad):
        p = build_gram_problem(BOUNDARY, 0)
        v = solve_gram(p)
        for b, (i, j) in ((0, (0, 0)), (0, (0, 1)), (len(v.certificate) - 1, (0, 0))):
            blocks = [x.copy() for x in v.certificate]
            blocks[b][i, j] = blocks[b][j, i] = bad
            assert _certified(p, blocks) is None

    def test_tiny_blocks_decided_without_a_floor(self):
        # s [[1, -2], [-2, 1]] (least eigenvalue -s) and s [[1, -1/2], [-1/2, 1]],
        # beside [0] on y1 y2, at every scale s = 2^-k: entries far below any
        # fixed floor (2^-60 at k = 60) are decided like those at scale 1
        for k in range(61):
            s = 2.0 ** -k
            for off, accepted in ((-2.0, False), (-0.5, True)):
                exact, exact_off = Fraction(s), Fraction(off) * Fraction(s)
                problem = build_gram_problem(
                    from_matrix([[exact, exact_off], [exact_off, exact]]), 0)
                blocks = [s * np.array([[1.0, off], [off, 1.0]]), np.zeros((1, 1))]
                assert soscone._residual(blocks, problem) == 0.0
                assert (_certified(problem, blocks) is not None) is accepted, (k, off)

    def test_exact_rule_agrees_with_eigvalsh(self):
        # 200 seeded blocks, m = 1..12: positive semidefinite, indefinite and
        # rank-deficient ones shifted to within a few EIG_TOL s of the
        # threshold, each the one block of a problem that it matches with
        # residual 0; wherever eigvalsh puts the least eigenvalue farther
        # than 1e-12 from -EIG_TOL s, the exact rule agrees with it
        rng = np.random.default_rng(27)
        outcomes = []
        for k in range(200):
            m = 1 + k % 12
            X = rng.standard_normal((m, m))
            kind = k // 12 % 3
            if kind == 0:
                G = X @ X.T
            elif kind == 1:
                G = X + X.T
            else:
                Y = X[:, :m - 1]
                G = Y @ Y.T - rng.choice([0.5, 0.9, 1.1, 2.0]) * EIG_TOL * np.eye(m)
            problem = _one_block_problem(G)
            tau = EIG_TOL * min(1.0, max(map(abs, problem.targets.values())))
            low = least_eigvalsh([G])
            if abs(low + tau) > 1e-12:
                outcomes.append((low > -tau, _certified(problem, [G]) is not None,
                                 abs(low + tau) < 2 * tau))
        assert len(outcomes) >= 180
        assert all(want == got for want, got, _ in outcomes)
        # both sides are reached, also within 2 EIG_TOL s of the threshold
        assert {want for want, _, near in outcomes if near} == {True, False}

    def test_lift_preserves_validity(self):
        low = build_gram_problem(BOUNDARY, 0)
        high = build_gram_problem(BOUNDARY, 1)
        v = solve_gram(low)
        lifted = lift_certificate(low, v.certificate, high)
        assert _certified(high, lifted) is not None

    def test_level_one_lifts_the_level_zero_certificate(self):
        # a member of the sos benchmark pool (converge-34, generator seed
        # 6002) whose level-0 blocks lift only as accepted: clipped first,
        # the lift misses MATCH_TOL and level 1 is solved again (60)
        entries = {(1, 1, 1, 1): "21/16", (1, 1, 1, 2): "-1/8", (1, 1, 1, 3): "1/8",
                   (1, 1, 2, 2): "1/8", (1, 1, 2, 3): "-1/8", (1, 2, 2, 3): "-1/8",
                   (2, 2, 2, 2): "9/8", (2, 2, 2, 3): "-1/16", (2, 2, 3, 3): "1/16",
                   (2, 3, 3, 3): "-1/16", (3, 3, 3, 3): "5/4"}
        b = SymTensorBuilder(3, 4)
        for key, val in entries.items():
            b.set(key, Fraction(val))
        A = b.build()
        assert grid_zeros(A) == ()
        low, high = sweep_K_r(A, 1)
        assert low.certified and low.iterations == 80
        assert high.certified and high.iterations == low.iterations

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


def _tiny_document(off):
    return ('{"n": 2, "d": 2, "default": "1/1000000000000", "entries": '
            f'[{{"idx": [1, 2], "val": "{off}"}}]}}')


class TestToleranceScale:
    """The checker holds a certificate to MATCH_TOL s and EIG_TOL s, s =
    min(1, max |target|): absolute tolerances of 1e-8 accepted any Gram
    matrix of a form whose coefficients are all near 1e-12."""

    def test_tiny_not_copositive_document_refuted(self, tmp_path, capsys):
        # 1e-12 (x1^2 + x2^2) - 4e-12 x1 x2 is -1/2000000000000 at (1/2, 1/2);
        # with absolute tolerances the sos check called it Certified
        doc, out = tmp_path / "tiny.json", tmp_path / "sos.json"
        doc.write_text(_tiny_document("-2/1000000000000"))
        assert cli.main(["check", "--method", "sos", str(doc), "--out", str(out)]) == 1
        cert = json.loads(out.read_text())
        assert (cert["verdict"], cert["stats"]["iterations"]) == ("NotMember", 5)
        assert cli.main(["verify", str(out), "--tensor", str(doc)]) == 0
        assert cli.main(["certify", str(doc)]) == 1
        capsys.readouterr()
        assert cli.main(["compare", "--levels", "1", "--max-iters", "500", "--json",
                         str(doc)]) == 1
        hierarchies = json.loads(capsys.readouterr().out)["hierarchies"]
        assert hierarchies["sos"] == hierarchies["grid"] == ["NotMember"] * 2

    def test_tiny_psd_document_certified(self, tmp_path):
        doc, out = tmp_path / "tiny.json", tmp_path / "sos.json"
        doc.write_text(_tiny_document("-1/2000000000000"))
        assert cli.main(["check", "--method", "sos", str(doc), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert (cert["verdict"], cert["stats"]["iterations"]) == ("Certified", 5)
        assert cert["stats"]["fast_path"] is False

    # x1^2 + 1e-12 (x2^2 + x3^2) - 4e-12 x2 x3 is -1/2000000000000 at
    # (0, 1/2, 1/2); the y_i^2 monomials share one parity block, so the
    # tolerance scale is s = 1 and the sos check says Certified
    MIXED = ('{"n": 3, "d": 2, "entries": [{"idx": [1, 1], "val": "1"}, '
             '{"idx": [2, 2], "val": "1/1000000000000"}, '
             '{"idx": [3, 3], "val": "1/1000000000000"}, '
             '{"idx": [2, 3], "val": "-2/1000000000000"}]}')

    def test_tiny_part_beside_a_unit_diagonal_refuted_by_certify(self, tmp_path):
        doc = tmp_path / "mixed.json"
        doc.write_text(self.MIXED)
        assert cli.main(["certify", str(doc)]) == 1

    @pytest.mark.xfail(strict=True, reason="one tolerance scale per problem: exact "
                       "Gram blocks (ROADMAP item 6) close it")
    def test_tiny_part_beside_a_unit_diagonal_not_certified(self, tmp_path):
        doc = tmp_path / "mixed.json"
        doc.write_text(self.MIXED)
        assert cli.main(["check", "--method", "sos", str(doc)]) != 0

    def test_scaled_2x2_verdicts(self):
        # never Certified outside the cone at any scale 2^-k, k <= 60, and
        # always refuted there; the PSD form is solved and certified at level 0
        for k in range(61):
            s = Fraction(1, 2 ** k)
            for r in (0, 1, 2):
                v = member_K_r(from_matrix([[s, -2 * s], [-2 * s, s]]), r)
                assert v.verdict == "NotMember", (k, r)
            v = member_K_r(from_matrix([[s, -s / 2], [-s / 2, s]]), 0)
            assert v.certified and not v.fast_path and v.iterations == 5, k


def _one_block_problem(G):
    """A Gram problem whose one block is G, over the two-variable monomials
    of degree m - 1, with the targets that G matches by the checker's own
    constraint loop: residual 0.0."""
    m = len(G)
    basis = tuple((m - 1 - i, i) for i in range(m))
    products = dict.fromkeys((2 * m - 2 - i - j, i + j) for i in range(m) for j in range(m))
    bare = GramProblem(None, 0, basis, [], 1, dict.fromkeys(products, 0.0),
                       (tuple(range(m)),))
    targets = {}
    for g, pairs in bare.constraints.items():
        cur = 0.0
        for _, i, j in pairs:
            cur += (1 if i == j else 2) * G[i][j]
        targets[g] = cur
    problem = dataclasses.replace(bare, targets=targets)
    assert soscone._residual([G], problem) == 0.0
    return problem


def _indefinite_copy(problem, blocks):
    """A copy of ``blocks`` that matches every coefficient as before but is
    indefinite: an off-diagonal entry (j, k) and its mirror move by -delta,
    and the diagonal entry of the monomial (b_j + b_k) / 2, which meets the
    same target, by +2 delta, with delta above every entry's size."""
    for pairs in problem.constraints.values():
        diagonal = [(b, i) for b, i, j in pairs if i == j]
        off = [(b, i, j) for b, i, j in pairs if i != j]
        if diagonal and off:
            break
    (bd, i), (bo, j, k) = diagonal[0], off[0]
    out = [b.copy() for b in blocks]
    delta = 1.0 + 10.0 * max(float(np.abs(b).max()) for b in blocks)
    out[bd][i, i] += 2.0 * delta
    out[bo][j, k] -= delta
    out[bo][k, j] -= delta
    return out


def _dd(seed, off_scale=2):
    return rand_diag_dominant_tensor(random.Random(seed), 3, 4, off_scale=off_scale)


class TestMatchesReference:
    # (id, problem, max_iters, certified): size-stacked blocks (6, 3, 3, 3)
    # with no grid zeros, and faces cut by grid zeros: BOUNDARY's zero
    # (1/2, 1/2) leaves a face of dimension 1 on its 2x2 block and 0 on its
    # 1x1 one, Horn's ten zeros leave dimension 0 on every block at r = 0 and
    # 1 or 0 at r = 1 (certified at 70), and the single 3x3 block of
    # BOUNDARY's full basis keeps dimension 2
    CASES = [
        ("boundary-r0", lambda: build_gram_problem(BOUNDARY, 0), 20000, True),
        ("dd6002-r0", lambda: build_gram_problem(_dd(6002), 0), 20000, True),
        ("dd6002-r1", lambda: build_gram_problem(_dd(6002), 1), 20000, True),
        ("dd6003-r0", lambda: build_gram_problem(_dd(6003), 0), 20000, True),
        ("dd6003-r1", lambda: build_gram_problem(_dd(6003), 1), 20000, True),
        ("horn-r0", lambda: build_gram_problem(HORN, 0), 200, False),
        ("horn-r0-2000", lambda: build_gram_problem(HORN, 0), 2000, False),
        ("horn-r1", lambda: build_gram_problem(HORN, 1), 200, True),
        ("off6-r0", lambda: build_gram_problem(_dd(2, off_scale=6), 0), 200, False),
        ("full-basis", lambda: full_basis_problem(BOUNDARY, 0), 20000, True),
    ]

    @pytest.mark.parametrize("make, max_iters, certified", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_same_verdict_and_blocks(self, make, max_iters, certified):
        problem = make()
        got = solve_gram(problem, max_iters=max_iters)
        want = reference_solve_gram(problem, max_iters=max_iters)
        assert want.certified is certified
        assert (got.verdict, got.iterations, got.residual, got.min_eig, got.moments) == \
            (want.verdict, want.iterations, want.residual, want.min_eig, want.moments)
        if certified:
            assert len(got.certificate) == len(problem.blocks)
            assert all(np.array_equal(a, b) for a, b in
                       zip(got.certificate, want.certificate))
            assert _bits([got.min_eig]) == _bits([least_eigvalsh(got.certificate)])
        else:
            assert got.certificate is None

    def test_stacked_psd_projection_equals_per_matrix(self, rng):
        for m in range(1, 7):
            for k in (1, 2, 5):
                S = np.array([[[rng.uniform(-1, 1) for _ in range(m)]
                               for _ in range(m)] for _ in range(k)])
                S = S + np.swapaxes(S, 1, 2)
                assert np.array_equal(reference_project_psd(S),
                                      np.stack([reference_project_psd(G) for G in S]))

    def test_layout_projection_equals_project_psd_bitwise(self, rng):
        # Horn at r = 0: ten 1x1 blocks, clamped without eigh, and one 5x5
        problem = build_gram_problem(HORN, 0)
        layout = _GramLayout(problem)
        ones = [-0.0, 0.0, -1.5, 2.5, 1e-300, -1e-300, 5e-324, -5e-324, 3.0, -7.0]
        for o, m in layout.spans:
            if m == 1:
                layout.iterate[o] = ones.pop()
            else:
                G = np.array([[rng.uniform(-1, 1) for _ in range(m)] for _ in range(m)])
                layout.iterate[o:o + m * m] = (G + G.T).ravel()
        assert not ones
        layout.project_psd()
        for size in (1, 5):
            spans = [o for o, m in layout.spans if m == size]
            src = np.stack([layout.iterate[o:o + size * size].reshape(size, size)
                            for o in spans])
            got = np.stack([layout.cone[o:o + size * size].reshape(size, size)
                            for o in spans])
            want = reference_project_psd(src)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert layout.min_eig() == min(float(np.linalg.eigvalsh(b)[0])
                                       for b in layout.block_matrices())

    def test_one_eigh_per_larger_size_per_iteration(self, monkeypatch):
        # no grid zeros and block sizes 3, 3, 3 and 6: one eigh per size per
        # iteration; Horn at r = 0, whose every block has face dimension 0,
        # takes none per iteration, only one per block (ten 1x1, one 5x5)
        # for the faces
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        v = solve_gram(build_gram_problem(_dd(6002), 0), max_iters=25)
        assert v.iterations == 25 and not v.certified
        assert calls == [(3, 3, 3), (1, 6, 6)] * 25
        calls.clear()
        v = solve_gram(build_gram_problem(HORN, 0), max_iters=25)
        assert v.verdict == "NotMember" and sorted(calls) == [(1, 1)] * 10 + [(5, 5)]


class TestAgreesWithDykstra:
    """The relaxed loop changes how the solver iterates, not what it may
    conclude: wherever the earlier Dykstra loop (:func:`reference_dykstra`)
    is definitive within its budget, the solver gives the same verdict within
    the same budget; where Dykstra is Unknown, the solver may decide."""

    @pytest.mark.parametrize("make, max_iters",
                             [c[1:3] for c in TestMatchesReference.CASES],
                             ids=[c[0] for c in TestMatchesReference.CASES])
    def test_reference_cases(self, make, max_iters):
        problem = make()
        want = reference_dykstra(problem, max_iters=max_iters)
        got = solve_gram(problem, max_iters=max_iters)
        assert want.verdict == "Unknown" or got.verdict == want.verdict

    def test_seeded_diag_dominant(self):
        # 100 tensors, n = 3 and 4, d = 2..4, mixed entries up to off/16 of
        # either sign; level 0 with a budget of 1000 iterations each
        pairs = []
        for seed in range(100):
            n, d = 3 + seed % 2, (2, 3, 4)[seed // 2 % 3]
            off = (1, 2, 3, 4, 6)[seed // 6 % 5]
            A = rand_diag_dominant_tensor(random.Random(7000 + seed), n, d, off_scale=off)
            problem = build_gram_problem(A, 0)
            if soscone._fast_path(problem) is None:
                pairs.append((reference_dykstra(problem, max_iters=1000).verdict,
                              solve_gram(problem, max_iters=1000).verdict))
        assert all(want in ("Unknown", got) for want, got in pairs), pairs
        decided = {want for want, _ in pairs}
        assert {"Certified", "NotMember"} <= decided


OFF_GRID = from_matrix([[4, -6], [-6, 9]])   # (2 x1 - 3 x2)^2


def reference_member_K_r(A, r, max_iters=DEFAULT_MAX_ITERS):
    """Literal reference for :func:`member_K_r` before the level walk.
    Non-negative coefficients are the proof by themselves, checked by no
    checker (the zero form's all-zero blocks would fail its strict rule):
    the diagonal certificate, with its residual and least ``eigvalsh``
    eigenvalue.  Else a form with no grid zeros solves level r alone, and
    one with some, or whose solve is Unknown, has every level's problem
    built up front, each lower level solved again and its certificate
    lifted up the whole chain."""
    _check_max_iters(max_iters)
    problem = build_gram_problem(A, r)
    if all(c >= 0 for c in coefficients(A, r).values()):
        blocks = diagonal_certificate(problem)
        return SosVerdict(True, r, blocks, soscone._residual(blocks, problem),
                          least_eigvalsh(blocks), fast_path=True)
    if not grid_zeros(A):
        v = solve_gram(problem, max_iters)
        if v.verdict != "Unknown":
            return v
    problems = [build_gram_problem(A, rr) for rr in range(r)] + [problem]
    last = None
    for rr in range(r + 1):
        v = solve_gram(problems[rr], max_iters)
        if rr == r:
            last = v
        if not v.certified:
            continue
        lifted = v
        for step in range(rr, r):
            lifted = _certified(problems[step + 1],
                                lift_certificate(problems[step], lifted.certificate,
                                                 problems[step + 1]),
                                v.iterations)
            if lifted is None:
                break
        if lifted is not None:
            return lifted
    return last


class TestLevelWalk:
    # (id, tensor, top level, max_iters): lifted chains (BOUNDARY), Horn
    # (refuted at level 0, certified on its face at level 1 in 70
    # iterations, or stopped short of that: Unknown), a zero off the grid
    # (level 0 certified in 60 and lifted; a direct level-1 or level-2 solve
    # is Unknown), solves at each level, the fast path and the zero tensor
    CASES = [
        ("boundary", lambda: BOUNDARY, 3, DEFAULT_MAX_ITERS),
        ("horn", lambda: HORN, 1, 200),
        ("horn-short", lambda: HORN, 1, 50),
        ("off-grid", lambda: OFF_GRID, 2, 300),
        ("dd6002", lambda: _dd(6002), 1, DEFAULT_MAX_ITERS),
        ("dd6003", lambda: _dd(6003), 1, DEFAULT_MAX_ITERS),
        ("example31", example31_tensor, 1, DEFAULT_MAX_ITERS),
        ("zero", lambda: SymTensorBuilder(2, 2).build(), 1, DEFAULT_MAX_ITERS),
    ]
    IDS = [c[0] for c in CASES]

    @pytest.mark.parametrize("make, top, max_iters", [c[1:] for c in CASES], ids=IDS)
    def test_member_matches_reference(self, make, top, max_iters):
        A = make()
        for r in range(top + 1):
            got = member_K_r(A, r, max_iters=max_iters)
            want = reference_member_K_r(A, r, max_iters=max_iters)
            assert (got.certified, got.r, got.iterations, got.residual,
                    got.min_eig, got.fast_path) == \
                (want.certified, want.r, want.iterations, want.residual,
                 want.min_eig, want.fast_path), f"level {r}"
            if got.fast_path:
                # no blocks: the figures are the reference's diagonal ones
                assert got.certificate is None
                assert _bits([got.residual, got.min_eig]) == \
                    _bits([want.residual, want.min_eig])
            elif want.certified:
                assert all(np.array_equal(a, b) for a, b in
                           zip(got.certificate, want.certificate, strict=True))
                assert _bits([got.min_eig]) == _bits([least_eigvalsh(got.certificate)])
            else:
                assert got.certificate is None

    @pytest.mark.parametrize("make, top, max_iters", [c[1:] for c in CASES], ids=IDS)
    def test_sweep_matches_reference_per_level(self, make, top, max_iters):
        A = make()
        verdicts = sweep_K_r(A, top, max_iters=max_iters)
        assert [v.r for v in verdicts] == list(range(top + 1))
        assert [v.certified for v in verdicts] == \
            [reference_member_K_r(A, r, max_iters=max_iters).certified
             for r in range(top + 1)]
        for v in verdicts:
            if v.fast_path:
                problem = build_gram_problem(A, v.r)
                blocks = diagonal_certificate(problem)
                assert v.certificate is None
                # the checker accepts the diagonal certificate, except the
                # zero form's all-zero blocks: G + 0 I is not positive definite
                assert (_certified(problem, blocks) is None) == (not any(problem.numerators))
                assert _bits([v.residual]) == _bits([soscone._residual(blocks, problem)])
            else:
                blocks = v.certificate
            if v.certified:
                assert _bits([v.min_eig]) == _bits([least_eigvalsh(blocks)])

    @staticmethod
    def _counting(monkeypatch):
        """Record each solve's level, each lift's target level and each
        grid zero search while the test runs."""
        calls = {"solve": [], "lift": [], "zeros": 0}
        solve, lift, search = solve_gram, lift_certificate, gridcone.grid_zeros

        def solving(problem, *args, **kwargs):
            calls["solve"].append(problem.r)
            return solve(problem, *args, **kwargs)

        def lifting(low, blocks, high):
            calls["lift"].append(high.r)
            return lift(low, blocks, high)

        def searching(A):
            calls["zeros"] += 1
            return search(A)

        monkeypatch.setattr(soscone, "solve_gram", solving)
        monkeypatch.setattr(soscone, "lift_certificate", lifting)
        monkeypatch.setattr(gridcone, "grid_zeros", searching)
        return calls

    @pytest.mark.parametrize("A, solves, lifts", [(HORN, [0, 1], [2]),
                                                  (BOUNDARY, [0], [1, 2])],
                             ids=["horn", "boundary"])
    def test_face_query_certified_through_a_lift(self, monkeypatch, A, solves, lifts):
        # grid zeros force faces, where a direct level-2 solve can stall
        # (Horn: Unknown after 3000 iterations); the walk lifts the level
        # below and searches the zeros once for all its solves
        calls = self._counting(monkeypatch)
        v = member_K_r(A, 2)
        assert v.verdict == "Certified" and not v.fast_path
        assert calls == {"solve": solves, "lift": lifts, "zeros": 1}

    @pytest.mark.parametrize("r", [1, 2])
    def test_unknown_solve_falls_back_to_the_walk(self, monkeypatch, r):
        # (2 x1 - 3 x2)^2 vanishes at (3/5, 2/5), off the grid: the level-r
        # solve is Unknown, and the walk lifts level 0's certificate
        assert grid_zeros(OFF_GRID) == ()
        assert solve_gram(build_gram_problem(OFF_GRID, r), max_iters=300).verdict == "Unknown"
        calls = self._counting(monkeypatch)
        v = member_K_r(OFF_GRID, r, max_iters=300)
        assert (v.verdict, v.iterations) == ("Certified", 60)
        assert calls == {"solve": [r, 0], "lift": list(range(1, r + 1)), "zeros": 1}

    @pytest.mark.parametrize("seed", [6002, 6003])
    @pytest.mark.parametrize("r", [1, 2])
    def test_zero_free_query_solves_level_r_alone(self, monkeypatch, seed, r):
        A = _dd(seed)
        assert grid_zeros(A) == ()
        calls = self._counting(monkeypatch)
        v = member_K_r(A, r)
        assert v.certified and not v.fast_path
        assert calls == {"solve": [r], "lift": [], "zeros": 1}

    def test_zero_free_member_agrees_with_the_walk(self):
        # 40 seeded diag-dominant tensors with no grid zeros, levels 1 and
        # 2: the one solve gives the verdict of the walk that lifts
        verdicts = []
        shapes = [(3, 2, 6), (4, 2, 4), (3, 3, 5), (4, 2, 6), (3, 4, 4), (4, 3, 4),
                  (3, 2, 8), (3, 4, 6)]
        for seed in range(40):
            n, d, off = shapes[seed % len(shapes)]
            A = rand_diag_dominant_tensor(random.Random(28000 + seed), n, d, off_scale=off)
            assert grid_zeros(A) == ()
            for r in (1, 2):
                got = member_K_r(A, r, max_iters=2000)
                assert got.verdict == sweep_K_r(A, r, max_iters=2000)[-1].verdict, (seed, r)
                if not got.fast_path:
                    verdicts.append(got.verdict)
        assert {"Certified", "NotMember"} <= set(verdicts)

    def test_compare_solves_each_level_once(self, tmp_path, monkeypatch, capsys):
        # Horn is refuted at level 0 and certified by a solve at level 1, and
        # level 2 lifts that certificate: two solves, where re-walking levels
        # 0..r for each r made 1 + 2 + 3
        calls = []

        def counting(problem, *args, **kwargs):
            calls.append(problem.r)
            return solve_gram(problem, *args, **kwargs)

        monkeypatch.setattr(soscone, "solve_gram", counting)
        path = tmp_path / "horn.json"
        path.write_text(docio.emit_tensor(HORN))
        code = cli.main(["compare", "--levels", "2", "--max-iters", "500",
                         "--budget", "50", "--json", str(path)])
        # the budget bounds only branch-and-bound; certify's scan decides Horn
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hierarchies"]["sos"] == ["NotMember", "Certified", "Certified"]
        assert calls == [0, 1]

    @pytest.mark.parametrize("command", [
        ["check", "--method", "sos", "--level", "500", "--max-iters", "3"],
        ["compare", "--levels", "500"]], ids=["check", "compare"])
    def test_total_basis_over_levels_exit_3(self, tmp_path, capsys, command):
        # every level's own basis (at most 503) is small; their sum is not
        path = tmp_path / "boundary.json"
        path.write_text(docio.emit_tensor(BOUNDARY))
        assert cli.main(command + [str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "levels 0..500 monomial basis size: 126753 exceeds" in captured.err

    def test_total_limit_is_inclusive(self, monkeypatch):
        total = sum(math.comb(2 + 2 + r - 1, 2 + r) for r in range(3))
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", total)
        assert [v.certified for v in sweep_K_r(BOUNDARY, 2)] == [True] * 3
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", total - 1)
        with pytest.raises(ValueError, match="levels 0..2 monomial basis size"):
            sweep_K_r(BOUNDARY, 2)
        # member_K_r bounds the walk before its fast path builds anything
        identity = from_matrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="levels 0..2 monomial basis size"):
            member_K_r(identity, 2)
        monkeypatch.setattr(combinatorics, "MAX_ENUMERATION", total)
        assert member_K_r(identity, 2).fast_path

    @pytest.mark.parametrize("command", [
        ["check", "--method", "sos", "--level", "0"],
        ["compare", "--levels", "0"]], ids=["check", "compare"])
    def test_coefficient_beyond_float_range_exit_3(self, tmp_path, capsys, command):
        huge = SymTensorBuilder(2, 2)
        huge.set((1, 1), Fraction(1))
        huge.set((1, 2), Fraction(-1))
        huge.set((2, 2), Fraction(10 ** 400))
        path = tmp_path / "huge.json"
        path.write_text(docio.emit_tensor(huge.build()))
        assert cli.main(command + [str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a level 0 coefficient is beyond float range\n"

    def test_negative_top_level_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            sweep_K_r(BOUNDARY, -1)
        path = tmp_path / "boundary.json"
        path.write_text(docio.emit_tensor(BOUNDARY))
        assert cli.main(["compare", "--levels", "-1", str(path)]) == 3
        assert capsys.readouterr().out == ""


NOT_COPOSITIVE = from_matrix([[1, -2], [-2, 1]])    # -2 at (1, 1)


class TestRefutation:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_not_copositive_matrix_refuted(self, r):
        v = member_K_r(NOT_COPOSITIVE, r)
        assert v.verdict == "NotMember" and not v.certified and v.certificate is None
        assert refutes(build_gram_problem(NOT_COPOSITIVE, r), v.moments)

    def test_horn_level1_certified_on_faces_without_eigh(self, monkeypatch):
        # Horn lies in K^(1) (Parrilo 2000) but on the boundary of the PSD
        # cone: its ten grid zeros leave faces of dimension 1 on the five 5x5
        # blocks and 0 on five 1x1 ones, so every projection is a clamp; the
        # only eigh calls find those faces, one per block
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        problem = build_gram_problem(HORN, 1)
        v = solve_gram(problem)
        assert (v.verdict, v.iterations) == ("Certified", 70)
        assert sorted(calls) == [(1, 1)] * 5 + [(5, 5)] * 5
        assert _certified(problem, v.certificate) is not None
        assert member_K_r(HORN, 1).certified

    def test_checker_rejects_tampered_moments(self):
        problem = build_gram_problem(HORN, 0)
        v = solve_gram(problem)
        assert (v.verdict, v.iterations) == ("NotMember", 5)
        moments = v.moments
        assert refutes(problem, moments)
        # every moment is a diagonal entry of a positive definite block
        assert all(m > 0 for m in moments.values())
        first = min(moments)
        for bad in ({**moments, first: -moments[first]},
                    {**moments, first: Fraction(0)},
                    {g: m for g, m in moments.items() if g != first},
                    {**moments, (9, 0, 0, 0, 0): Fraction(1)},
                    {g: -m for g, m in moments.items()}):
            assert not refutes(problem, bad)

    def test_uniform_moments_never_refute_a_member(self):
        # L(P) is the integral of P over [0, 1]^n, non-negative for a
        # non-negative P, though every block is positive definite
        for A in (BOUNDARY, HORN):
            problem = build_gram_problem(A, 1)
            uniform = {g: uniform_moment(g) for g in problem.targets}
            assert not refutes(problem, uniform)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]), st.integers(0, 2),
           st.data())
    def test_not_member_only_outside_the_lower_cones(self, shape, r, data):
        # NotMember at level r: outside C^(r), which lies inside K^(r), and
        # never Certified at level r - 1, which K^(r) contains
        n, d = shape
        vals = st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(0),
                                Fraction(1, 2), Fraction(1), Fraction(2)])
        b = SymTensorBuilder(n, d)
        for key in itertools.combinations_with_replacement(range(1, n + 1), d):
            b.set(key, data.draw(vals))
        A = b.build()
        v = member_K_r(A, r, max_iters=500)
        if v.verdict != "NotMember":
            return
        assert refutes(build_gram_problem(A, r), v.moments)
        assert not member_C_r(A, r).member
        if r > 0:
            assert not member_K_r(A, r - 1, max_iters=500).certified


def _vanishing_grid_points(A):
    """The points of the cumulative level-2 grid (denominators 2..4) where
    eval_form is exactly 0."""
    return sorted(p for p in reference_cumulative_grid(A.n, 2) if eval_form(A, p) == 0)


def _as_points(zeros):
    return sorted(tuple(Fraction(ci, m) for ci in c) for m, c in zeros)


def _expansion_zeros(A, r):
    """Reference for :func:`gridcone.grid_zeros` through the level-r
    expansion: the points c / m of the level-2 grid, in first_appearances
    order, where m^s P^(r)(sqrt(c / m)) = sum_theta p_theta c^theta is 0 on
    the level's exact coefficients.  On the simplex P^(r)(sqrt(x)) = f(x), so
    the zeros do not depend on r."""
    coeffs = coefficients(A, r)
    return tuple((m, c) for m, c in gridcone.first_appearances(A.n, 2)
                 if sum(p * math.prod(ci ** t for ci, t in zip(c, theta))
                        for theta, p in coeffs.items()) == 0)


class TestFace:
    TENSORS = [("horn", lambda: HORN), ("boundary", lambda: BOUNDARY),
               ("flagship", example31_tensor), ("dd6002", lambda: _dd(6002)),
               ("not-copositive", lambda: NOT_COPOSITIVE),
               ("zero", lambda: SymTensorBuilder(2, 3).build())]

    @pytest.mark.parametrize("make", [c[1] for c in TENSORS], ids=[c[0] for c in TENSORS])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_zeros_are_where_the_form_vanishes_on_the_grid(self, make, r):
        A = make()
        zeros = grid_zeros(A)
        assert zeros == _expansion_zeros(A, r)
        assert all(eval_form(A, p) == 0 for p in _as_points(zeros))
        assert _as_points(zeros) == _vanishing_grid_points(A)
        assert len({tuple(p) for p in _as_points(zeros)}) == len(zeros)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]), st.integers(0, 2),
           st.data())
    def test_zeros_match_eval_form(self, shape, r, data):
        n, d = shape
        vals = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1), Fraction(2)])
        b = SymTensorBuilder(n, d)
        for key in itertools.combinations_with_replacement(range(1, n + 1), d):
            b.set(key, data.draw(vals))
        A = b.build()
        assert grid_zeros(A) == _expansion_zeros(A, r)
        assert _as_points(grid_zeros(A)) == _vanishing_grid_points(A)

    def test_level_past_the_old_cap_searched(self):
        # n = 6, d = 4, zero on the edge from e_1 to e_2: the expansion route
        # at r = 2 would cost 203 grid points times 462 coefficients, past
        # SEARCH_CAP; the search on the tensor costs 203 times 126 tuples
        b = SymTensorBuilder(6, 4, 1)
        for key in itertools.combinations_with_replacement((1, 2), 4):
            b.set(key, 0)
        A = b.build()
        assert gridcone.grid_point_count(6, 2) * len(coefficients(A, 2)) \
            > gridcone.SEARCH_CAP
        zeros = grid_zeros(A)
        assert len(zeros) == 7
        assert zeros == _expansion_zeros(A, 2) == _expansion_zeros(A, 0)

    def test_python_ints_past_int64(self):
        # 3^40 > 2^63: the sums run on Python ints and find the same zeros
        big = SymTensor(HORN.n, HORN.d, {k: v * 3 ** 40 for k, v in HORN.entries.items()})
        assert grid_zeros(big) == grid_zeros(HORN)
        assert len(grid_zeros(HORN)) == 10

    def test_search_skipped_past_the_cap(self, monkeypatch):
        # Horn: 15 + 35 + 70 grid points times 15 canonical tuples
        problem = build_gram_problem(HORN, 1)
        monkeypatch.setattr(gridcone, "SEARCH_CAP", 120 * 15)
        assert len(grid_zeros(HORN)) == 10
        monkeypatch.setattr(gridcone, "SEARCH_CAP", 120 * 15 - 1)
        assert grid_zeros(HORN) == ()
        # no face, so the whole-cone solver of old: Unknown, not certified
        v = solve_gram(problem, max_iters=200)
        assert v.verdict == "Unknown"

    def test_large_grid_skipped_without_raising(self):
        # n = 40: C(43, 4) grid points at m = 4 alone, far past the cap
        A = SymTensorBuilder(40, 2).set((1, 2), -1).build()
        assert grid_zeros(A) == ()

    @pytest.mark.parametrize("r", [0, 1])
    def test_flagship_diagonal_certificate_lies_in_its_face(self, r):
        # a_1111 = 0, so e_1 is the only zero; the fast path's diagonal
        # certificate has G m(e_1) = 0 and equals its projection on the face
        problem = build_gram_problem(example31_tensor(), r)
        zeros = grid_zeros(problem.tensor)
        assert zeros == ((2, (2, 0, 0)),)
        v = soscone._fast_path(problem)
        assert v is not None and v.certificate is None
        blocks = diagonal_certificate(problem)
        checked = _certified(problem, blocks)
        assert checked is not None
        assert _bits([v.residual, v.min_eig]) == _bits([checked.residual, checked.min_eig])
        touched = 0
        for G, kernel in zip(blocks, zero_kernels(problem.basis, problem.blocks, zeros)):
            if kernel is None:
                continue
            touched += 1
            E, f, _ = kernel
            assert f == len(G) - 1
            F = E[:, :f]
            assert np.abs(G @ E[:, f:]).max() <= 1e-12
            assert np.allclose(F @ (F.T @ G @ F) @ F.T, G, rtol=0, atol=1e-12)
        assert touched == 1

    def test_horn_level0_refuted_with_point_moments(self):
        # every block has face dimension 0: the cone step gives 0, eps is 0
        # and the moments are L + t D, L the negated last affine shift, D the
        # zeros' point moments, which vanish on P (a tampered t fails verify:
        # tests/test_docio_cli.py); the relaxed point is (1 - RELAXATION) x,
        # so L is -RELAXATION targets / weight_sum up to rounding
        problem = build_gram_problem(HORN, 0)
        v, L = solve_offering(problem)
        assert (v.verdict, v.iterations) == ("NotMember", 5)
        assert refutes(problem, v.moments)
        zeros = grid_zeros(problem.tensor)
        layout = _GramLayout(problem, zeros)
        assert np.allclose([float(m) for m in L],
                           -RELAXATION * layout.targets / layout.weight_sum)
        D = point_moments(list(problem.constraints), zeros)
        # the numerators are the coefficients times one positive denominator
        coeff = dict(zip(problem.targets, problem.numerators))
        assert sum(coeff[g] * p for g, p in zip(problem.constraints, D)) == 0
        assert list(v.moments) == list(problem.constraints)
        weights = {(m - low) / p for m, low, p in zip(v.moments.values(), L, D) if p}
        assert len(weights) == 1 and weights.pop() > 0
        assert all(m == low for m, low, p in zip(v.moments.values(), L, D) if not p)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]), st.integers(0, 1),
           st.data())
    def test_verdicts_agree_with_the_grid_oracle(self, shape, r, data):
        # small integer entries, so grid zeros and faces are common: Certified
        # never where the exact grid minimum is negative, and every NotMember
        # re-checks
        n, d = shape
        vals = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1), Fraction(2)])
        b = SymTensorBuilder(n, d)
        for key in itertools.combinations_with_replacement(range(1, n + 1), d):
            b.set(key, data.draw(vals))
        A = b.build()
        v = member_K_r(A, r, max_iters=300)
        if v.certified:
            assert simplex_grid_min(A, 12).min_value >= 0
        if v.verdict == "NotMember":
            assert refutes(build_gram_problem(A, r), v.moments)


def _huge_tensor():
    # targets far from 1 and denominators of 3: floats that round
    b = SymTensorBuilder(2, 3)
    for key in itertools.combinations_with_replacement((1, 2), 3):
        b.set(key, Fraction(10 ** 20, 3) if key[0] == key[-1] else Fraction(-1, 7))
    return b.build()


class TestLevelTable:
    """Each SOS level reads one integer table, numerators over one
    denominator.  The Fraction route it replaced (a Fraction per coefficient,
    then float(Fraction) per target, and the Fraction L(P) of check_refutation;
    tests/conftest.py) gives the same targets bit for bit, the same exact
    coefficients and the same refutation verdicts."""

    TENSORS = [("boundary", lambda: BOUNDARY), ("horn", lambda: HORN),
               ("example31", example31_tensor), ("degree6", degree6_example),
               ("not-copositive", lambda: NOT_COPOSITIVE),
               ("pool-4000", lambda: _nonnegative(4000, 3, 4)),
               ("dd6002", lambda: _dd(6002)), ("huge", _huge_tensor)]

    @staticmethod
    def _matches_fraction_route(A, r):
        problem = build_gram_problem(A, r)
        want = reference_gram_targets(A, r)
        assert list(problem.targets) == list(want) == list(problem.constraints)
        assert _bits(list(problem.targets.values())) == _bits(list(want.values()))
        assert problem.denominator > 0
        assert [Fraction(v, problem.denominator) for v in problem.numerators] == \
            list(coefficients(A, r).values())

    @pytest.mark.parametrize("make", [t[1] for t in TENSORS], ids=[t[0] for t in TENSORS])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_targets_and_coefficients_match_the_fraction_route(self, make, r):
        self._matches_fraction_route(make(), r)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(float_tensors(max_n=3, max_d=3), default_tensors(max_n=3, max_d=3)),
           st.integers(0, 2))
    def test_hypothesis_targets_match_the_fraction_route(self, A, r):
        self._matches_fraction_route(A, r)

    @pytest.mark.parametrize("A, r", [(HORN, 0), (NOT_COPOSITIVE, 0), (NOT_COPOSITIVE, 2)],
                             ids=["horn-0", "not-copositive-0", "not-copositive-2"])
    def test_check_refutation_agrees_with_the_fraction_route(self, A, r):
        problem = build_gram_problem(A, r)
        moments = solve_gram(problem).moments
        first = min(moments)
        uniform = {g: uniform_moment(g) for g in moments}
        candidates = [moments,
                      {g: 2 * m for g, m in moments.items()},
                      {**moments, first: -moments[first]},
                      {**moments, first: Fraction(0)},
                      {g: m for g, m in moments.items() if g != first},
                      {g: -m for g, m in moments.items()},
                      {g: m + 10 ** 6 * u for (g, m), u in zip(moments.items(),
                                                               uniform.values())},
                      uniform]
        got = [refutes(problem, m) for m in candidates]
        assert got == [reference_check_refutation(problem, m) for m in candidates]
        # a moment shifted by the uniform measure's refutes exactly when
        # L(P) stays negative: NOT_COPOSITIVE's P integrates below 0 on
        # [0, 1]^2, Horn's not
        assert got[:6] == [True, True, False, False, False, False]
        assert got[6:] == [A is not HORN] * 2

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (2, 4)]), st.integers(0, 2),
           st.data())
    def test_fast_path_is_a_coefficient_member(self, shape, r, data):
        n, d = shape
        vals = st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(0),
                                Fraction(1, 2), Fraction(1), Fraction(2)])
        b = SymTensorBuilder(n, d)
        for key in itertools.combinations_with_replacement(range(1, n + 1), d):
            b.set(key, data.draw(vals))
        A = b.build()
        assert member_K_r(A, r, max_iters=25).fast_path == member_C_r(A, r).member

    def test_one_table_per_level_walked(self, monkeypatch):
        calls = []
        brackets = polycone._brackets

        def counting(A, r):
            calls.append(r)
            return brackets(A, r)

        monkeypatch.setattr(polycone, "_brackets", counting)
        sweep_K_r(HORN, 2, max_iters=200)
        assert calls == [0, 1, 2]
        calls.clear()
        # the top level first, for its fast path, and reused by the walk
        assert member_K_r(BOUNDARY, 2).certified
        assert calls == [2, 0, 1]
        calls.clear()
        assert member_K_r(example31_tensor(), 2).fast_path
        assert calls == [2]

    def test_fast_path_builds_no_gram_problem(self, monkeypatch):
        # no constraints: the Gram problem's costly part is built on first use
        def refuse(problem):
            raise AssertionError("a Gram problem's constraints were built")

        monkeypatch.setattr(soscone.GramProblem, "constraints", property(refuse))
        assert member_K_r(example31_tensor(), 1).fast_path
        assert all(v.fast_path for v in sweep_K_r(from_matrix([[1, 0], [0, 1]]), 3))
        # BOUNDARY is outside C^(0), so its level 0 needs the constraints
        with pytest.raises(AssertionError, match="Gram problem"):
            member_K_r(BOUNDARY, 0)
