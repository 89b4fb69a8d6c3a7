"""End-to-end acceptance suite.

Each test prints a single PASS line on success; the criteria, suite sizes,
and tolerances are pinned here and nowhere else:

  1. flagship order-4 example: parse, screen, C^(0), certify, non-PSD probe
  2. expansion routes agree exactly with the brute-force oracle
  3. containment/monotonicity property suite (>= 200 instances)
  4. strict-containment witnesses (C != K, K not inside the entrywise cone)
  5. branch-and-bound classification against the oracle (>= 100 instances)
  6. rational-grid outer hierarchy classification on the same suite (r <= 12)
  7. even-order nonpositive-off-diagonal copositive tensors are PSD on exact
     orthant grids
  8. every SOS certificate re-verifies independently
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from copotensor.docio import parse_tensor
from copotensor.gridcone import member_O_r
from copotensor.oracle import expand_bruteforce, simplex_grid_min
from copotensor.partition import (Verdict, certify_copositivity, member_I_P,
                                  member_O_P)
from copotensor.polycone import member_C_r
from copotensor.soscone import _certified, build_gram_problem, member_K_r, solve_gram
from copotensor.tensor import (SymTensor, SymTensorBuilder, canonical_tuples,
                               eval_form, from_matrix, necessary_screen)
from conftest import (EXAMPLE31_JSON, coefficients, diagonal_certificate,
                      expand_Pr_closed_form, grid_partition, reference_member_I_P)

F = Fraction
SEED = 20240

# pinned tolerances / budgets
ORACLE_RESOLUTION = 12        # divides the cumulative-grid denominators <= 14
CLASS_MARGIN = F(5, 100)      # +-0.05 classification margin
BNB_DEPTH = 32
BNB_TIME_LIMIT = 5.0          # seconds per instance
GRID_LEVEL_MAX = 12
SOS_RESIDUAL_TOL = 1e-8
SOS_EIG_TOL = 1e-8

BOUNDARY = from_matrix([[F(1), F(-1)], [F(-1), F(1)]])


def _rand_tensor(rng, n, d, lo, hi, denom):
    b = SymTensorBuilder(n, d)
    for key in canonical_tuples(n, d):
        b.set(key, F(rng.randint(lo, hi), denom))
    return b.build()


def _positive_shifted_tensor(rng, n, d):
    """All entries in [c/2, 3c/2] for a base level c: form >= c/2 on the
    simplex since (sum x)^d = 1 distributes over non-negative monomials."""
    c = rng.randint(4, 16)      # c/32 in [1/8, 1/2]
    b = SymTensorBuilder(n, d)
    for key in canonical_tuples(n, d):
        b.set(key, F(c, 32) + F(rng.randint(-c, c), 64))
    return b.build()


def _neg_offdiag_matrix(rng, n):
    """Unit diagonal, off-diagonal in [-5/16, 0]: strictly copositive with
    margin >= 1/8 but failing the entrywise test, so bisection is exercised."""
    b = SymTensorBuilder(n, 2)
    for i in range(1, n + 1):
        b.set((i, i), F(1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            b.set((i, j), F(-rng.randint(0, 5), 16))
    return b.build()


@pytest.fixture(scope="module")
def classified_suite():
    """>= 100 tensors with oracle simplex-grid minimum >= 0.05 or <= -0.05
    (dead-zone draws are discarded), shared by criteria 5 and 6."""
    rng = random.Random(SEED)
    pool = []
    for n, d in itertools.product((2, 3), (2, 3, 4)):
        for _ in range(12):
            pool.append(_rand_tensor(rng, n, d, -32, 32, 32))
    for _ in range(20):
        n, d = rng.choice(list(itertools.product((2, 3), (2, 3, 4))))
        pool.append(_positive_shifted_tensor(rng, n, d))
    for _ in range(20):
        pool.append(_neg_offdiag_matrix(rng, rng.choice((2, 3))))
    suite = []
    for A in pool:
        m = simplex_grid_min(A, ORACLE_RESOLUTION).min_value
        if m >= CLASS_MARGIN or m <= -CLASS_MARGIN:
            suite.append((A, m))
    assert len(suite) >= 100
    assert any(m > 0 for _, m in suite) and any(m < 0 for _, m in suite)
    return suite


def test_criterion_1_flagship_example():
    start = time.monotonic()
    A = parse_tensor(EXAMPLE31_JSON)
    assert necessary_screen(A).passed
    assert member_C_r(A, 0).member
    cert = certify_copositivity(A)
    assert cert.verdict is Verdict.COPOSITIVE
    assert cert.stats.max_depth == 0
    probe_value = eval_form(A, (-2, 0, 1))    # recorded: exact rational
    assert probe_value < 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: flagship example copositive-but-not-PSD "
          f"(probe value {probe_value}, {elapsed:.2f}s)")


def test_criterion_2_expansion_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(SEED + 2)
    tensors = 0
    for n, d in itertools.product((2, 3), (2, 3, 4)):
        for _ in range(10):
            A = _rand_tensor(rng, n, d, -8, 8, 8)
            tensors += 1
            for r in range(4):
                oracle = {tuple(e // 2 for e in k): v
                          for k, v in expand_bruteforce(A, r).items()}
                for route in (coefficients, expand_Pr_closed_form):
                    exp = route(A, r)
                    for theta, c in exp.items():
                        assert c == oracle.get(theta, 0), (n, d, r, theta)
    elapsed = time.monotonic() - start
    assert tensors >= 50
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: both expansion routes match the brute-force "
          f"oracle exactly on {tensors} tensors x 4 levels ({elapsed:.1f}s)")


def test_criterion_3_containment_suite():
    rng = random.Random(SEED + 3)
    instances = 0
    checks = 0
    for _ in range(110):
        n, d = rng.choice(((2, 2), (2, 3), (3, 2), (3, 3)))
        kind = rng.randrange(3)
        if kind == 0:
            A = _rand_tensor(rng, n, d, 0, 8, 8)          # entrywise cone
        elif kind == 1:
            A = _rand_tensor(rng, n, d, -2, 8, 8)         # near the boundary
        else:
            A = _rand_tensor(rng, n, d, -8, 8, 8)         # generic
        instances += 1
        # (a) C^(r) is non-decreasing in r, (b) C members certify in K,
        # (c) C^(r) members pass the pairwise test on the matching grid
        #     partition (through the reference, as no bisection level is a
        #     grid partition), and entrywise >= 0 passes it at every level
        for r in range(3):
            cv = member_C_r(A, r)
            if cv.member:
                assert member_C_r(A, r + 1).member
                assert member_K_r(A, r).certified
                assert reference_member_I_P(A, grid_partition(n, r + d))
                checks += 3
        if all(v >= 0 for _, v in A.items()):
            for k in range(3):
                assert member_I_P(A, k)
                checks += 1
        # (d) outer grid cones are nested: Member at r+1 implies Member at r
        statuses = [member_O_r(A, r).member for r in range(4)]
        for r in range(3):
            if statuses[r + 1]:
                assert statuses[r]
            checks += 1
    # (e) refinement monotonicity for the inner partition cone and
    #     anti-monotonicity for the outer partition cone, level by level
    for _ in range(100):
        d = rng.choice((2, 3))
        A = _rand_tensor(rng, 2, d, -4, 16, 16)
        instances += 1
        for k in range(4):
            if member_I_P(A, k):
                assert member_I_P(A, k + 1)
            if member_O_P(A, k + 1):
                assert member_O_P(A, k)
            checks += 2
    assert instances >= 200
    print(f"\nACCEPTANCE 3 PASS: containment suite clean on {instances} "
          f"instances ({checks} implication checks, zero violations)")


def test_criterion_4_strict_containment_witnesses():
    start = time.monotonic()
    # C^(r) strictly inside K^(r): the boundary PSD matrix is an explicit
    # square yet never has non-negative coefficients
    v = member_K_r(BOUNDARY, 0)
    assert v.certified
    for r in range(6):
        assert not member_C_r(BOUNDARY, r).member
    # K^(0) not inside the entrywise cone: the degree-6 example has a
    # negative entry, so it fails the level-0 pairwise partition test
    b = SymTensorBuilder(3, 6)
    for i in (1, 2, 3):
        b.set((i,) * 6, F(1))
    b.set((1, 1, 1, 2, 2, 2), F(1, 10))
    b.set((1, 1, 1, 3, 3, 3), F(1, 10))
    b.set((2, 2, 2, 3, 3, 3), F(-1, 10))
    deg6 = b.build()
    assert any(val < 0 for _, val in deg6.items())
    assert not member_I_P(deg6, 0)
    assert not member_C_r(deg6, 0).member
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 PASS: strict-containment witnesses verified "
          f"({elapsed:.1f}s)")


def test_criterion_5_branch_and_bound_convergence(classified_suite):
    n_pos = n_neg = 0
    worst = 0.0
    for A, oracle_min in classified_suite:
        start = time.monotonic()
        cert = certify_copositivity(A, max_depth=BNB_DEPTH)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert elapsed < BNB_TIME_LIMIT
        if oracle_min >= CLASS_MARGIN:
            assert cert.verdict is Verdict.COPOSITIVE, dict(A.entries)
            n_pos += 1
        else:
            assert cert.verdict is Verdict.NOT_COPOSITIVE, dict(A.entries)
            # exact rational witness recheck
            assert min(cert.witness) >= 0 and eval_form(A, cert.witness) < 0
            n_neg += 1
    assert n_pos + n_neg >= 100
    print(f"\nACCEPTANCE 5 PASS: branch-and-bound classified "
          f"{n_pos} copositive + {n_neg} non-copositive instances with "
          f"zero misclassifications (slowest {worst:.2f}s)")


def test_criterion_6_grid_outer_convergence(classified_suite):
    n_pos = n_neg = 0
    for A, oracle_min in classified_suite:
        verdict = member_O_r(A, GRID_LEVEL_MAX)
        if oracle_min >= 0:
            # cumulative grids nest, so Member at the top level covers all r
            assert verdict.member, dict(A.entries)
            n_pos += 1
        else:
            assert not verdict.member, dict(A.entries)
            assert eval_form(A, verdict.witness) == verdict.value < 0
            n_neg += 1
    print(f"\nACCEPTANCE 6 PASS: grid hierarchy at r <= {GRID_LEVEL_MAX} "
          f"separates {n_pos} members from {n_neg} refuted instances")


def test_criterion_7_nonpositive_offdiagonal_psd_crosscheck():
    rng = random.Random(SEED + 7)
    specs = [(2, 2, 4)] * 20 + [(3, 2, 4)] * 14 + [(2, 4, 16)] * 14 + [(3, 4, 128)] * 6
    checked = 0
    least = None
    start = time.monotonic()
    for n, d, denom in specs:
        b = SymTensorBuilder(n, d)
        for key in canonical_tuples(n, d):
            if len(set(key)) == 1:
                b.set(key, F(rng.randint(denom, 2 * denom), denom))
            else:
                b.set(key, F(-rng.randint(0, 1), denom))
        A = b.build()
        cert = certify_copositivity(A, max_depth=BNB_DEPTH)
        assert cert.verdict is Verdict.COPOSITIVE, dict(A.entries)
        # f(sigma o x) is the form of A_sigma, entries a_key * prod sigma_i, at
        # x; d is even, so sigma and -sigma agree and sigma_1 = +1 suffices
        for signs in itertools.product((1, -1), repeat=n - 1):
            sigma = (1,) + signs
            A_sigma = SymTensor(n, d, {key: a * math.prod(sigma[i - 1] for i in key)
                                       for key, a in A.items()})
            m = simplex_grid_min(A_sigma, ORACLE_RESOLUTION).min_value
            assert m >= 0, (dict(A.entries), sigma, m)
            least = m if least is None else min(least, m)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 50
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7 PASS: {checked} nonpositive-off-diagonal copositive "
          f"tensors are non-negative on every orthant's resolution-"
          f"{ORACLE_RESOLUTION} grid (least minimum {least}, {elapsed:.2f}s)")


def _assert_reverifies(problem, v):
    # the verdict's residual and minimum eigenvalue are the independent
    # checker's figures, recomputed from the Gram blocks; a fast path carries
    # none, and its figures are the checker's on the diagonal certificate
    checked = _certified(problem, diagonal_certificate(problem) if v.fast_path
                         else v.certificate)
    assert checked is not None
    if v.fast_path:
        assert v.certificate is None
        assert [x.hex() for x in (v.residual, v.min_eig)] == \
            [x.hex() for x in (checked.residual, checked.min_eig)]
    assert v.residual <= SOS_RESIDUAL_TOL and v.min_eig >= -SOS_EIG_TOL


def test_criterion_8_sos_self_verification():
    rng = random.Random(SEED + 8)
    certified = 0
    # lifted-chain certificates on the boundary matrix
    for r in range(4):
        v = member_K_r(BOUNDARY, r)
        assert v.certified
        _assert_reverifies(build_gram_problem(BOUNDARY, r), v)
        certified += 1
    # random PSD matrices (M^T M) are SOS after the y*y substitution
    for _ in range(12):
        n = rng.choice((2, 3))
        M = [[F(rng.randint(-3, 3), 2) for _ in range(n)] for _ in range(n)]
        b = SymTensorBuilder(n, 2)
        for i in range(n):
            for j in range(i, n):
                b.set((i + 1, j + 1), sum(M[k][i] * M[k][j] for k in range(n)))
        A = b.build()
        v = solve_gram(build_gram_problem(A, 0))
        assert v.certified, dict(A.entries)
        _assert_reverifies(build_gram_problem(A, 0), v)
        certified += 1
    # diagonal fast-path certificates from coefficient-cone members
    for _ in range(12):
        n, d = rng.choice(((2, 3), (3, 2)))
        A = _rand_tensor(rng, n, d, 0, 8, 8)
        v = member_K_r(A, 1)
        assert v.certified and v.fast_path and member_C_r(A, 1).member
        _assert_reverifies(build_gram_problem(A, 1), v)
        certified += 1
    print(f"\nACCEPTANCE 8 PASS: {certified}/{certified} certificates "
          f"re-verified independently (residual <= {SOS_RESIDUAL_TOL}, "
          f"min eigenvalue >= -{SOS_EIG_TOL})")
