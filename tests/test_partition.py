import itertools
import math
import random
import time
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest

from copotensor import evidence, partition
from copotensor.combinatorics import MAX_SCAN_DIMENSION
from copotensor.oracle import simplex_grid_min
from copotensor.partition import (DEFAULT_MAX_DEPTH, DEFAULT_SIMPLEX_BUDGET,
                                  Certificate, PartitionStats, Verdict, _bisect,
                                  _casteljau_step, _casteljau_tables, _longest_edge,
                                  _split, _sq_diameter, _sq_dist, _unit_vectors,
                                  certify_copositivity, member_I_P, member_O_P)
from copotensor.tensor import (SymTensor, SymTensorBuilder, canonical_tuples,
                               eval_form, from_matrix, necessary_screen,
                               scaled_values)
from conftest import (HORN, barycentric_grid_min, boundary_perturbed_tensor,
                      boundary_tensor, grid_partition, multi_product,
                      rand_diag_dominant_tensor, rand_float_tensor,
                      rand_nonneg_tensor, rand_rational_tensor, refine,
                      refine_once, reference_inner_test_full,
                      reference_in_standard_simplex,
                      reference_least_tuple_value, reference_longest_edge,
                      reference_member_I_P, reference_member_O_P,
                      reference_principal_refutation, trivial_partition,
                      vertex_set)

F = Fraction


class TestSimplex:
    """The root of every partition: the unit vectors."""

    def test_standard_simplex_n2(self):
        assert _unit_vectors(2) == ((F(1), F(0)), (F(0), F(1)))

    def test_standard_simplex_n3_pairwise_distance(self):
        s = _unit_vectors(3)
        for i in range(3):
            for j in range(i + 1, 3):
                d2 = sum((a - b) ** 2 for a, b in zip(s[i], s[j]))
                assert d2 == 2


def longest_edge(P) -> Fraction:
    """The squared length of the longest edge over P's simplices."""
    return max(map(_sq_diameter, P.simplices))


class TestBisection:
    def test_standard_2simplex_children(self):
        s = _unit_vectors(2)
        c1, c2 = _split(s, *_longest_edge(s))
        sets = {frozenset(c1), frozenset(c2)}
        mid = (F(1, 2), F(1, 2))
        assert sets == {frozenset({(F(1), F(0)), mid}),
                        frozenset({(F(0), F(1)), mid})}
        # a search node's children are one level deeper, in _split's order
        nodes = _bisect((s, 0, [1, 0, 1]), _casteljau_tables(2, 2)[1])
        assert [(verts, depth) for verts, depth, _ in nodes] == [(c1, 1), (c2, 1)]

    def test_child_diameters_do_not_grow(self, rng):
        P = trivial_partition(3)
        prev = longest_edge(P)
        for _ in range(6):
            P = refine_once(P)
            cur = longest_edge(P)
            assert cur <= prev
            prev = cur

    def test_dyadic_denominators(self):
        P = trivial_partition(2)
        for k in range(1, 6):
            P = refine_once(P)
            for v in vertex_set(P):
                for c in v:
                    assert (2 ** k) % c.denominator == 0


class TestGeometryMatchesReference:
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_simplex_of_the_depth_8_tree(self, n):
        # every simplex of levels 0..8 of the bisection tree: the same
        # longest edge as the reference, ties included, and vertices in the
        # standard simplex
        ties = reordered = 0
        P = trivial_partition(n)
        for _ in range(9):
            for s in P.simplices:
                want = reference_longest_edge(s)
                assert _longest_edge(s) == want
                assert all(map(reference_in_standard_simplex, s))
                lengths = [_sq_dist(u, v) for u, v in itertools.combinations(s, 2)]
                longest = [k for k, d2 in enumerate(lengths) if d2 == max(lengths)]
                ties += len(longest) > 1
                # the tie-break picks an edge other than the first longest
                reordered += list(itertools.combinations(range(n), 2))[longest[0]] != want
            P = refine_once(P)
        assert ties and reordered


class TestDiameter:
    """_sq_diameter, whose square root the certifier reports for its
    unresolved simplices."""

    def test_trivial_n2(self):
        assert _sq_diameter(_unit_vectors(2)) == 2

    def test_one_bisection_n2(self):
        assert longest_edge(refine_once(trivial_partition(2))) == F(1, 2)

    def test_standard_simplex_diameter(self):
        for n in (2, 3, 4):
            assert _sq_diameter(_unit_vectors(n)) == 2

    def test_equals_the_longest_distinct_edge(self):
        # every simplex's own vertex pairs give the same length as the
        # partition's de-duplicated edge set
        for n in (2, 3, 4):
            P = trivial_partition(n)
            for _ in range(4):
                P = refine_once(P)
                assert longest_edge(P) == max(_sq_dist(u, v) for u, v in P.edge_set)


class TestGridPartition:
    def test_n2_structure(self):
        P = grid_partition(2, 4)
        assert len(P.simplices) == 4
        assert len(vertex_set(P)) == 5
        assert all(c.denominator in (1, 2, 4) for v in vertex_set(P) for c in v)

    def test_n3_structure(self):
        for m in (1, 2, 3, 4):
            P = grid_partition(3, m)
            assert len(P.simplices) == m * m
            assert len(vertex_set(P)) == math.comb(m + 2, 2)

    def test_n3_covers_simplex(self, rng):
        # every random simplex point lies in at least one cell (barycentric
        # coordinates non-negative for some triangle)
        P = grid_partition(3, 3)
        for _ in range(20):
            a = F(rng.randint(0, 6), 6)
            b = F(rng.randint(0, int(6 * (1 - a))), 6)
            x = (a, b, 1 - a - b)
            covered = False
            for s in P.simplices:
                v1, v2, v3 = s
                det = ((v2[0] - v1[0]) * (v3[1] - v1[1])
                       - (v3[0] - v1[0]) * (v2[1] - v1[1]))
                l2 = ((x[0] - v1[0]) * (v3[1] - v1[1])
                      - (v3[0] - v1[0]) * (x[1] - v1[1])) / det
                l3 = ((v2[0] - v1[0]) * (x[1] - v1[1])
                      - (x[0] - v1[0]) * (v2[1] - v1[1])) / det
                if l2 >= 0 and l3 >= 0 and l2 + l3 <= 1:
                    covered = True
                    break
            assert covered

    def test_coefficient_cone_embeds(self):
        # a level-1 coefficient-cone member with a negative entry fails the
        # pairwise test on the trivial partition (level 0) but passes on the
        # denominator-(r+d) grid partition
        from copotensor.polycone import member_C_r
        A = from_matrix([[F(1), F(-1, 4)], [F(-1, 4), F(1)]])
        assert member_C_r(A, 1).member
        assert not member_I_P(A, 0)
        assert reference_member_I_P(A, grid_partition(2, 3))


class TestInnerTestFull:
    """The full vertex-tuple test the certifier prunes on, through its
    literal reference."""

    def test_nonnegative_tensor_true(self, rng):
        A = rand_nonneg_tensor(rng, 3, 3)
        assert reference_inner_test_full(A, _unit_vectors(3))

    def test_mixed_negative_false(self):
        A = from_matrix([[1, -2], [-2, 1]])
        assert not reference_inner_test_full(A, _unit_vectors(2))

    def test_true_implies_barycentric_min_nonneg(self, rng):
        # Lemma: passing the full vertex-tuple test bounds the form below
        # by 0 on the simplex
        hits = 0
        for _ in range(12):
            A = rand_diag_dominant_tensor(rng, 2, 2, off_scale=4)
            P = refine(trivial_partition(2), 2)
            for s in P.simplices:
                if reference_inner_test_full(A, s):
                    hits += 1
                    rep = barycentric_grid_min(A, s, 8)
                    assert rep.min_value >= 0
        assert hits > 0


class TestMemberIP:
    def test_d2_reduction(self, rng):
        # for matrices the test is exactly u^T A v >= 0 on edges and
        # v^T A v >= 0 on vertices
        A = rand_rational_tensor(rng, 2, 2)
        P = refine(trivial_partition(2), 2)
        expected = True
        for v in vertex_set(P):
            if eval_form(A, v) < 0:
                expected = False
        for u, v in P.edge_set:
            utAv = sum(u[i] * A.get((i + 1, j + 1)) * v[j]
                       for i in range(2) for j in range(2))
            if utAv < 0:
                expected = False
        assert member_I_P(A, 2) == expected

    def test_trivial_partition_nonnegative_true(self, rng):
        A = rand_nonneg_tensor(rng, 3, 2)
        assert member_I_P(A, 0)

    def test_refinement_monotonicity(self, rng):
        # member at level k implies member at level k + 1 (d = 2 and 3)
        for d in (2, 3):
            for _ in range(10):
                A = rand_diag_dominant_tensor(rng, 2, d, off_scale=4)
                for k in range(4):
                    if member_I_P(A, k):
                        assert member_I_P(A, k + 1)


class TestMemberOP:
    def test_trivial_partition_is_diagonal_test(self, rng):
        for _ in range(10):
            A = rand_rational_tensor(rng, 3, 3)
            expected = all(v >= 0 for v in A.diag_vector())
            assert member_O_P(A, 0) == expected

    def test_midpoint_witness(self):
        A = from_matrix([[0, -1], [-1, 0]])
        assert member_O_P(A, 0)
        assert not member_O_P(A, 1)   # level 1 has the vertex (1/2, 1/2)
        assert eval_form(A, (F(1, 2), F(1, 2))) == F(-1, 2)

    def test_refinement_anti_monotonicity(self, rng):
        # member at level k + 1 implies member at level k
        for d in (2, 3):
            for _ in range(10):
                A = rand_rational_tensor(rng, 2, d)
                for k in range(4):
                    if member_O_P(A, k + 1):
                        assert member_O_P(A, k)


class TestCertify:
    def test_strictly_copositive_matrix(self):
        A = from_matrix([[F(1), F(-1, 2)], [F(-1, 2), F(1)]])
        cert = certify_copositivity(A)
        assert cert.verdict is Verdict.COPOSITIVE

    def test_not_copositive_with_witness(self):
        A = from_matrix([[0, -1], [-1, 0]])
        cert = certify_copositivity(A)
        assert cert.verdict is Verdict.NOT_COPOSITIVE
        assert cert.witness == (F(1, 2), F(1, 2))
        assert cert.witness_value == F(-1, 2)
        assert min(cert.witness) >= 0 and eval_form(A, cert.witness) < 0

    def test_example31_depth0(self, example31):
        cert = certify_copositivity(example31)
        assert cert.verdict is Verdict.COPOSITIVE
        assert cert.stats.max_depth == 0

    def test_copositive_soundness_against_oracle(self, rng):
        for _ in range(6):
            A = rand_diag_dominant_tensor(rng, 3, 2, off_scale=4)
            cert = certify_copositivity(A)
            if cert.verdict is Verdict.COPOSITIVE:
                assert simplex_grid_min(A, 50).min_value >= 0

    def test_budget_exhaustion_indeterminate(self):
        # (x1 - 2 x2)^2 (x1 + x2) is zero at (2/3, 1/3), which no dyadic
        # bisection reaches, so the simplices around it are never pruned
        A = SymTensor(2, 3, {(1, 1, 1): 1, (1, 1, 2): -1, (2, 2, 2): 4})
        cert = certify_copositivity(A, max_depth=6)
        assert cert.verdict is Verdict.INDETERMINATE
        assert cert.stats.max_depth == 6
        assert cert.stats.diameter_unresolved is not None
        cert = certify_copositivity(A, simplex_budget=20)
        assert cert.verdict is Verdict.INDETERMINATE
        assert cert.stats.simplices == 20

    def test_d1_shortcut(self):
        # decided at the root: a linear form's Bernstein coefficients are its
        # entries
        pos = SymTensorBuilder(3, 1).set((1,), F(1)).build()
        assert certify_copositivity(pos).verdict is Verdict.COPOSITIVE
        neg = SymTensorBuilder(3, 1).set((2,), F(-1)).build()
        cert = certify_copositivity(neg)
        assert cert.verdict is Verdict.NOT_COPOSITIVE
        assert min(cert.witness) >= 0 and eval_form(neg, cert.witness) < 0

    def test_bad_budgets(self, example31):
        with pytest.raises(ValueError):
            certify_copositivity(example31, max_depth=-1)
        with pytest.raises(ValueError):
            certify_copositivity(example31, simplex_budget=0)


def reference_certify(A, max_depth=32, simplex_budget=100_000, depth_first=True):
    """The literal branch-and-bound: per-vertex eval_form, then the full
    vertex-tuple test, then longest-edge bisection (order d >= 2).  Depth
    first, the child with the smaller least table value goes first, the
    second child on a tie; otherwise first in, first out."""
    work = deque([(trivial_partition(A.n).simplices[0], 0)])
    processed = 0
    max_depth_seen = 0
    unresolved = []
    evaluated = {}
    while work:
        if processed >= simplex_budget:
            unresolved.extend(s for s, _ in work)
            break
        s, depth = work.pop() if depth_first else work.popleft()
        processed += 1
        max_depth_seen = max(max_depth_seen, depth)
        for v in s:
            if v not in evaluated:
                evaluated[v] = eval_form(A, v)
            if evaluated[v] < 0:
                return Certificate(
                    Verdict.NOT_COPOSITIVE,
                    PartitionStats(max_depth_seen, processed, len(work)),
                    v, evaluated[v])
        if reference_inner_test_full(A, s):
            continue
        if depth >= max_depth:
            unresolved.append(s)
            continue
        first, second = _split(s, *reference_longest_edge(s))
        # depth first, the top of the stack is taken first
        if depth_first and (reference_least_tuple_value(A, first)
                            < reference_least_tuple_value(A, second)):
            first, second = second, first
        work.extend(((first, depth + 1), (second, depth + 1)))
    if unresolved:
        dia = max(math.sqrt(float(sum((a - b) ** 2 for a, b in zip(u, v))))
                  for s in unresolved
                  for u, v in itertools.combinations(s, 2))
        return Certificate(
            Verdict.INDETERMINATE,
            stats=PartitionStats(max_depth_seen, processed, len(unresolved), dia))
    return Certificate(Verdict.COPOSITIVE,
                       stats=PartitionStats(max_depth_seen, processed, 0))


class TestBernsteinCoefficients:
    def test_match_multi_product_along_bisection_paths(self, rng):
        for n, d in itertools.product((1, 2, 3, 4), (2, 3, 4)):
            A = rand_rational_tensor(rng, n, d, denom=rng.choice((1, 3, 8)))
            scale = math.lcm(*(F(a).denominator for _, a in A.items()),
                             F(A.default).denominator)
            diag, steps = _casteljau_tables(n, d)
            s, b = _unit_vectors(n), scaled_values(A)[1]
            assert all(isinstance(c, int) for c in b)
            for depth in range(5 if n > 1 else 1):
                keys = itertools.combinations_with_replacement(range(n), d)
                for key, c in zip(keys, b):
                    expect = multi_product(A, [s[k] for k in key])
                    assert F(c, scale * 2 ** (d * depth)) == expect
                for k, p in enumerate(diag):
                    assert F(b[p], scale * 2 ** (d * depth)) == \
                        eval_form(A, s[k])
                if n == 1:
                    break
                i, j = _longest_edge(s)
                children = _split(s, i, j)
                if rng.random() < 0.5:
                    s, b = children[0], _casteljau_step(b, steps[i, j])
                else:
                    s, b = children[1], _casteljau_step(b, steps[j, i])

    def test_float_entries_use_their_exact_values(self):
        A = from_matrix([[0.1, -0.1], [-0.1, 0.1]])
        assert scaled_values(A)[1] == [3602879701896397, -3602879701896397,
                                       3602879701896397]


class TestRootDecides:
    """A tensor that the root table refutes (a negative vertex value) or
    prunes (no negative value) certifies before any geometry is built, with
    the reference's certificate: witness a unit vector, stats (0, 1, 0)."""

    @staticmethod
    def _refuse_geometry(monkeypatch):
        def refuse(n):
            raise AssertionError("the standard simplex was built")
        monkeypatch.setattr(partition, "_unit_vectors", refuse)

    def test_root_decided_certificates_match_the_reference(self, rng, monkeypatch):
        suite = [SymTensorBuilder(n, 1).set((rng.randint(1, n),), F(rng.randint(-3, 3), 4))
                 .build() for n in range(1, 8) for _ in range(3)]
        suite += [SymTensor(n, 1, {}, F(rng.randint(-2, 2), 3)) for n in (1, 4, 9)]
        suite += [rand_rational_tensor(rng, n, 1) for n in (2, 5, 7)]
        for n, d in ((2, 2), (3, 3), (3, 4), (4, 2)):
            suite.append(rand_nonneg_tensor(rng, n, d))
            # a negative vertex value, with other negative entries beside it
            A = rand_rational_tensor(rng, n, d)
            suite.append(SymTensor(n, d, {**dict(A.items()), (n,) * d: F(-1, 3)}))
        want = [reference_certify(A) for A in suite]
        assert all(w.stats == PartitionStats(0, 1, 0) for w in want)
        assert {w.verdict for w in want} == {Verdict.COPOSITIVE, Verdict.NOT_COPOSITIVE}
        self._refuse_geometry(monkeypatch)
        assert [certify_copositivity(A) for A in suite] == want
        # an undecided root still needs the simplex, except for a matrix
        # that the principal-submatrix scan decides
        with pytest.raises(AssertionError, match="standard simplex"):
            certify_copositivity(SymTensor(2, 3, {(1, 1, 2): -1}, 1))
        assert certify_copositivity(HORN).verdict is Verdict.COPOSITIVE

    def test_wide_order_one(self, monkeypatch):
        # n = 10**4: the standard simplex alone would hold 10**8 Fractions
        self._refuse_geometry(monkeypatch)
        n = 10 ** 4
        assert certify_copositivity(SymTensor(n, 1, {}, 1)) == \
            Certificate(Verdict.COPOSITIVE, stats=PartitionStats(0, 1, 0))
        cert = certify_copositivity(SymTensor(n, 1, {(7000,): F(-1, 3)}, 1))
        assert cert.verdict is Verdict.NOT_COPOSITIVE
        assert cert.witness == tuple(F(int(j == 6999)) for j in range(n))
        assert cert.witness_value == F(-1, 3) and cert.stats == PartitionStats(0, 1, 0)


def reference_suite(rng):
    """Matrices and orders 3 and 4 at n = 2..4: random, and diagonally
    dominant at two off-diagonal scales, beside a 2 x 2 boundary matrix, an
    order-3 form that vanishes off the dyadic points, and one that vanishes
    on a segment, which the depth cap and the budget both stop."""
    suite = [from_matrix([[F(1), F(-1)], [F(-1), F(1)]]),
             SymTensor(2, 3, {(1, 1, 1): 1, (1, 1, 2): -1, (2, 2, 2): 4}),
             boundary_tensor([1, -1, 0], 3)]
    for n, d in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)):
        suite.append(rand_rational_tensor(rng, n, d))
        suite.append(rand_diag_dominant_tensor(rng, n, d, off_scale=4))
        suite.append(rand_diag_dominant_tensor(rng, n, d, off_scale=8))
    return suite


class TestCertifyMatchesReference:
    BUDGETS = ((6, 40), (10, 400))

    def test_same_certificate(self, rng):
        # orders 3 and 4 go through branch-and-bound, which must give the
        # depth-first reference's certificate; matrices go through the scan,
        # which must agree with the reference wherever that decides
        verdicts = {2: set(), 3: set(), 4: set()}
        for A in reference_suite(rng):
            for max_depth, budget in self.BUDGETS:
                got = certify_copositivity(A, max_depth, budget)
                want = reference_certify(A, max_depth, budget)
                if A.d > 2:
                    assert got == want
                else:
                    assert got.verdict is not Verdict.INDETERMINATE
                    assert want.verdict in (got.verdict, Verdict.INDETERMINATE)
                verdicts[A.d].add(want.verdict)
        assert verdicts[2] == verdicts[3] == set(Verdict)

    def test_order_changes_only_refutations(self, rng):
        # a run that ends Copositive, or depth-capped before the budget
        # stops it, visits the same simplices in any order, so it gives the
        # first-in-first-out reference's certificate field for field; where
        # that reference refutes, the depth-first search refutes too
        kinds = set()
        for A in reference_suite(rng):
            if A.d == 2:
                continue
            for max_depth, budget in self.BUDGETS:
                got = certify_copositivity(A, max_depth, budget)
                fifo = reference_certify(A, max_depth, budget, depth_first=False)
                if fifo.verdict is Verdict.NOT_COPOSITIVE:
                    assert got.verdict is Verdict.NOT_COPOSITIVE
                    assert got.witness_value == eval_form(A, got.witness) < 0
                    kinds.add("refuted")
                elif fifo.stats.simplices < budget:
                    assert got == fifo
                    kinds.add(fifo.verdict)
        assert kinds == {"refuted", Verdict.COPOSITIVE, Verdict.INDETERMINATE}


def fifo_branch_and_bound(A, max_depth=DEFAULT_MAX_DEPTH,
                          simplex_budget=DEFAULT_SIMPLEX_BUDGET):
    """The certifier's search on its own integer tables, first in, first
    out, for orders d > 2 at budgets where reference_certify is too slow:
    (verdict, simplices processed)."""
    diag, steps = _casteljau_tables(A.n, A.d)
    work = deque([(_unit_vectors(A.n), 0, scaled_values(A)[1])])
    processed, capped = 0, False
    while work and processed < simplex_budget:
        node = work.popleft()
        _, depth, b = node
        processed += 1
        if any(b[p] < 0 for p in diag):
            return Verdict.NOT_COPOSITIVE, processed
        if min(b) >= 0:
            continue
        if depth >= max_depth:
            capped = True
        else:
            work.extend(_bisect(node, steps))
    return (Verdict.INDETERMINATE if work or capped else Verdict.COPOSITIVE), processed


class TestDepthFirst:
    """The certifier's branch-and-bound searches depth first, the child with
    the more negative least coefficient first."""

    @pytest.mark.parametrize("seed, make, want", [
        # (simplices, depth of the witness) depth first; simplices first in,
        # first out
        (4, lambda rng: rand_diag_dominant_tensor(rng, 4, 3, off_scale=8), (8, 7, 74)),
        (6, lambda rng: boundary_perturbed_tensor(rng, 3, 3), (9, 8, 62)),
        # the least coefficient leads down along the hyperplane, to the depth
        # cap, before the refuting corner
        (1, lambda rng: boundary_perturbed_tensor(rng, 4, 4), (375, 32, 38)),
    ])
    def test_pinned_refutations_after_bisection(self, seed, make, want):
        A = make(random.Random(seed))
        cert = certify_copositivity(A)
        assert cert.verdict is Verdict.NOT_COPOSITIVE
        assert cert.witness_value == eval_form(A, cert.witness) < 0
        fifo = fifo_branch_and_bound(A)
        assert fifo[0] is Verdict.NOT_COPOSITIVE
        assert (cert.stats.simplices, cert.stats.max_depth,
                fifo[1]) == want

    def test_no_definitive_verdict_lost_at_the_default_budgets(self):
        # the first-in-first-out search's definitive verdicts stay; a run it
        # ends Copositive or depth-capped takes the same simplices
        rng = random.Random(0xDF5)
        kinds = set()
        for i in range(80):
            d = rng.choice((3, 4))
            if i % 2:
                A = boundary_perturbed_tensor(rng, rng.choice((2, 3)), d)
            else:
                A = rand_diag_dominant_tensor(rng, rng.choice((3, 4)), d,
                                              off_scale=rng.choice((4, 8)))
            cert = certify_copositivity(A)
            verdict, processed = fifo_branch_and_bound(A)
            if verdict is Verdict.NOT_COPOSITIVE:
                assert cert.verdict is verdict
            elif processed < DEFAULT_SIMPLEX_BUDGET:
                assert (cert.verdict, cert.stats.simplices) == (verdict, processed)
            if cert.verdict is Verdict.NOT_COPOSITIVE:
                assert cert.witness_value == eval_form(A, cert.witness) < 0
                if cert.stats.max_depth > 0:
                    kinds.add("refuted after bisection")
            kinds.add(verdict)
        assert kinds == set(Verdict) | {"refuted after bisection"}

    def test_budget_stop_holds_a_stack_not_a_frontier(self):
        # (x1 - x2)^2 (x1 + ... + x4)^2 is zero on a plane through the
        # simplex, so every budget stops it.  First in, first out, the 1000
        # simplices left a frontier of 391 behind, and the run peaked at
        # 0.66 MB under tracemalloc (Python 3.11); the stack holds at most 33
        A = boundary_tensor([1, -1, 0, 0], 4)
        certify_copositivity(A, simplex_budget=1000)   # builds the edge tables
        tracemalloc.start()
        try:
            cert = certify_copositivity(A, simplex_budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000
        # the unresolved count adds the simplices capped at depth 32 to those
        # left on the stack, whose bottom, the root's other child, has the
        # longest edge
        assert cert == Certificate(Verdict.INDETERMINATE,
                                   PartitionStats(32, 1000, 224, math.sqrt(2)))


def negative_default_tensor(rng, n, d):
    """A negative default under positive diagonals and a few stored mixed
    entries of either sign."""
    entries = {key: F(rng.randint(8, 24), 8) if len(set(key)) == 1
               else F(rng.randint(-4, 8), 8)
               for key in canonical_tuples(n, d)
               if len(set(key)) == 1 or rng.random() < 0.3}
    return SymTensor(n, d, entries, F(-rng.randint(1, 4), 16))


class TestVertexTupleTableMatchesReference:
    def test_same_cone_memberships(self, rng):
        # the integer table's level sweep against the literal multi_product
        # and eval_form loops on refine(trivial_partition(n), k)
        seen = {"I^P": set(), "O^P": set()}
        cases = 0
        for n, d in itertools.product((1, 2, 3, 4), (1, 2, 3, 4)):
            # negative only where the most vertex indices are distinct, so
            # the pairwise test passes at the root when d > 2
            spread = SymTensorBuilder(n, d)
            for key in canonical_tuples(n, d):
                spread.set(key, F(-1, 8) if len(set(key)) == min(n, d)
                           else F(rng.randint(0, 8), 8))
            tensors = [rand_rational_tensor(rng, n, d),
                       rand_nonneg_tensor(rng, n, d),
                       rand_diag_dominant_tensor(rng, n, d, off_scale=4),
                       rand_float_tensor(rng, n, d),
                       negative_default_tensor(rng, n, d),
                       spread.build()]
            for k in range(5 if n > 1 else 1):
                P = refine(trivial_partition(n), k)
                for A in tensors:
                    got = member_I_P(A, k)
                    assert got == reference_member_I_P(A, P), (A, k)
                    seen["I^P"].add(got)
                    got = member_O_P(A, k)
                    assert got == reference_member_O_P(A, P), (A, k)
                    seen["O^P"].add(got)
                    cases += 1
        assert cases == 4 * 6 + 12 * 5 * 6
        # members and non-members of each cone
        assert all(outcomes == {True, False} for outcomes in seen.values())


class TestLevels:
    @pytest.mark.parametrize("member", [member_I_P, member_O_P])
    def test_negative_level_raises(self, member, example31):
        with pytest.raises(ValueError, match="level"):
            member(example31, -1)

    @pytest.mark.parametrize("member", [member_I_P, member_O_P])
    def test_over_large_level_raises_before_any_table(self, member):
        A = from_matrix([[1, -1, 0], [-1, 1, 0], [0, 0, 1]])
        start = time.monotonic()
        with pytest.raises(ValueError, match="exceed"):
            member(A, 60)
        # 2^18 simplices of 6 coefficients stay within MAX_TABLE_CELLS; one
        # more level passes it
        with pytest.raises(ValueError, match="exceed"):
            member(A, 19)
        assert time.monotonic() - start < 1

    def test_a_point_has_level_0_only(self):
        A = SymTensorBuilder(1, 3).set((1, 1, 1), -1).build()
        assert not member_I_P(A, 0) and not member_O_P(A, 0)
        with pytest.raises(ValueError, match="point"):
            member_O_P(A, 1)

    def test_pinned_answers(self, example31):
        # Horn's form is 0 at the first midpoint, (e_4 + e_5) / 2, but its
        # -1 entries fail the edge splits; the flagship example is entrywise
        # non-negative
        assert [member_O_P(HORN, k) for k in (0, 1)] == [True, True]
        assert [member_I_P(HORN, k) for k in (0, 1)] == [False, False]
        assert [member_O_P(example31, k) for k in (0, 1)] == [True, True]
        assert [member_I_P(example31, k) for k in (0, 1)] == [True, True]


class TestRefutationValues:
    def test_value_is_the_form_at_the_witness(self, rng):
        # small entries with many zeros, so zero diagonals are common; 1/10 is
        # taken at its exact binary value
        values = [0, 0, 0, 1, -1, 2, F(-1, 2), 0.1]
        kinds = set()
        for _ in range(150):
            n, d = rng.choice([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2),
                               (3, 3), (2, 4), (3, 4)])
            b = SymTensorBuilder(n, d)
            for key in canonical_tuples(n, d):
                b.set(key, rng.choice(values))
            A = b.build()
            res = necessary_screen(A)
            if not res.passed:
                assert res.witness_value == eval_form(A, res.witness) < 0
                assert type(res.witness_value) is F
                kinds.add("screen diagonal" if len(set(res.witness_index)) == 1
                          else "screen face")
            cert = certify_copositivity(A, max_depth=8, simplex_budget=200)
            if cert.verdict is Verdict.NOT_COPOSITIVE:
                assert cert.witness_value == eval_form(A, cert.witness) < 0
                assert type(cert.witness_value) is F
                kinds.add("certify by the scan" if cert.stats.subsets is not None
                          else "certify at the root" if cert.stats.max_depth == 0
                          else "certify below the root")
        assert kinds == {"screen diagonal", "screen face", "certify at the root",
                         "certify below the root", "certify by the scan"}


def scan(A):
    """The principal-submatrix scan on a matrix's scaled values."""
    return evidence.scan_principal_submatrices(A.n, *scaled_values(A))


class TestPrincipalScan:
    """Matrices (d = 2) within MAX_SCAN_DIMENSION are decided by the
    Cottle-Habetler-Lemke scan after the root table: depth 0, one simplex,
    and a count of the principal submatrices inverted."""

    def test_horn_copositive_at_depth_0(self):
        cert = certify_copositivity(HORN)
        # branch-and-bound took 85 simplices to depth 9
        assert cert == Certificate(Verdict.COPOSITIVE, PartitionStats(0, 1, 0, subsets=16))

    def test_boundary_square_copositive(self):
        # (x1 + x2 - 2 x3)^2: zero on a segment of the simplex, where
        # branch-and-bound runs out of its 100 000-simplex budget; the scan
        # inverts {1, 3}, {2, 3} and {1, 2, 3}, all singular
        A = from_matrix([[1, 1, -2], [1, 1, -2], [-2, -2, 4]])
        assert certify_copositivity(A) == \
            Certificate(Verdict.COPOSITIVE, PartitionStats(0, 1, 0, subsets=3))

    def test_tiny_block_refuted_through_it(self):
        # x1^2 + 1e-12 (x2^2 + x3^2) - 4e-12 x2 x3, which the SOS solver's
        # one tolerance scale certifies, is refuted through its {2, 3} block
        A = SymTensor(3, 2, {(1, 1): 1, (2, 2): F(1, 10 ** 12), (3, 3): F(1, 10 ** 12),
                             (2, 3): F(-2, 10 ** 12)})
        cert = certify_copositivity(A)
        assert cert == Certificate(Verdict.NOT_COPOSITIVE, PartitionStats(0, 1, 0, subsets=1),
                                   (F(0), F(1, 2), F(1, 2)), F(-1, 2 * 10 ** 12))
        assert eval_form(A, cert.witness) == cert.witness_value

    def test_two_by_two_refuted_at_the_midpoint(self):
        cert = certify_copositivity(from_matrix([[1, -2], [-2, 1]]))
        assert cert == Certificate(Verdict.NOT_COPOSITIVE, PartitionStats(0, 1, 0, subsets=1),
                                   (F(1, 2), F(1, 2)), F(-1, 2))

    def test_budgets_bound_only_branch_and_bound(self):
        assert certify_copositivity(HORN, max_depth=0, simplex_budget=1).verdict \
            is Verdict.COPOSITIVE

    def test_above_the_cap_branch_and_bound(self):
        # a copositive matrix one row past the cap that the root cannot decide
        n = MAX_SCAN_DIMENSION + 1
        A = from_matrix([[1 if i == j else F(-1, 4) if abs(i - j) == 1 else 0
                          for j in range(n)] for i in range(n)])
        cert = certify_copositivity(A, max_depth=2, simplex_budget=5)
        assert cert.stats.subsets is None and cert.verdict is Verdict.INDETERMINATE

    def test_worst_case_at_the_cap(self):
        # (n + 1) I - J: positive definite, with a negative entry in every row,
        # so every subset of at least two rows is inverted
        n = MAX_SCAN_DIMENSION
        A = from_matrix([[n if i == j else -1 for j in range(n)] for i in range(n)])
        start = time.perf_counter()
        assert scan(A) == (2 ** n - 1 - n, None, None)
        assert time.perf_counter() - start < 10

    def test_matches_the_literal_reference(self, rng):
        # matrices n = 2..8 against reference_principal_refutation, the grid
        # oracle, the literal n^2 sum and the pairwise inner cone I^P
        outcomes = set()
        for _ in range(84):
            n = rng.randint(2, 8)
            A = rand_diag_dominant_tensor(rng, n, 2, off_scale=rng.choice((4, 8, 16)))
            result = scan(A)
            assert result.witness == reference_principal_refutation(A)
            assert result.subsets < 2 ** n
            if result.witness is not None:
                assert min(result.witness) >= 0 and sum(result.witness) == 1
                value = multi_product(A, [result.witness] * 2)
                assert result.value == value < 0
            else:
                for resolution in range(2, 7):
                    assert simplex_grid_min(A, resolution).min_value >= 0
            for k in range(3):
                if member_I_P(A, k):
                    assert result.witness is None
                    outcomes.add("I^P member")
                    break
            outcomes.add(result.witness is None)
        assert outcomes == {True, False, "I^P member"}
