import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from copotensor.combinatorics import (binomial_at_most, check_enumeration_size,
                                      enumerate_exponents, index_runs, multinomial)
from copotensor.evidence import positive_definite
from copotensor.gridcone import first_appearances
from copotensor.oracle import OracleReport, _compositions
from copotensor.partition import Simplex, _longest_edge, _split, standard_simplex
from copotensor.polycone import coefficient_table
from copotensor import soscone
from copotensor.tensor import (SymTensor, SymTensorBuilder, canonical_tuples,
                               eval_form, from_matrix, scaled_values)

BOUNDARY = from_matrix([[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]])
# in K^(1) but not PSD plus non-negative (Parrilo 2000)
HORN = from_matrix([[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
                    [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]])


def rand_rational_tensor(rng: random.Random, n: int, d: int,
                         lo: int = -8, hi: int = 8, denom: int = 8) -> SymTensor:
    """Dense random tensor with entries k/denom, k in [lo, hi]."""
    b = SymTensorBuilder(n, d)
    for key in canonical_tuples(n, d):
        b.set(key, Fraction(rng.randint(lo, hi), denom))
    return b.build()


def rand_nonneg_tensor(rng: random.Random, n: int, d: int,
                       hi: int = 8, denom: int = 8) -> SymTensor:
    b = SymTensorBuilder(n, d)
    for key in canonical_tuples(n, d):
        b.set(key, Fraction(rng.randint(0, hi), denom))
    return b.build()


def rand_diag_dominant_tensor(rng: random.Random, n: int, d: int,
                              off_scale: int = 2, denom: int = 16) -> SymTensor:
    """Positive diagonal, small mixed entries of either sign; strictly
    copositive for small enough off_scale."""
    b = SymTensorBuilder(n, d)
    for key in canonical_tuples(n, d):
        if len(set(key)) == 1:
            b.set(key, Fraction(rng.randint(denom, 2 * denom), denom))
        else:
            b.set(key, Fraction(rng.randint(-off_scale, off_scale), denom))
    return b.build()


def boundary_tensor(u, d: int) -> SymTensor:
    """(u.x)^2 (x1 + ... + xn)^(d-2), n = len(u): copositive, and zero where
    the hyperplane u.x = 0 crosses the simplex.  Its entry at a multiset is
    the mean of u_p u_q over ordered pairs of distinct positions p, q."""
    b = SymTensorBuilder(len(u), d)
    for key in canonical_tuples(len(u), d):
        s1 = sum(u[k - 1] for k in key)
        s2 = sum(u[k - 1] ** 2 for k in key)
        b.set(key, Fraction(s1 * s1 - s2, d * (d - 1)))
    return b.build()


def boundary_perturbed_tensor(rng: random.Random, n: int, d: int,
                              denom: int = 64) -> SymTensor:
    """:func:`boundary_tensor` for an integer u in [-2, 2]^n of mixed signs,
    with about half its entries moved by -1/denom, 0 or +1/denom: copositive,
    refuted near the hyperplane, or left on the boundary."""
    u = [0] * n
    while min(u) >= 0 or max(u) <= 0:
        u = [rng.randint(-2, 2) for _ in range(n)]
    A = boundary_tensor(u, d)
    b = SymTensorBuilder(n, d)
    for key in canonical_tuples(n, d):
        shift = Fraction(rng.randint(-1, 1), denom) if rng.random() < 0.5 else 0
        b.set(key, A.get(key) + shift)
    return b.build()


def rand_float_tensor(rng: random.Random, n: int, d: int) -> SymTensor:
    """Float entries in [-2, 6] on about half the canonical tuples and a
    float default in [-1, 3], all taken at their exact binary values."""
    entries = {key: rng.uniform(-2, 6) for key in canonical_tuples(n, d)
               if rng.random() < 0.5}
    return SymTensor(n, d, entries, rng.uniform(-1, 3))


@st.composite
def float_tensors(draw, max_n: int = 4, max_d: int = 4) -> SymTensor:
    """Hypothesis strategy: n in 1..max_n, d in 1..max_d, a non-zero float
    default and float entries on a random subset of the canonical tuples
    (every value is taken at its exact binary value, so denominators run up
    to 2^1074)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=max_d))
    value = st.floats(min_value=-2, max_value=6, allow_nan=False)
    default = draw(value.filter(bool))
    entries = {}
    for key in canonical_tuples(n, d):
        v = draw(st.none() | value)
        if v is not None:
            entries[key] = v
    return SymTensor(n, d, entries, default)


@st.composite
def default_tensors(draw, max_n: int = 4, max_d: int = 4) -> SymTensor:
    """Hypothesis strategy for the "value v otherwise" shape: n in 1..max_n,
    d in 1..max_d, a non-zero default (a fraction, possibly negative, or a
    float), and on a random subset of the canonical tuples a stored entry
    that is a fraction, a float or the default itself."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=max_d))
    fractions = st.fractions(min_value=-3, max_value=5, max_denominator=12)
    floats = st.floats(min_value=-2, max_value=6, allow_nan=False)
    default = draw((fractions | floats).filter(bool))
    value = st.none() | st.just(default) | fractions | floats
    entries = {}
    for key in canonical_tuples(n, d):
        v = draw(value)
        if v is not None:
            entries[key] = v
    return SymTensor(n, d, entries, default)


def index_counts(idx, n: int) -> tuple[int, ...]:
    """Occurrence counts of each index 1..n in an index tuple."""
    counts = [0] * n
    for i in idx:
        counts[i - 1] += 1
    return tuple(counts)


def tuple_multiplicity(idx) -> int:
    """Number of distinct permutations of an index tuple: d!/prod(count_i!)."""
    return multinomial([c for _, c in index_runs(idx)])


def reference_brackets(A: SymTensor, r: int):
    """Literal reference for :func:`copotensor.polycone._brackets`: one
    column product per non-zero canonical tuple, default or stored, over a
    full (s+1) x (d+1) falling-factorial table."""
    if r < 0:
        raise ValueError("r must be >= 0")
    check_enumeration_size(binomial_at_most(A.n + r + A.d - 1, r + A.d),
                           f"level {r} coefficient count")
    d, s = A.d, r + A.d
    if A.n == 1:
        check_enumeration_size((s + 1) * (d + 1), f"level {r} falling-factorial table size")
    scale, values = scaled_values(A)
    thetas = enumerate_exponents(A.n, s)
    table = np.array(thetas, dtype=np.intp)
    fall = np.array([[math.perm(t, c) for c in range(d + 1)]
                     for t in range(s + 1)], dtype=object)
    brackets = np.zeros(len(thetas), dtype=object)
    for key, a in zip(canonical_tuples(A.n, d), values):
        if not a:
            continue
        column = tuple_multiplicity(key) * a
        for i, c in enumerate(index_counts(key, A.n)):
            if c:
                column = column * fall[table[:, i], c]
        brackets += column
    return thetas, brackets, math.perm(s, d) * scale


def reference_grid_values(A: SymTensor, r: int):
    """Literal reference for :func:`copotensor.gridcone._grid_values`: one
    term per non-zero canonical tuple, default or stored, at every point."""
    points = first_appearances(A.n, r)
    scale, values = scaled_values(A)
    terms = [(tuple_multiplicity(key) * a,
              tuple((i - 1, sum(1 for _ in run)) for i, run in itertools.groupby(key)))
             for key, a in zip(canonical_tuples(A.n, A.d), values) if a]

    def evaluate():
        for m, c in points:
            total = 0
            for w, runs in terms:
                for i, e in runs:
                    w *= c[i] ** e
                total += w
            yield m, c, total
    return scale, evaluate()


@lru_cache(maxsize=None)
def reference_exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Order reference for :func:`copotensor.combinatorics.enumerate_exponents`:
    the compositions of d into n parts by recursion on the first part."""
    if n == 1:
        return ((d,),)
    return tuple((first,) + rest for first in range(d + 1)
                 for rest in reference_exponents(n - 1, d - first))


def reference_face_descent(A: SymTensor, i: int, j: int) -> tuple[int, Fraction]:
    """Literal reference for :func:`copotensor.tensor._face_descent`: the face
    formula over the entries on the (i, j) face only, scaled by the lcm of
    their denominators.  f(e_i + t e_j) = sum_c C(d, c) a_{i^(d-c) j^c} t^c;
    at t = 2^-k, times s 2^(dk), it is the integer
    default s (2^k + 1)^d + sum C(d, c) (a - default) s 2^(k (d - c))."""
    d, default = A.d, A.default
    deltas = {}   # j-count -> stored entry minus the default
    for key, a in A.entries.items():
        if key[0] in (i, j) and key[-1] in (i, j):
            count = key.count(j)
            if count + key.count(i) == d and a != default:
                deltas[count] = a - default
    scale = math.lcm(default.denominator, *(v.denominator for v in deltas.values()))
    base = default.numerator * (scale // default.denominator)
    terms = [(d - count, math.comb(d, count) * v.numerator * (scale // v.denominator))
             for count, v in deltas.items()]
    k = 0
    while (total := base * ((1 << k) + 1) ** d
           + sum(c << (k * shift) for shift, c in terms)) >= 0:
        k += 1
    return k, Fraction(total, scale << (d * k))


def reference_cumulative_grid(n: int, r: int) -> tuple[tuple[Fraction, ...], ...]:
    """Literal reference for the cumulative grid of level r: every level's
    points as Fractions, deduplicated by a dict in first-insertion order."""
    seen = {}
    for k in range(r + 1):
        for comp in enumerate_exponents(n, k + 2):
            seen.setdefault(tuple(Fraction(c, k + 2) for c in comp), None)
    return tuple(seen)


@lru_cache(maxsize=None)
def elementary_symmetric(k: int, m: int) -> int:
    """e_k(1, 2, ..., m); e_0 = 1 and e_k = 0 for k > m."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 1
    if k > m:
        return 0
    # e_k(1..m) = e_k(1..m-1) + m * e_{k-1}(1..m-1)
    return elementary_symmetric(k, m - 1) + m * elementary_symmetric(k - 1, m - 1)


def coefficients(A: SymTensor, r: int) -> dict[tuple[int, ...], Fraction]:
    """P^(r)'s coefficients as theta -> exact value, in lexicographic order:
    :func:`copotensor.polycone.coefficient_table`, one Fraction each."""
    thetas, numerators, denom = coefficient_table(A, r)
    return {theta: Fraction(v, denom) for theta, v in zip(thetas, numerators)}


def expand_Pr_closed_form(A: SymTensor, r: int) -> dict[tuple[int, ...], Fraction]:
    """Coefficient table via the closed form in theta.

    Writing s = r + d and omega = theta, each coefficient equals

        c(theta)/(s(s-1)...(s-d+1)) * [ <A, theta^d>
            + sum_{k=1}^{d-1} (-1)^k e_k(1..d-1) <A, Diag(theta^(d-k))>
            + repeated-off-diagonal correction ]

    The e_k corrections turn the diagonal weights theta_i^d into falling
    factorials theta_i (theta_i - 1) ... (theta_i - d + 1).  Off-diagonal
    tuples that repeat an index need the same falling-factorial treatment,
    so the final bracket is the correction from power weights to falling
    factorials on those tuples.  Literal reference for
    :func:`coefficients`, which it agrees with exactly.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    check_enumeration_size(binomial_at_most(A.n + r + A.d - 1, r + A.d),
                           f"level {r} coefficient count")
    d = A.d
    if d < 2:
        raise ValueError("closed form requires d >= 2")
    s = r + d
    denom = math.perm(s, d)
    betas = [elementary_symmetric(k, d - 1) for k in range(d)]
    terms = []
    for key, a in A.items():
        if a == 0:
            continue
        counts = index_counts(key, A.n)
        mult = tuple_multiplicity(key)
        terms.append((counts, mult * a))
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for theta in enumerate_exponents(A.n, s):
        bracket = Fraction(0)
        # diagonal entries: sum_k (-1)^k beta_k theta_i^(d-k) = fall(theta_i, d)
        for i in range(A.n):
            a = A.get((i + 1,) * d)
            if a == 0:
                continue
            w = sum((-1) ** k * betas[k] * theta[i] ** (d - k) for k in range(d))
            bracket += a * w
        # off-diagonal tuples: product of per-index falling factorials
        for counts, wa in terms:
            if max(counts) == d:
                continue  # diagonal, handled above
            w = 1
            for t, c in zip(theta, counts):
                if c:
                    w *= math.perm(t, c)
                    if w == 0:
                        break
            if w:
                bracket += wa * w
        coeffs[theta] = Fraction(multinomial(theta), denom) * bracket
    return coeffs


def multi_product(A: SymTensor, vectors):
    """<A, w_1 (x) w_2 (x) ... (x) w_d> by summation over all n^d tuples:
    the literal reference for the simplicial Bernstein coefficients."""
    if len(vectors) != A.d:
        raise ValueError(f"expected {A.d} factors, got {len(vectors)}")
    for w in vectors:
        if len(w) != A.n:
            raise ValueError("factor dimension mismatch")
    total = 0
    for tup in itertools.product(range(1, A.n + 1), repeat=A.d):
        a = A.entries.get(tuple(sorted(tup)), A.default)
        if a == 0:
            continue
        term = a
        for w, i in zip(vectors, tup):
            term = term * w[i - 1]
        total = total + term
    return total


@dataclass
class Partition:
    """A list of simplices covering the standard simplex: the references'
    explicit form of the partitions the certifier and the level cones walk
    one simplex at a time."""
    simplices: list[Simplex]

    @property
    def edge_set(self) -> list[tuple[tuple, tuple]]:
        seen: dict[tuple, None] = {}
        for s in self.simplices:
            for u, v in itertools.combinations(s.vertices, 2):
                seen.setdefault((min(u, v), max(u, v)), None)
        return list(seen)


def trivial_partition(n: int) -> Partition:
    return Partition([standard_simplex(n)])


def refine_once(P: Partition) -> Partition:
    """Bisect every simplex at the midpoint of its longest edge, children in
    the certifier's order."""
    return Partition([child for s in P.simplices
                      for child in _split(s, *_longest_edge(s))])


def refine(P: Partition, rounds: int) -> Partition:
    """The level-`rounds` partition below P: :func:`refine_once` repeated."""
    for _ in range(rounds):
        P = refine_once(P)
    return P


def vertex_set(P: Partition):
    """Every distinct vertex of P's simplices, in first-appearance order."""
    return list(dict.fromkeys(v for s in P.simplices for v in s.vertices))


def grid_partition(n: int, m: int) -> Partition:
    """Uniform triangulation of the standard simplex with every vertex on the
    denominator-m grid: segments for n = 2, the up/down triangle subdivision
    for n = 3.  Its vertex set matches the level-(m-d) rational grid, which
    the level-r coefficient cone embeds into."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n == 1:
        return trivial_partition(1)
    if n == 2:
        pts = [(Fraction(k, m), Fraction(m - k, m)) for k in range(m + 1)]
        return Partition([Simplex((pts[k], pts[k + 1])) for k in range(m)])
    if n == 3:
        def pt(a: int, b: int, c: int):
            return (Fraction(a, m), Fraction(b, m), Fraction(c, m))
        simplices = []
        for a in range(m):
            for b in range(m - a):
                c = m - 1 - a - b
                simplices.append(Simplex((pt(a + 1, b, c), pt(a, b + 1, c),
                                          pt(a, b, c + 1))))
                if a + b + c >= 1 and c >= 1:
                    simplices.append(Simplex((pt(a + 1, b + 1, c - 1),
                                              pt(a + 1, b, c), pt(a, b + 1, c))))
        return Partition(simplices)
    raise ValueError("grid_partition supports n <= 3")


# The per-simplex tests as three separate loops over multi_product and
# eval_form, kept literally as the reference for the integer table.

def reference_inner_test_full(A: SymTensor, s: Simplex) -> bool:
    """Full vertex-tuple test (Bundfuss & Dur 2008): every value of the
    simplex's table is non-negative."""
    verts = s.vertices
    for key in canonical_tuples(len(verts), A.d):
        if multi_product(A, [verts[i - 1] for i in key]) < 0:
            return False
    return True


def reference_least_tuple_value(A: SymTensor, s: Simplex) -> Fraction:
    """The least value of the simplex's table, over every multiset of its
    vertices: the key the depth-first certifier orders siblings by."""
    verts = s.vertices
    return min(multi_product(A, [verts[i - 1] for i in key])
               for key in canonical_tuples(len(verts), A.d))


def reference_edge_products_nonneg(A: SymTensor, u, v) -> bool:
    # all splits a in 1..d-1 of <A, u^(x a) (x) v^(x (d-a))>
    for a in range(1, A.d):
        factors = [u] * a + [v] * (A.d - a)
        if multi_product(A, factors) < 0:
            return False
    return True


def reference_member_I_P(A: SymTensor, P: Partition) -> bool:
    """Pairwise inner cone on any partition: the form at every vertex and
    every edge split."""
    for v in vertex_set(P):
        if eval_form(A, v) < 0:
            return False
    for u, v in P.edge_set:
        if not reference_edge_products_nonneg(A, u, v):
            return False
    return True


def reference_inverse(rows) -> list[list[Fraction]] | None:
    """The inverse of a square matrix by literal Gauss-Jordan elimination on
    Fractions, or None when it is singular."""
    k = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
           for i, row in enumerate(rows)]
    for c in range(k):
        p = next((r for r in range(c, k) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(k):
            if r != c:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def reference_principal_refutation(A: SymTensor):
    """Literal reference for the Cottle-Habetler-Lemke scan of a matrix
    (d = 2): every principal submatrix A_S, by size and then
    lexicographically, with no skip rule, inverted by
    :func:`reference_inverse`; the first with every inverse entry <= 0
    gives the point x = -A_S^-1 1, zero off S, scaled to sum 1.  None when
    there is no such S, that is, when A is copositive."""
    if A.d != 2:
        raise ValueError("the scan is for matrices")
    for size in range(1, A.n + 1):
        for S in itertools.combinations(range(A.n), size):
            inverse = reference_inverse([[A.get((i + 1, j + 1)) for j in S] for i in S])
            if inverse is not None and all(x <= 0 for row in inverse for x in row):
                x = [-sum(row) for row in inverse]
                point = [Fraction(0)] * A.n
                for i, v in zip(S, x):
                    point[i] = v / sum(x)
                return tuple(point)
    return None


def reference_member_O_P(A: SymTensor, P: Partition) -> bool:
    """Outer cone on any partition: the form at every vertex."""
    return all(eval_form(A, v) >= 0 for v in vertex_set(P))


def barycentric_grid_min(A: SymTensor, vertices, resolution: int) -> OracleReport:
    """Exact minimum over the barycentric grid of a sub-simplex."""
    n = A.n
    best_val = None
    best_pt = None
    for comp in _compositions(resolution, len(vertices)):
        x = [Fraction(0)] * n
        for lam, v in zip(comp, vertices):
            for i in range(n):
                x[i] += Fraction(lam, resolution) * v[i]
        val = eval_form(A, x)
        if best_val is None or val < best_val:
            best_val, best_pt = val, tuple(x)
    return OracleReport(best_val, best_pt, resolution=resolution)


def reference_gram_targets(A: SymTensor, r: int) -> dict[tuple[int, ...], float]:
    """The SOS targets by the Fraction route: each coefficient of
    :func:`coefficients` as float(Fraction), keyed by the
    even exponent 2 theta."""
    return {tuple(2 * t for t in theta): float(c)
            for theta, c in coefficients(A, r).items()}


def reference_check_refutation(problem, moments) -> bool:
    """Literal reference for :func:`copotensor.evidence.check_refutation` on
    the Fraction route: L(P) summed against :func:`coefficients`
    of the problem's tensor and level, a target exponent past them counting
    0, and every block's moment matrix positive definite."""
    if moments.keys() != problem.targets.keys():
        return False
    moments = {g: Fraction(m) for g, m in moments.items()}
    coeff = {tuple(2 * t for t in theta): c
             for theta, c in coefficients(problem.tensor, problem.r).items()}
    if sum(m * coeff.get(g, 0) for g, m in moments.items()) >= 0:
        return False
    basis = problem.basis
    for members in problem.blocks:
        if not positive_definite([[moments[tuple(x + y for x, y in zip(basis[a], basis[b]))]
                                   for b in members] for a in members]):
            return False
    return True


def diagonal_certificate(problem) -> list[np.ndarray]:
    """The SOS fast path's certificate, which the verdict does not carry:
    non-negative coefficients give P = sum p_theta (y^theta)^2 directly, so
    the target of basis monomial k (its square's) sits at k on the diagonal."""
    targets = list(problem.targets.values())
    return [np.diag([targets[k] for k in members]) for members in problem.blocks]


def solve_offering(problem):
    """Solve ``problem`` and return the verdict with minus the affine shift
    of the last step offered to the refutation search, (matched - targets) /
    weight_sum per target: the L that a NotMember's moments are built on."""
    offered = []
    refutation = soscone._GramLayout.refutation

    def recording(layout, problem, matched, it):
        offered.append((matched - layout.targets) / layout.weight_sum)
        return refutation(layout, problem, matched, it)

    with mock.patch.object(soscone._GramLayout, "refutation", recording):
        v = soscone.solve_gram(problem)
    return v, [Fraction(m) for m in offered[-1].tolist()]


def reference_project_psd(G: np.ndarray) -> np.ndarray:
    """Literal reference for the solver's PSD step: the nearest PSD matrix to
    each symmetric matrix in a ``(..., m, m)`` stack."""
    w, V = np.linalg.eigh(G)
    w = np.maximum(w, 0.0)
    out = (V * w[..., None, :]) @ np.swapaxes(V, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def example31_tensor() -> SymTensor:
    """Order-4, dimension-3 tensor: zero first diagonal, unit other
    diagonals, 5 everywhere else."""
    b = SymTensorBuilder(3, 4, Fraction(5))
    b.set((1, 1, 1, 1), Fraction(0))
    b.set((2, 2, 2, 2), Fraction(1))
    b.set((3, 3, 3, 3), Fraction(1))
    return b.build()


EXAMPLE31_JSON = """\
{"name": "example-3x3x3x3-order4", "n": 3, "d": 4, "default": "5",
 "entries": [
   {"idx": [1,1,1,1], "val": "0"},
   {"idx": [2,2,2,2], "val": "1"},
   {"idx": [3,3,3,3], "val": "1"}]}
"""


@pytest.fixture
def example31():
    return example31_tensor()


@pytest.fixture
def rng():
    return random.Random(0xC0705)
