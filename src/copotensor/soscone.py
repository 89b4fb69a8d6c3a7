"""Inner hierarchy based on sum-of-squares feasibility.

Membership at level r asks for a Gram decomposition of P(y): a PSD matrix G
over the degree-(d+r) monomial basis with m(y)^T G m(y) matching every
coefficient.  The basis splits into parity blocks (exponent vectors congruent
mod 2); products across blocks give odd exponents, which never occur in P, so
G may be taken block diagonal.

Each level is one :class:`GramProblem`, built once per level walked from one
integer table, :func:`polycone.coefficient_table`: the exponents theta,
which are also the monomial basis (P's monomial y^(2 theta) is
(y^theta)^2), P's coefficients as integer numerators over one positive
denominator, the float targets numerator / denominator and the parity
blocks.  The exact checks and the fast path read the numerators; only a
solve or a lift builds the constraints.

The solver is untrusted: over-relaxed alternating projections (Bauschke &
Borwein 1996; any point of the intersection will do, not the nearest) between
the affine coefficient-matching set and the PSD cone, on flat buffers that
:class:`_GramLayout` allocates once per solve; a group of 1x1 blocks is
clamped at zero instead of projected by ``eigh``.  A query searches a fixed
simplex grid once for exact zeros of the form (:func:`gridcone.grid_zeros`)
and gives them to each of its solves: every Gram matrix that matches P is
singular along the monomial vectors of a zero, so a block such a vector
touches is solved on the face of the PSD cone that this forces.  The Horn matrix at level 1, whose feasible set has no
interior, certifies in 70 iterations that way, where the whole cone stalls.  A
certificate is the list of Gram blocks.  A solved or lifted Certified verdict
is re-verified by one checker that shares none of that.  Its rule is fixed,
with s = min(1, max |target|), so tiny coefficients are not lost in the
tolerances: every entry finite, every coefficient matched within MATCH_TOL s
by its own constraint loop on Python floats, and every block G with
G + EIG_TOL s I positive definite, decided exactly on the entries' binary
values by the fraction-free LDL^T that also decides refutations
(:func:`evidence.positive_definite`).  The minimum eigenvalue that a Certified
verdict reports is numpy's, taken after that decision, and informational.
The fast path needs no checker and carries no blocks: every exact
coefficient of P non-negative is the proof, and the verdict carries the
residual (0.0) and the minimum eigenvalue (the least target) of the diagonal
certificate.  A level takes the fast path exactly when it is a C^(r) Member
(:func:`polycone.member_C_r`); the zero form, whose all-zero blocks the
strict checker would reject, is one.

Non-membership is proved by weak duality instead: a moment functional L on
the even exponents whose moment matrix M_b[i, j] = L(y^(b_i + b_j)) is
positive definite on every parity block, and with L(P) < 0, admits no PSD
Gram matrix (sum_b <M_b, G_b> would equal L(P)).  When a solve is strictly
infeasible, the affine step's per-target shift converges to such an L (up to
sign and scale), so at each periodic check that does not certify, once that
step has stalled, the solver offers minus the current shift, made positive
definite by adding eps times the moments of the uniform measure on [0, 1]^n,
positive definite on every block.  On a block that grid zeros touch, that
holds only on the face, and t times the zeros' point moments, rational and
zero on P, is added along the rest.  Floats only pick eps and t and screen the
candidate; :func:`evidence.check_refutation` decides it exactly, against the
integer numerators of P, as ``verify`` does a document's moments.  Unknown
is never a proof of non-membership; NotMember carries a moment certificate.

The levels nest (K^(r) inside K^(r+1)), so :func:`sweep_K_r` walks them once,
upward, lifting a certificate from the level below instead of solving again.
The fast path's levels nest too (C^(r) inside C^(r+1)), so the level above a
fast path takes it as well, and a lift always starts from blocks.
:func:`member_K_r` walks only where grid zeros force faces: there the Gram
problems have no interior, and a direct solve can stall where a lift
certifies (Horn at level 2: Unknown after 3000 iterations, against 70 for
the walk).  A form with no grid zeros solves level r first, and walks only
when that solve is Unknown: a zero off the grid can leave a face that the
search does not see, where the walk still lifts what a direct solve cannot
find.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import faces, gridcone, polycone
from .combinatorics import (COUNT_CAP, DEFAULT_MAX_ITERS, binomial_at_most,
                            check_enumeration_size)
from .evidence import check_refutation, parity_blocks, positive_definite
from .tensor import SymTensor

EIG_TOL = 1e-8      # a certificate's blocks G have G + EIG_TOL s I > 0 and
MATCH_TOL = 1e-8    # match within MATCH_TOL s, s = min(1, max |target|)
RELAXATION = 1.8    # the solver's step x + RELAXATION (P_psd(x) - x), in (1, 2)
CHECK_EVERY = 5     # iterations between offers of the iterate to the checks
STALL = 0.5         # a residual above STALL times the last check's has stalled

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class GramProblem:
    """One level: its integer table, float targets keyed by 2 theta and
    parity blocks (see the module docstring)."""
    tensor: SymTensor                         # the tensor P is built from
    r: int
    basis: tuple[Exponent, ...]
    # P's exact coefficients, in targets order: numerators / denominator > 0
    numerators: list[int]
    denominator: int
    targets: dict[Exponent, float]            # even exponent -> coefficient
    blocks: tuple[tuple[int, ...], ...]       # basis indices per parity class

    @functools.cached_property
    def constraints(self) -> dict[Exponent, list[tuple[int, int, int]]]:
        """Per target: the (block position, i, j), i <= j inside the block,
        whose basis monomials multiply to it; built on first use."""
        basis, out = self.basis, {g: [] for g in self.targets}
        for b, members in enumerate(self.blocks):
            for ai in range(len(members)):
                for aj in range(ai, len(members)):
                    g = tuple(map(operator.add, basis[members[ai]], basis[members[aj]]))
                    out[g].append((b, ai, aj))
        return out


@dataclass(frozen=True)
class SosVerdict:
    certified: bool
    r: int
    certificate: list[np.ndarray] | None = None   # a solve's or lift's Gram blocks
    residual: float | None = None
    min_eig: float | None = None
    iterations: int = 0
    fast_path: bool = False
    moments: dict[Exponent, Fraction] | None = None   # a refutation (NotMember)

    @property
    def verdict(self) -> str:
        if self.certified:
            return "Certified"
        return "Unknown" if self.moments is None else "NotMember"


def build_gram_problem(A: SymTensor, r: int) -> GramProblem:
    """Level r's problem: int true division rounds correctly, so each float
    target equals float(Fraction(num, den))."""
    if r < 0:
        raise ValueError("r must be >= 0")
    check_enumeration_size(binomial_at_most(A.n + A.d + r - 1, A.d + r),
                           f"level {r} monomial basis size")
    basis, numerators, denominator = polycone.coefficient_table(A, r)
    try:
        targets = {tuple([2 * t for t in theta]): v / denominator
                   for theta, v in zip(basis, numerators)}
    except OverflowError:
        raise ValueError(f"a level {r} coefficient is beyond float range") from None
    return GramProblem(A, r, basis, numerators, denominator, targets,
                       parity_blocks(basis))


class _GramLayout:
    """The solver's storage of a Gram problem's blocks: two flat buffers,
    allocated once per solve, that every iteration writes into.

    ``iterate`` holds the iterate, on the affine set between iterations,
    and ``cone`` its projection on the cone.
    Blocks of equal size and face dimension sit side by side, so each such
    group forms one ``(k, m, m)`` view of each buffer and the cone step is
    one batched ``eigh`` per group, with the views and the scratch of the
    Gram product made here.  A group of 1x1 blocks takes no ``eigh``: for
    [[a]] it gives w = a and V = [[1.0]], so the projection is the clamp
    max(a, 0), bit for bit.  A block that some of ``zeros`` (grid points
    where P vanishes) touches is projected on its face instead
    (:class:`faces.Face`); a block none touches keeps the whole PSD cone.
    Every constraint entry (b, i, j) becomes a flat upper index, a target id
    and a weight (1 on the diagonal, 2 off it).  The affine step adds each
    target's shift at its upper indices and at the mirrors of the
    off-diagonal ones in one scatter, in which no index repeats: each
    upper-triangle entry matches exactly one target.
    """

    def __init__(self, problem: GramProblem, zeros: Sequence[faces.Zero] = ()):
        sizes = [len(bl) for bl in problem.blocks]
        kernels = faces.zero_kernels(problem.basis, problem.blocks, zeros) \
            if zeros else [None] * len(sizes)
        # (size, face dimension); a block no zero touches keeps all m
        keys = [(m, m if ker is None else ker[1]) for m, ker in zip(sizes, kernels)]
        groups: list[tuple[int, list[int], int, int]] = []   # offset, blocks, m, f
        starts = [0] * len(sizes)
        offset = 0
        for m, f in sorted(set(keys)):
            members = [b for b, key in enumerate(keys) if key == (m, f)]
            for pos, b in enumerate(members):
                starts[b] = offset + pos * m * m
            groups.append((offset, members, m, f))
            offset += len(members) * m * m
        self.spans = [(starts[b], m) for b, m in enumerate(sizes)]
        upper, lower, tid = [], [], []
        for g, pairs in enumerate(problem.constraints.values()):
            for b, i, j in pairs:
                m = sizes[b]
                upper.append(starts[b] + i * m + j)
                lower.append(starts[b] + j * m + i)
                tid.append(g)
        self.upper = np.array(upper, dtype=np.intp)
        self.tid = np.array(tid, dtype=np.intp)
        lower = np.array(lower, dtype=np.intp)
        off_diag = self.upper != lower
        self.scatter = np.concatenate([self.upper, lower[off_diag]])
        self.scatter_tid = np.concatenate([self.tid, self.tid[off_diag]])
        self.weight = np.where(off_diag, 2.0, 1.0)
        self.targets = np.array([problem.targets[g] for g in problem.constraints])
        self.weight_sum = np.bincount(self.tid, weights=self.weight,
                                      minlength=len(self.targets))
        self.iterate = np.zeros(offset)
        self.cone = np.zeros(offset)
        # a moment functional's matrices, scattered like the Gram entries;
        # uniform holds the moments of the uniform measure on [0, 1]^n
        self.moment = np.zeros(offset)
        exponents = np.array(list(problem.constraints), dtype=float)
        self.uniform = np.prod(1.0 / (exponents + 1.0), axis=1)
        self.uniform_value = float(self.uniform @ self.targets)
        self._retry_at = 0.0   # the first iteration to take eigenvalues again
        self.zeros = tuple(zeros)
        # per group: views of iterate, cone and moment, scratch for the Gram
        # product and its transpose (None for 1x1 blocks, which are clamped,
        # and on faces) and the faces.Face of blocks that zeros touch
        self._groups = []
        for o, members, m, f in groups:
            k = len(members)
            views = [buf[o:o + k * m * m].reshape(k, m, m)
                     for buf in (self.iterate, self.cone, self.moment)]
            face = faces.Face([kernels[b] for b in members]) if f < m else None
            scratch = None
            if m > 1 and face is None:
                product = np.empty((k, m, m))
                scratch = (np.empty((k, m, m)), product, product.transpose(0, 2, 1))
            self._groups.append((*views, scratch, face))

    def block_matrices(self) -> list[np.ndarray]:
        """Copies of the blocks held in ``iterate``, in ``problem.blocks`` order."""
        return [self.iterate[o:o + m * m].reshape(m, m).copy() for o, m in self.spans]

    def residual(self, matched: np.ndarray) -> float:
        return float(np.max(np.abs(matched - self.targets), initial=0.0))

    def project_affine(self) -> np.ndarray:
        """Project ``iterate`` in place onto the coefficient-matching affine set,
        returning per target the coefficient that it reproduced before.

        Constraints for distinct targets touch disjoint Gram entries, so the
        projection decomposes per target: each involved upper-triangle entry
        (and its mirror) shifts by the same amount.
        """
        matched = np.bincount(self.tid, weights=self.weight * self.iterate[self.upper],
                              minlength=len(self.targets))
        shift = (self.targets - matched) / self.weight_sum
        self.iterate[self.scatter] += shift[self.scatter_tid]
        return matched

    def project_psd(self) -> None:
        """``cone`` = the nearest blocks of the cone to ``iterate``: per
        group, one batched eigh, the eigenvalues clamped at zero, V diag(w) V^T
        and its symmetrization 0.5 (X + X^T), written into the buffers; a
        clamp for 1x1 blocks, or on a face :meth:`faces.Face.project`."""
        for src, dst, _, scratch, face in self._groups:
            if face is not None:
                face.project(src, dst)
            elif scratch is None:
                np.maximum(src, 0.0, out=dst)
                dst += 0.0   # -0.0 to +0.0, as V max(w, 0) V^T gives
            else:
                scaled, product, product_t = scratch
                w, V = np.linalg.eigh(src)
                np.maximum(w, 0.0, out=w)
                np.multiply(V, w[:, None, :], out=scaled)
                np.matmul(scaled, V.transpose(0, 2, 1), out=product)
                np.add(product, product_t, out=dst)
                dst *= 0.5

    def min_eig(self) -> float:
        """The least eigenvalue over the blocks held in ``iterate``."""
        return min(float((x if x.shape[1] == 1
                          else np.linalg.eigvalsh(x)[:, 0]).min())
                   for x, _, _, _, _ in self._groups)

    def _moment_min_eigs(self, moments: np.ndarray) -> np.ndarray:
        """The least eigenvalue of each block's moment matrix under
        ``moments`` (one value per target), on the block's face if zeros
        touch it, blocks in buffer order and none for a face of dimension 0:
        one scatter, then one batched ``eigvalsh`` per group above 1x1 (a
        1x1 matrix is its entry)."""
        self.moment[self.scatter] = moments[self.scatter_tid]
        lows = [np.empty(0)]
        for _, _, views, _, face in self._groups:
            if face is not None:
                views = face.restrict(views)
            if views.shape[1]:
                lows.append(views[:, 0, 0] if views.shape[1] == 1
                            else np.linalg.eigvalsh(views)[:, 0])
        return np.concatenate(lows)

    @functools.cached_property
    def _uniform_inverse(self) -> np.ndarray | None:
        """1 over the least eigenvalue of each block's uniform moment matrix
        (on its face), or None when one is not positive in floats."""
        low = self._moment_min_eigs(self.uniform)
        return 1.0 / low if np.all(low > 0) else None

    def _point_terms(self, problem: GramProblem,
                     moments: np.ndarray) -> list[Fraction] | None:
        """t D exactly, D the zeros' point moments per target and t 17/16 of
        the largest :meth:`faces.Face.kernel_weights` under ``moments``; None
        when there is no such t or D is not rational."""
        self.moment[self.scatter] = moments[self.scatter_tid]
        t = 0.0
        for _, _, views, _, face in self._groups:
            if face is not None:
                weights = face.kernel_weights(views)
                if weights is None:
                    return None
                t = max(t, float(weights.max()))
        point = faces.point_moments(list(problem.constraints), self.zeros)
        if point is None or not math.isfinite(t):
            return None
        exact_t = Fraction(17 / 16 * t)
        return [exact_t * p for p in point]

    def refutation(self, problem: GramProblem, matched: np.ndarray,
                   it: int) -> dict[Exponent, Fraction] | None:
        """Moments that :func:`evidence.check_refutation` accepts, built from the last
        affine step (iteration ``it``), or None.

        The step moved each target's entries by (targets - matched) /
        weight_sum; the candidate L is its negation plus eps times the
        uniform moments U.  By Weyl's inequality, block b of L + eps U is
        positive definite once eps * min eig U_b > -min eig L_b; eps is
        17/16 of the largest such ratio, taken from float eigenvalues, plus
        2^-40 max |L| over the least eigenvalue of U, against their rounding.
        On a block that zeros touch these are the eigenvalues on its face,
        and t D, D the zeros' point moments, makes the rest positive
        definite without moving L(P) (:meth:`_point_terms`).
        Floats screen the candidate before any exact work: L(P) < 0 first,
        then L(P) + eps U(P) < 0.  The eigenvalues are the cost, so after a
        candidate falls short by the factor s = eps U(P) / -L(P) > 1, none
        is built before iteration it * min(2, (1 + s) / 2): halfway to where
        s, which tends to fall like 1/it on a strictly infeasible problem,
        would reach 1, and never more than double.
        """
        if it < self._retry_at:
            return None
        moments = matched - self.targets
        moments /= self.weight_sum
        value = float(moments @ self.targets)
        if not value < 0 or (inverse := self._uniform_inverse) is None:
            return None
        ratio = float((-self._moment_min_eigs(moments) * inverse).max(initial=-np.inf))
        eps = 17 / 16 * max(ratio, 0.0) \
            + 2.0 ** -40 * float(np.abs(moments).max()) * float(inverse.max(initial=0.0))
        shortfall = eps * self.uniform_value / -value
        if not shortfall < 1:
            self._retry_at = it * min(2.0, (1.0 + shortfall) / 2.0)
            return None
        if not math.isfinite(eps):
            return None
        exact_eps = Fraction(eps)
        candidate = {g: Fraction(m) + exact_eps * uniform_moment(g)
                     for g, m in zip(problem.constraints, moments.tolist())}
        if self.zeros:
            terms = self._point_terms(problem, moments + eps * self.uniform)
            if terms is None:
                return None
            candidate = {g: v + term for (g, v), term in zip(candidate.items(), terms)}
        return candidate if check_refutation(problem.basis, problem.numerators,
                                             problem.blocks, candidate) else None


def _residual(mats: Sequence[Sequence[Sequence[float]]], problem: GramProblem) -> float:
    worst = 0.0
    for g, pairs in problem.constraints.items():
        cur = 0.0
        for b, i, j in pairs:
            cur += (1 if i == j else 2) * mats[b][i][j]
        worst = max(worst, abs(cur - problem.targets[g]))
    return worst


def _certified(problem: GramProblem, blocks: list[np.ndarray],
               iterations: int = 0) -> SosVerdict | None:
    """Independent re-verification: the Certified verdict carrying ``blocks``,
    or None unless every entry is finite, the constraint loop matches every
    coefficient within MATCH_TOL s and every block G has G + EIG_TOL s I
    positive definite, s = min(1, max |target|).  That test is exact, on
    the entries' binary values (:func:`evidence.positive_definite`).  The verdict
    carries the loop's residual and, taken after the decision and read by
    none, the least ``eigvalsh`` eigenvalue of the blocks, in one batched
    call per block size."""
    rows = [b.tolist() for b in blocks]
    if not all(math.isfinite(x) for block in rows for row in block for x in row):
        return None
    scale = min(1.0, max(map(abs, problem.targets.values())))
    residual = _residual(rows, problem)
    if residual > MATCH_TOL * scale:
        return None
    shift = EIG_TOL * scale
    if not all(positive_definite(block, shift) for block in rows):
        return None
    sizes: dict[int, list[np.ndarray]] = {}
    for b in blocks:
        sizes.setdefault(len(b), []).append(b)
    min_eig = min(float(np.linalg.eigvalsh(np.stack(same))[:, 0].min())
                  for same in sizes.values())
    return SosVerdict(True, problem.r, blocks, residual, min_eig, iterations)


def uniform_moment(g: Exponent) -> Fraction:
    """The integral of y^g over [0, 1]^n."""
    return Fraction(1, math.prod(e + 1 for e in g))


def _check_max_iters(max_iters: int) -> None:
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")


def solve_gram(problem: GramProblem, max_iters: int = DEFAULT_MAX_ITERS,
               zeros: Sequence[gridcone.GridPoint] | None = None) -> SosVerdict:
    """Over-relaxed alternating projections between the affine
    coefficient-matching set and the PSD cone (blockwise, in the buffers of
    :class:`_GramLayout`): x <- P_aff(x + RELAXATION (P_psd(x) - x)), on the
    faces that ``zeros``, the form's grid zeros, force; a query that has
    searched them already passes them, and None searches here.

    Every CHECK_EVERY iterations, and at the last, the iterate is offered to
    the independent re-verification, and when that does not certify, the
    last affine step to :meth:`_GramLayout.refutation` if its residual has
    stalled above STALL times the last check's (a feasible problem's falls
    to 0).  Certified only if the re-verification passes; NotMember only
    with moments that :func:`evidence.check_refutation` accepts; iteration budget
    exhaustion yields Unknown, which is a verdict, not an error and not a
    non-membership proof.  A budget below one iteration raises ValueError.
    """
    _check_max_iters(max_iters)
    if zeros is None:
        zeros = gridcone.grid_zeros(problem.tensor)
    layout = _GramLayout(problem, zeros)
    x, cone = layout.iterate, layout.cone
    last_residual = layout.residual(layout.project_affine())
    best_residual = float("inf")
    best_min_eig = -float("inf")
    it = 0
    while it < max_iters:
        it += 1
        layout.project_psd()                        # cone = P_psd(x)
        np.subtract(cone, x, out=cone)
        cone *= RELAXATION
        x += cone                                   # x + lambda (P_psd(x) - x)
        matched = layout.project_affine()           # x = P_aff(x)
        if it % CHECK_EVERY == 0 or it == max_iters:
            me = layout.min_eig()
            best_min_eig = max(best_min_eig, me)
            residual = layout.residual(matched)
            best_residual = min(best_residual, residual)
            if me >= -EIG_TOL:
                v = _certified(problem, layout.block_matrices(), it)
                if v is not None:
                    return v
            stalled, last_residual = residual >= STALL * last_residual, residual
            if stalled and (moments := layout.refutation(problem, matched, it)):
                return SosVerdict(False, problem.r, None, best_residual, best_min_eig,
                                  it, moments=moments)
    return SosVerdict(False, problem.r, None, best_residual, best_min_eig, it)


def _block_positions(problem: GramProblem) -> dict[Exponent, tuple[int, int]]:
    """Basis monomial -> (block, position inside the block)."""
    return {problem.basis[idx]: (b, k) for b, members in enumerate(problem.blocks)
            for k, idx in enumerate(members)}


def lift_certificate(low: GramProblem, blocks: list[np.ndarray],
                     high: GramProblem) -> list[np.ndarray]:
    """Lift a level-r certificate to level r+1.

    Multiplying P by sum y_k^2 turns each square q(y)^2 into the squares
    (y_k q(y))^2, i.e. the lifted Gram matrix is the sum over k of the old
    one conjugated by the multiply-by-y_k basis embedding.  The blocks are
    conjugated as the checker accepted them, unclipped, so the lift's
    coefficient errors and negative eigenvalues are at most n times those
    below; the lift is re-checked like any certificate.
    """
    if high.r != low.r + 1:
        raise ValueError("can only lift by one level")
    where = _block_positions(high)
    mats = [np.zeros((len(bl), len(bl))) for bl in high.blocks]
    for lb, members in enumerate(low.blocks):
        G = blocks[lb]
        for var in range(low.tensor.n):
            # where each block monomial lands after multiplying by y_var
            targets = [where[tuple(e + (1 if i == var else 0)
                                   for i, e in enumerate(low.basis[idx]))]
                       for idx in members]
            hb = targets[0][0]
            for i, (bi, ki) in enumerate(targets):
                assert bi == hb  # multiplying by one variable keeps parity class
                for j, (bj, kj) in enumerate(targets):
                    mats[hb][ki, kj] += G[i, j]
    return mats


def _fast_path(problem: GramProblem) -> SosVerdict | None:
    """Certified when every exact coefficient of P is non-negative, which
    proves membership: P = sum p_theta (y^theta)^2.  Read off the level's
    integer table, with no constraints built and no Gram blocks: the
    diagonal certificate that holds each float target once, alone on the
    diagonal, has residual 0.0 and the least target as its minimum
    eigenvalue, and those are what the verdict carries."""
    if min(problem.numerators) < 0:
        return None
    return SosVerdict(True, problem.r, None, 0.0, min(problem.targets.values()),
                      fast_path=True)


def _check_walk(A: SymTensor, R: int, max_iters: int) -> None:
    _check_max_iters(max_iters)
    if R < 0:
        raise ValueError("r must be >= 0")
    # the sum of C(n+d+r-1, d+r) over r <= R is C(n+d+R, n) - C(n+d-1, n)
    # (hockey stick); past COUNT_CAP, level 0 alone is more than the limit
    low = binomial_at_most(A.n + A.d - 1, A.n)
    total = low if low > COUNT_CAP else \
        binomial_at_most(A.n + A.d + R, A.n, COUNT_CAP + low) - low
    check_enumeration_size(total, f"levels 0..{R} monomial basis size")


def _sweep(A: SymTensor, R: int, max_iters: int,
           zeros: Sequence[gridcone.GridPoint] | None = None,
           top: GramProblem | None = None,
           solved: SosVerdict | None = None) -> list[SosVerdict]:
    """The walk of :func:`sweep_K_r`; ``top`` is the level-R problem, built
    already, ``solved`` its solve, made already, and ``zeros`` A's grid
    zeros, searched already, or None to search them once, before the first
    solve.  Each level's problem is built once.  A level lifts the
    certificate below when there is one; a fast path carries none, and
    C^(r) lies in C^(r+1), so the level above a fast path takes it too."""
    verdicts: list[SosVerdict] = []
    for r in range(R + 1):
        problem = top if r == R and top is not None else build_gram_problem(A, r)
        v = _fast_path(problem)
        if v is None:
            if verdicts and verdicts[-1].certificate is not None:
                v = _certified(problem,
                               lift_certificate(low, verdicts[-1].certificate, problem),
                               verdicts[-1].iterations)
            if v is None and r == R:
                v = solved
            if v is None:
                if zeros is None:
                    zeros = gridcone.grid_zeros(A)
                v = solve_gram(problem, max_iters, zeros)
        verdicts.append(v)
        low = problem
    return verdicts


def sweep_K_r(A: SymTensor, R: int,
              max_iters: int = DEFAULT_MAX_ITERS) -> list[SosVerdict]:
    """SOS membership at levels 0..R in one walk up: a level tries the fast
    path, then one re-checked lift of the certificate below (keeping its
    iteration count), then a solve.  At most MAX_ENUMERATION monomials in all."""
    _check_walk(A, R, max_iters)
    return _sweep(A, R, max_iters)


def member_K_r(A: SymTensor, r: int,
               max_iters: int = DEFAULT_MAX_ITERS) -> SosVerdict:
    """SOS membership at level r: the coefficient fast path; else one search
    for grid zeros, given to every solve.  With none, level r is solved
    first, and a Certified or NotMember solve is the verdict.  With some, or
    after an Unknown solve, the verdict is the last of :func:`sweep_K_r`'s
    walk up to r, which reuses the level-r table and that solve."""
    _check_walk(A, r, max_iters)
    problem = build_gram_problem(A, r)
    if (v := _fast_path(problem)) is not None:
        return v
    zeros = gridcone.grid_zeros(A)
    solved = None if zeros else solve_gram(problem, max_iters, zeros)
    if solved is not None and solved.verdict != "Unknown":
        return solved
    return _sweep(A, r, max_iters, zeros, top=problem, solved=solved)[-1]
