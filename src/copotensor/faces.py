"""Faces of the SOS Gram cone cut out by exact zeros of the form.

If the form vanishes at a point x of the simplex, P^(r)(y*) = 0 at
y* = sqrt(x), so every PSD Gram matrix G that matches P^(r) has m_b(y*) in
the kernel of each block G_b: the terms m_b(y*)^T G_b m_b(y*) are
non-negative and sum to P^(r)(y*).  On a block, the zeros' vectors m_b(y*)
span a subspace, and G_b lies on the face {F S F^T : S PSD} of the PSD cone,
F an orthonormal basis of the complement: the cheapest exact form of facial
reduction (Permenter & Parrilo 2018, "Partial facial reduction").  The zeros
are the form's own, found exactly on a fixed simplex grid
(``gridcone.grid_zeros``): as P^(r)(sqrt(x)) = f(x) (sum x)^r, they are the
same at every level.  The bases are floats, so a solver restricted to the
faces stays untrusted and its Certified verdicts are re-checked as before.

The zeros serve refutations too.  The point moments delta(y^g) = x^(g/2) of
a zero are rational on even exponents, the moment matrix of delta on a block
is m_b(y*) m_b(y*)^T, PSD of rank one, and delta(P^(r)) = P^(r)(y*) = 0.  So
adding t times their sum D to a candidate moment functional makes its
matrices positive definite along the zeros' vectors, for t large enough
(:meth:`Face.kernel_weights`), and leaves its value on P^(r) unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

Exponent = tuple[int, ...]
Zero = tuple[int, Exponent]   # the point c / m as (m, c)


def zero_kernels(basis: Sequence[Exponent], blocks: Sequence[Sequence[int]],
                 zeros: Sequence[Zero]) -> list[tuple[np.ndarray, int, float] | None]:
    """Per block, (E, f, sigma^2) from the eigenvectors E of Z Z^T, column k
    of Z the block's monomials at y = sqrt(c_k / m_k): the first f columns
    of E (eigenvalue 0, up to rounding) span the face, the others the
    zeros' vectors, whose least eigenvalue is sigma^2.  None where Z is 0."""
    values = np.zeros((len(basis), len(zeros)))
    powers = np.array(basis, dtype=float)
    for k, (m, c) in enumerate(zeros):
        values[:, k] = np.prod(np.sqrt(np.array(c, dtype=float) / m) ** powers, axis=1)
    kernels: list[tuple[np.ndarray, int, float] | None] = []
    for members in blocks:
        Z = values[list(members)]
        if not Z.any():
            kernels.append(None)
            continue
        w, E = np.linalg.eigh(Z @ Z.T)
        f = int(np.count_nonzero(w <= w[-1] * 1e-12))
        kernels.append((E, f, float(w[f])))
    return kernels


def point_moments(exponents: Sequence[Exponent],
                  zeros: Sequence[Zero]) -> list[Fraction] | None:
    """D(y^g) = sum over the zeros x of x^(g / 2), per exponent, exactly;
    None when an exponent is odd (D would not be rational)."""
    if any(e % 2 for g in exponents for e in g):
        return None
    # over the common denominator lcm(m)^s of the terms c^(g/2) / m^s
    den = math.lcm(*(m for m, _ in zeros))
    out = []
    for g in exponents:
        half = [e // 2 for e in g]
        s = sum(half)
        out.append(Fraction(sum(math.prod(ci ** h for ci, h in zip(c, half) if h)
                                * (den // m) ** s for m, c in zeros), den ** s))
    return out


class Face:
    """k blocks of size m whose faces have dimension f < m: the face bases F
    (k, m, f), the bases Q (k, m, m - f) of the zeros' vectors, and sigma^2
    per block, from :func:`zero_kernels`."""

    def __init__(self, kernels: Sequence[tuple[np.ndarray, int, float]]):
        E = np.stack([e for e, _, _ in kernels])
        f = kernels[0][1]
        # contiguous, as BLAS may round a strided operand differently
        self.face = np.ascontiguousarray(E[:, :, :f])
        self.kernel = np.ascontiguousarray(E[:, :, f:])
        self.sigma2 = np.array([s for _, _, s in kernels])

    @property
    def dim(self) -> int:
        return self.face.shape[2]

    def restrict(self, stack: np.ndarray) -> np.ndarray:
        """F^T X F for each block X of a (k, m, m) stack."""
        return self.face.transpose(0, 2, 1) @ stack @ self.face

    def project(self, src: np.ndarray, dst: np.ndarray) -> None:
        """dst = F P_psd(F^T X F) F^T, symmetrized, for each block X of src:
        a clamp when f = 1, one batched eigh when f > 1, 0 when f = 0."""
        if not self.dim:
            dst.fill(0.0)
            return
        inner = self.restrict(src)
        if self.dim == 1:
            np.maximum(inner, 0.0, out=inner)
        else:
            w, V = np.linalg.eigh(inner)
            inner = (V * np.maximum(w, 0.0)[:, None, :]) @ V.transpose(0, 2, 1)
        out = self.face @ inner @ self.face.transpose(0, 2, 1)
        np.add(out, out.transpose(0, 2, 1), out=dst)
        dst *= 0.5

    def kernel_weights(self, moment: np.ndarray) -> np.ndarray | None:
        """Per block, a t from floats such that the moment matrix M plus t
        times D's is positive definite, given that F^T M F is; None when
        F^T M F is not positive definite in floats.

        In the basis [F Q], M is [[A, B], [B^T, C]] and D's matrix is
        [[0, 0], [0, Q^T Z Z^T Q]], at least sigma^2 I in its corner.  The
        Schur complement is positive definite once
        t sigma^2 > |C| + |B|^2 / min eig A, in Frobenius norms."""
        kernel_t = self.kernel.transpose(0, 2, 1)
        bound = np.sqrt(np.square(kernel_t @ moment @ self.kernel).sum(axis=(1, 2)))
        if self.dim:
            low = np.linalg.eigvalsh(self.restrict(moment))[:, 0]
            if not np.all(low > 0):
                return None
            cross = self.face.transpose(0, 2, 1) @ moment @ self.kernel
            bound += np.square(cross).sum(axis=(1, 2)) / low
        return bound / self.sigma2
