"""Dense symmetric linear algebra for small covariance matrices.

All routines operate on plain numpy arrays and assume the matrices involved
are symmetric. Each takes one (n, n) matrix or a (..., n, n) stack, and a
stacked call gives every matrix the bits a call on that matrix alone gives.
`sym_eigen` decomposes and owns the degeneracy rule; `whitener` gives a
cheap Cholesky-based whitening map, with `sym_eigen` as its fallback.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveDefinite

# Eigenvalues at or below EIGEN_FLOOR times the largest eigenvalue indicate a
# collapsed sampling distribution. They are reported as an error, not clamped.
# eigh resolves eigenvalues only to about n * eps * lambda_max, far coarser
# than this floor, so for a rotated (non-diagonal) matrix with cond between
# ~1e15 and 1e20 the verdict follows the rounding, not the spectrum.
EIGEN_FLOOR = 1e-20

# tr(C) tr(C^-1) >= cond(C), so a matrix whose product lies below
# WHITEN_CERT has cond(C) below it too. sym_eigen refuses a matrix only when
# its computed eigenvalue ratio reaches 1 / EIGEN_FLOOR = 1e20, and eigh's
# eigenvalues are off by about n * eps * |C|, some 1e-14 |C| at these sizes,
# so every matrix with cond(C) below about 1e13 passes that rule. The rest of
# the margin covers the rounding of the Cholesky factor and its inverse, so
# the fast path never whitens a matrix that sym_eigen would refuse. (Over
# 6000 random matrices, n = 2..40 and cond 1e8..1e22, the least product among
# those Cholesky factored and sym_eigen refused was 1e16.)
WHITEN_CERT = 1e12


def _square(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {c.shape}")
    return c


def symmetrize(c: np.ndarray) -> np.ndarray:
    """Return (C + C^T) / 2 as a new float array, for one matrix or a stack."""
    c = _square(c)
    return (c + c.swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomp:
    """Orthonormal eigenbasis and ascending positive eigenvalues of an SPD matrix.

    Attributes:
        basis: (n, n) array whose columns are unit eigenvectors, or a
            (..., n, n) stack of them.
        eigenvalues: (n,) array, strictly positive, sorted ascending, or a
            (..., n) stack of them.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray

    def condition(self) -> float:
        """Ratio of largest to smallest eigenvalue of one matrix."""
        return float(self.eigenvalues[-1] / self.eigenvalues[0])


def sym_eigen(c: np.ndarray) -> EigenDecomp:
    """Eigendecompose a symmetric positive definite matrix, or a stack of them.

    The input is not symmetrized here: `np.linalg.eigh` reads only its lower
    triangle, so callers pass matrices that are symmetric bit for bit.

    Raises:
        NonPositiveDefinite: if any matrix has non-finite entries, a
            non-positive leading eigenvalue, or an eigenvalue spread beyond
            EIGEN_FLOOR. No caller catches it, so a degenerate covariance
            ends the run.
    """
    c = _square(c)

    def where(i: int) -> str:
        return f"matrix {i} of the stack: " if c.ndim > 2 else ""

    if not np.isfinite(c).all():
        finite = np.isfinite(c).all(axis=(-2, -1)).reshape(-1)
        raise NonPositiveDefinite(f"{where(int(np.argmin(finite)))}non-finite entries")
    w, b = np.linalg.eigh(c)
    ends = w.reshape(-1, w.shape[-1])[:, [0, -1]].tolist()
    for i, (lo, hi) in enumerate(ends):
        if hi <= 0.0 or lo <= EIGEN_FLOOR * hi:
            raise NonPositiveDefinite(
                f"{where(i)}eigenvalue range [{lo:.6e}, {hi:.6e}] is degenerate"
            )
    return EigenDecomp(basis=b, eigenvalues=w)


def inv_sqrt(decomp: EigenDecomp) -> np.ndarray:
    """C^{-1/2} = B diag(w^{-1/2}) B^T for a decomposed SPD matrix or stack."""
    b, w = decomp.basis, decomp.eigenvalues
    return symmetrize((b / np.sqrt(w)[..., None, :]) @ b.swapaxes(-1, -2))


def whitener(c: np.ndarray) -> np.ndarray:
    """W with W^T W = C^{-1}, for one SPD matrix or a (..., n, n) stack.

    So |W (x - mean)| is the Mahalanobis distance of x under C. When every
    matrix is finite, has a Cholesky factor L and passes the WHITEN_CERT
    test, W is inv(L). Otherwise the whole stack goes through `sym_eigen`,
    which refuses it exactly as it would on its own, and W = (B w^{-1/2})^T.

    Raises:
        NonPositiveDefinite: where `sym_eigen` raises for the same input.
    """
    c = _square(c)
    if np.isfinite(c).all():
        try:
            w = np.linalg.inv(np.linalg.cholesky(c))
        except np.linalg.LinAlgError:
            pass
        else:
            certificate = np.trace(c, axis1=-2, axis2=-1) * np.add.reduce(
                w * w, axis=(-2, -1)
            )
            if (certificate < WHITEN_CERT).all():
                return w
    d = sym_eigen(c)
    return (d.basis / np.sqrt(d.eigenvalues)[..., None, :]).swapaxes(-1, -2)


def mahalanobis(x: np.ndarray, mean: np.ndarray, inv_sqrt_c: np.ndarray):
    """Norm of C^{-1/2} (x - mean) for one vector or a stack of row vectors.

    `inv_sqrt_c` must be the symmetric inverse square root of the covariance
    in question. For a (k, n) input the result is a (k,) array; a single
    (n,) vector yields a scalar. A (..., n, n) stack of inverse square roots
    prepends its stack shape to the result.

    The algorithm no longer calls it (rate scoring ranks through
    `whitener`). It stays while `perfbench/layertrace.py` hooks it by name,
    since perfbench's tests require every hook to be present.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    a = np.asarray(inv_sqrt_c, dtype=float)
    n = mean.shape[0]
    if mean.ndim != 1 or a.shape[-2:] != (n, n) or x.shape[-1] != n:
        raise DimensionMismatch(
            f"incompatible shapes x={x.shape} mean={mean.shape} inv_sqrt_c={a.shape}"
        )
    # a is symmetric, so right-multiplying rows by a.T applies a to each vector
    return np.linalg.norm((x - mean) @ a.swapaxes(-1, -2), axis=-1)
