"""Dense symmetric linear algebra for small covariance matrices.

All routines operate on plain numpy arrays and assume the matrices involved
are symmetric. Each takes one (n, n) matrix or a (..., n, n) stack, and a
stacked call gives every matrix the bits a call on that matrix alone gives.
`sym_eigen` symmetrizes its input before decomposing so that floating-point
drift accumulated across many covariance updates cannot leak into the
eigenbasis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveDefinite

# Eigenvalues at or below EIGEN_FLOOR times the largest eigenvalue indicate a
# collapsed sampling distribution. They are reported as an error, not clamped.
EIGEN_FLOOR = 1e-20


def symmetrize(c: np.ndarray) -> np.ndarray:
    """Return (C + C^T) / 2 as a new float array, for one matrix or a stack."""
    c = np.asarray(c, dtype=float)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {c.shape}")
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

    The input is symmetrized first, so callers may pass the raw result of an
    additive update without worrying about last-bit asymmetry.

    Raises:
        NonPositiveDefinite: if any matrix has non-finite entries, a
            non-positive leading eigenvalue, or an eigenvalue spread beyond
            EIGEN_FLOOR. The caller should treat this as a broken covariance
            update, typically by restarting.
    """
    c = symmetrize(c)
    if not np.isfinite(c).all():
        raise NonPositiveDefinite("matrix has non-finite entries")
    w, b = np.linalg.eigh(c)
    ends = w.reshape(-1, w.shape[-1])[:, [0, -1]].tolist()
    for i, (lo, hi) in enumerate(ends):
        if hi <= 0.0 or lo <= EIGEN_FLOOR * hi:
            where = f"matrix {i} of the stack: " if w.ndim > 1 else ""
            raise NonPositiveDefinite(
                f"{where}eigenvalue range [{lo:.6e}, {hi:.6e}] is degenerate"
            )
    return EigenDecomp(basis=b, eigenvalues=w)


def inv_sqrt(decomp: EigenDecomp) -> np.ndarray:
    """C^{-1/2} = B diag(w^{-1/2}) B^T for a decomposed SPD matrix or stack."""
    b, w = decomp.basis, decomp.eigenvalues
    return symmetrize((b / np.sqrt(w)[..., None, :]) @ b.swapaxes(-1, -2))


def mahalanobis(x: np.ndarray, mean: np.ndarray, inv_sqrt_c: np.ndarray):
    """Norm of C^{-1/2} (x - mean) for one vector or a stack of row vectors.

    `inv_sqrt_c` must be the symmetric inverse square root of the covariance
    in question. For a (k, n) input the result is a (k,) array; a single
    (n,) vector yields a scalar. A (..., n, n) stack of inverse square roots
    prepends its stack shape to the result.
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
