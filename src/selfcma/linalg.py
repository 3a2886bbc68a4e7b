"""Dense symmetric linear algebra for small covariance matrices.

All routines operate on plain numpy arrays, take one (n, n) matrix and
assume it is symmetric. `sym_eigen` decomposes and owns the degeneracy
rule; rate scoring whitens through the decomposition it accepted.
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


def _square(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {c.shape}")
    return c


def symmetrize(c: np.ndarray) -> np.ndarray:
    """Return (C + C^T) / 2 as a new float array."""
    c = _square(c)
    return (c + c.T) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomp:
    """Orthonormal eigenbasis and ascending positive eigenvalues of an SPD matrix.

    Attributes:
        basis: (n, n) array whose columns are unit eigenvectors.
        eigenvalues: (n,) array, strictly positive, sorted ascending.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray

    def condition(self) -> float:
        """Ratio of largest to smallest eigenvalue."""
        return float(self.eigenvalues[-1] / self.eigenvalues[0])


def sym_eigen(c: np.ndarray) -> EigenDecomp:
    """Eigendecompose a symmetric positive definite matrix.

    The input is not symmetrized here: `np.linalg.eigh` reads only its lower
    triangle, so callers pass matrices that are symmetric bit for bit.

    Raises:
        NonPositiveDefinite: if the matrix has non-finite entries, a
            non-positive leading eigenvalue, or an eigenvalue spread beyond
            EIGEN_FLOOR. No caller catches it, so a degenerate covariance
            ends the run.
    """
    c = _square(c)
    if not np.isfinite(c).all():
        raise NonPositiveDefinite("non-finite entries")
    w, b = np.linalg.eigh(c)
    lo, hi = float(w[0]), float(w[-1])
    if hi <= 0.0 or lo <= EIGEN_FLOOR * hi:
        raise NonPositiveDefinite(
            f"eigenvalue range [{lo:.6e}, {hi:.6e}] is degenerate"
        )
    return EigenDecomp(basis=b, eigenvalues=w)


def inv_sqrt(decomp: EigenDecomp) -> np.ndarray:
    """C^{-1/2} = B diag(w^{-1/2}) B^T for a decomposed SPD matrix."""
    b, w = decomp.basis, decomp.eigenvalues
    return symmetrize((b / np.sqrt(w)) @ b.T)


def mahalanobis(x: np.ndarray, mean: np.ndarray, inv_sqrt_c: np.ndarray):
    """Norm of C^{-1/2} (x - mean) for one vector or a stack of row vectors.

    `inv_sqrt_c` must be the symmetric inverse square root of the covariance
    in question. For a (k, n) input the result is a (k,) array; a single
    (n,) vector yields a scalar.

    The algorithm no longer calls it (rate scoring ranks squared distances
    in `adapt.h_objective`). It stays while `perfbench/layertrace.py` hooks
    it by name, since perfbench's tests require every hook to be present.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    a = np.asarray(inv_sqrt_c, dtype=float)
    n = mean.shape[0]
    if mean.ndim != 1 or a.shape != (n, n) or x.shape[-1] != n:
        raise DimensionMismatch(
            f"incompatible shapes x={x.shape} mean={mean.shape} inv_sqrt_c={a.shape}"
        )
    # a is symmetric, so right-multiplying rows by a.T applies a to each vector
    return np.linalg.norm((x - mean) @ a.T, axis=-1)
