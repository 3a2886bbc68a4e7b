"""Seedable random streams with reproducible sub-stream derivation.

One `RngStream` backs one optimization run. Draws come from numpy's PCG64
generator. Sub-streams are derived from (seed, spawn_key) pairs through
`SeedSequence`, so the pair (master seed, run index) pins every draw of a
run, and the two interleaved optimizers inside a self-adaptive run consume
disjoint streams that cannot perturb each other.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidDimension, InvalidRange


class RngStream:
    """A PCG64-backed stream addressed by a seed and a tuple spawn key."""

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, spawn_key={self.spawn_key})"

    def child(self, index: int) -> "RngStream":
        """Fresh independent stream keyed by (seed, *spawn_key, index).

        Children depend only on the addressing tuple, never on how many
        draws the parent has consumed.
        """
        if index < 0:
            raise InvalidRange(f"child index must be >= 0, got {index}")
        return RngStream(self.seed, self.spawn_key + (int(index),))

    def standard_normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """(rows, cols) array of independent standard normals.

        Row k holds the same values as the k-th of `rows` consecutive
        `standard_normal_matrix(1, cols)` calls would.
        """
        if rows < 1 or cols < 1:
            raise InvalidDimension(f"shape ({rows}, {cols}) must be positive")
        return self._gen.standard_normal((rows, cols))

    def uniform_vector(self, low: float, high: float, n: int) -> np.ndarray:
        """n independent draws from U[low, high)."""
        if not low < high:
            raise InvalidRange(f"need low < high, got [{low}, {high})")
        if n < 1:
            raise InvalidDimension(f"n must be >= 1, got {n}")
        return self._gen.uniform(low, high, size=n)

    def random_rotation(self, n: int) -> np.ndarray:
        """Random orthonormal n x n matrix.

        Built by modified Gram-Schmidt on a standard-normal matrix: column j
        is orthogonalized against the already-finished columns one at a time,
        which is numerically far more stable than classical Gram-Schmidt.
        """
        if n < 1:
            raise InvalidDimension(f"n must be >= 1, got {n}")
        a = self._gen.standard_normal((n, n))
        q = np.empty((n, n))
        for j in range(n):
            v = a[:, j].copy()
            for i in range(j):
                v -= (q[:, i] @ v) * q[:, i]
            q[:, j] = v / np.linalg.norm(v)
        return q
