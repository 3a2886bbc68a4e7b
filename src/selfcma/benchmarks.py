"""Benchmark problems: shifted optima, optional rotation, minimum value 0.

Each factory returns a `Problem` whose evaluator maps an n-vector to a
float. The shift `x_opt` moves the optimum away from the origin; the two
non-separable problems additionally rotate the frame so coordinate-wise
tricks cannot help.

Evaluators run once per row, so they call `ndarray.dot`, `np.add.reduce`
and `math.sqrt` rather than numpy's slower generic wrappers; each keeps the
bits of its `@`/`np.sum`/`np.sqrt` form, which the tests pin. Where a
kernel combines an array with a constant, the constant is an array built
once per problem, because a ufunc call with a Python-float operand costs
more than one with an array operand. A kernel writes in place only into
arrays it allocated itself during the call, never into `x` or those
constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidDimension
from .rng import RngStream

PROBLEM_NAMES = ("sphere", "rosenbrock", "ellipsoid", "sharpridge")

# How far the optimum may be shifted from the origin along each coordinate.
SHIFT_BOX = (-4.0, 4.0)


@dataclass(frozen=True, eq=False)
class Problem:
    """A benchmark instance: name, dimension, optimum, and evaluator."""

    name: str
    n: int
    x_opt: np.ndarray
    rotation: np.ndarray | None
    evaluator: Callable[[np.ndarray], float]

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"x shape {x.shape} != ({self.n},)")
        return self.evaluator(x)


def _check_shift(n: int, x_opt) -> np.ndarray:
    if n < 1:
        raise InvalidDimension(f"n must be >= 1, got {n}")
    x_opt = np.asarray(x_opt, dtype=float)
    if x_opt.shape != (n,):
        raise DimensionMismatch(f"x_opt shape {x_opt.shape} != ({n},)")
    return x_opt


def _check_rotation(n: int, rotation) -> np.ndarray:
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (n, n):
        raise DimensionMismatch(f"rotation shape {rotation.shape} != ({n}, {n})")
    if np.max(np.abs(rotation.T @ rotation - np.eye(n))) > 1e-8:
        raise ValueError("rotation matrix is not orthonormal")
    return rotation


def sphere(n: int, x_opt) -> Problem:
    """Sum of squared coordinates around x_opt."""
    x_opt = _check_shift(n, x_opt)

    def evaluate(x):
        z = x - x_opt
        return float(z.dot(z))

    return Problem("sphere", n, x_opt, None, evaluate)


def rosenbrock(n: int, x_opt) -> Problem:
    """The banana valley, with its minimum moved from all-ones to x_opt."""
    if n < 2:
        raise InvalidDimension(f"rosenbrock needs n >= 2, got {n}")
    x_opt = _check_shift(n, x_opt)
    one = np.ones(n)
    one_tail = one[1:]
    hundred = np.full(n - 1, 100.0)

    def evaluate(x):
        # x - x_opt + 1, then 100 (head^2 - z[1:])^2 + (head - 1)^2
        z = x - x_opt
        z += one
        head = z[:-1]
        terms = head * head
        terms -= z[1:]
        terms *= terms
        terms *= hundred
        tail = head - one_tail
        tail *= tail
        terms += tail
        return float(np.add.reduce(terms))

    return Problem("rosenbrock", n, x_opt, None, evaluate)


def ellipsoid(n: int, x_opt, rotation) -> Problem:
    """Rotated quadratic with axis scales spanning six orders of magnitude."""
    if n < 2:
        raise InvalidDimension(f"ellipsoid needs n >= 2, got {n}")
    x_opt = _check_shift(n, x_opt)
    rotation = _check_rotation(n, rotation)
    scales = 10.0 ** (6.0 * np.arange(n) / (n - 1))

    def evaluate(x):
        z = rotation.dot(x - x_opt)
        z *= z
        return float(scales.dot(z))

    return Problem("ellipsoid", n, x_opt, rotation, evaluate)


def sharpridge(n: int, x_opt, rotation) -> Problem:
    """Rotated sharp ridge: smooth along the first axis, kinked across it."""
    if n < 2:
        raise InvalidDimension(f"sharpridge needs n >= 2, got {n}")
    x_opt = _check_shift(n, x_opt)
    rotation = _check_rotation(n, rotation)

    def evaluate(x):
        z = rotation.dot(x - x_opt)
        return float(z[0]) ** 2 + 100.0 * math.sqrt(np.add.reduce(z[1:] ** 2))

    return Problem("sharpridge", n, x_opt, rotation, evaluate)


def make_problem(name: str, n: int, rng: RngStream) -> Problem:
    """Instantiate a named problem with a freshly drawn shift (and rotation).

    The shift is uniform in SHIFT_BOX^n; rotated problems then draw a random
    orthonormal matrix. Both come from `rng` in that fixed order, so a given
    stream always produces the same instance.
    """
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}, expected one of {PROBLEM_NAMES}")
    x_opt = rng.uniform_vector(SHIFT_BOX[0], SHIFT_BOX[1], n)
    if name == "sphere":
        return sphere(n, x_opt)
    if name == "rosenbrock":
        return rosenbrock(n, x_opt)
    rotation = rng.random_rotation(n)
    if name == "ellipsoid":
        return ellipsoid(n, x_opt, rotation)
    return sharpridge(n, x_opt, rotation)
