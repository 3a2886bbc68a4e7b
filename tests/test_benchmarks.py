"""Benchmark evaluators: optimum values, known points, rotation handling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfcma as sc
from selfcma import benchmarks
from selfcma.errors import DimensionMismatch, InvalidDimension


def test_sphere_known_values():
    p = benchmarks.sphere(3, np.array([1.0, -1.0, 2.0]))
    assert p(p.x_opt) == 0.0
    assert p(np.array([2.0, -1.0, 2.0])) == 1.0
    assert p(np.array([0.0, 0.0, 0.0])) == pytest.approx(6.0, rel=1e-15)


def test_rosenbrock_optimum_and_classic_point():
    shift = np.array([0.5, -1.5, 2.0, 0.0])
    p = benchmarks.rosenbrock(4, shift)
    assert p(shift) == 0.0
    # at z = 0 (x = x_opt - 1) each term is 100 z^4 ... reduces to n-1
    assert p(shift - 1.0) == pytest.approx(3.0, rel=1e-15)


def test_rosenbrock_unshifted_matches_textbook_form():
    p = benchmarks.rosenbrock(2, np.ones(2))  # optimum at (1, 1), z = x
    x = np.array([-1.2, 1.0])  # the classic starting point
    expected = 100.0 * (x[0] ** 2 - x[1]) ** 2 + (x[0] - 1.0) ** 2
    assert p(x) == pytest.approx(expected, rel=1e-15)


def test_ellipsoid_axis_scaling():
    eye = np.eye(4)
    p = benchmarks.ellipsoid(4, np.zeros(4), eye)
    assert p(np.zeros(4)) == 0.0
    # moving along the last axis costs 1e6 times the first
    assert p(np.array([0, 0, 0, 1.0])) / p(np.array([1.0, 0, 0, 0])) == (
        pytest.approx(1e6, rel=1e-12)
    )


def test_ellipsoid_rotation_invariant_value_set():
    rng = sc.RngStream(60)
    rot = rng.random_rotation(5)
    shifted = rng.uniform_vector(-4, 4, 5)
    p = benchmarks.ellipsoid(5, shifted, rot)
    assert p(shifted) == pytest.approx(0.0, abs=1e-18)
    assert p(shifted + rot.T @ np.array([1.0, 0, 0, 0, 0])) == pytest.approx(
        1.0, rel=1e-9
    )


def test_sharpridge_values():
    eye = np.eye(3)
    p = benchmarks.sharpridge(3, np.zeros(3), eye)
    assert p(np.zeros(3)) == 0.0
    assert p(np.array([2.0, 0.0, 0.0])) == pytest.approx(4.0, rel=1e-15)
    assert p(np.array([0.0, 3.0, 4.0])) == pytest.approx(500.0, rel=1e-15)


def test_rotation_must_be_orthonormal():
    with pytest.raises(ValueError):
        benchmarks.ellipsoid(3, np.zeros(3), np.eye(3) * 2.0)
    with pytest.raises(DimensionMismatch):
        benchmarks.sharpridge(3, np.zeros(3), np.eye(4))


def test_dimension_validation():
    with pytest.raises(InvalidDimension):
        benchmarks.rosenbrock(1, np.zeros(1))
    with pytest.raises(DimensionMismatch):
        benchmarks.sphere(3, np.zeros(2))
    p = benchmarks.sphere(3, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        p(np.zeros(4))


def test_make_problem_deterministic_and_in_box():
    a = sc.make_problem("ellipsoid", 6, sc.RngStream(61))
    b = sc.make_problem("ellipsoid", 6, sc.RngStream(61))
    np.testing.assert_array_equal(a.x_opt, b.x_opt)
    np.testing.assert_array_equal(a.rotation, b.rotation)
    assert np.all(np.abs(a.x_opt) <= 4.0)
    with pytest.raises(ValueError):
        sc.make_problem("banana", 6, sc.RngStream(61))


@given(name=st.sampled_from(benchmarks.PROBLEM_NAMES), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_problems_nonnegative_and_zero_at_optimum(name, seed):
    p = sc.make_problem(name, 4, sc.RngStream(seed))
    assert p(p.x_opt) <= 1e-18
    x = sc.RngStream(seed).child(5).uniform_vector(-5, 5, 4)
    assert p(x) >= 0.0


def _numpy_reference(problem, x):
    """Each evaluator written with numpy's generic wrappers (`np.sum`, `@`,
    `np.sqrt`), the forms its per-point kernel must repeat bit for bit."""
    if problem.name == "sphere":
        z = x - problem.x_opt
        return float(z @ z)
    if problem.name == "rosenbrock":
        z = x - problem.x_opt + 1.0
        return float(np.sum(100.0 * (z[:-1] ** 2 - z[1:]) ** 2 + (z[:-1] - 1.0) ** 2))
    z = problem.rotation @ (x - problem.x_opt)
    if problem.name == "ellipsoid":
        scales = 10.0 ** (6.0 * np.arange(problem.n) / (problem.n - 1))
        return float(scales @ (z * z))
    return float(z[0] ** 2 + 100.0 * np.sqrt(np.sum(z[1:] ** 2)))


def _bits(value):
    """A float's bit pattern, so that -0.0 and 0.0 differ and NaN equals itself."""
    return np.float64(value).tobytes()


@pytest.mark.parametrize("n", [2, 10, 40])
@pytest.mark.parametrize("name", benchmarks.PROBLEM_NAMES)
def test_evaluators_match_the_numpy_reference_bit_for_bit(name, n):
    p = sc.make_problem(name, n, sc.RngStream(62))
    rng = np.random.default_rng(63)
    # the optimum, Gaussian steps around it from 1e-8 to 1e3, and the box
    # |x| <= 1e3: about 2000 points per problem over the three dimensions
    scales = 10.0 ** rng.uniform(-8.0, 3.0, size=(350, 1))
    near = p.x_opt + scales * rng.standard_normal((350, n))
    far = rng.uniform(-1e3, 1e3, size=(349, n))
    points = np.vstack([p.x_opt, near, far])
    before = points.tobytes()
    got = [_bits(p(x)) for x in points]
    # an in-place kernel must never write into the caller's row ...
    assert points.tobytes() == before, f"{name} n={n}: the evaluator wrote into x"
    bad = [i for i, x in enumerate(points) if got[i] != _bits(_numpy_reference(p, x))]
    assert not bad, f"{name} n={n}: {len(bad)} of {len(points)} differ, first {bad[:5]}"
    # ... nor into its own constants, which would move a repeated evaluation
    again = [_bits(p(x)) for x in points[:10]]
    assert again == got[:10], f"{name} n={n}: a repeated evaluation moved"
