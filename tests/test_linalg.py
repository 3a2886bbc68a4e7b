"""Symmetric eigendecomposition, inverse square root, Mahalanobis distance."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfcma as sc
from selfcma import linalg
from selfcma.errors import DimensionMismatch, NonPositiveDefinite


def test_eigh_two_by_two_known_values():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3 with (1, -1) and (1, 1) axes
    d = linalg.sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(d.eigenvalues, [1.0, 3.0], rtol=1e-14)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for col, expected in ((0, [inv_sqrt2, -inv_sqrt2]), (1, [inv_sqrt2, inv_sqrt2])):
        v = d.basis[:, col]
        sign = 1.0 if v[0] * expected[0] > 0 else -1.0
        np.testing.assert_allclose(sign * v, expected, rtol=1e-14)


def test_eigen_reconstruct_roundtrip():
    rng = sc.RngStream(11)
    basis = rng.random_rotation(6)
    eigs = 10.0 ** rng.uniform_vector(-2, 2, 6)
    cov = linalg.symmetrize((basis * eigs) @ basis.T)
    d = linalg.sym_eigen(cov)
    np.testing.assert_allclose(
        (d.basis * d.eigenvalues) @ d.basis.T, cov, rtol=0, atol=1e-12 * eigs.max()
    )
    assert d.condition() == pytest.approx(eigs.max() / eigs.min(), rel=1e-10)


def test_inv_sqrt_squares_to_inverse():
    rng = sc.RngStream(12)
    basis = rng.random_rotation(5)
    cov = linalg.symmetrize((basis * np.array([0.1, 0.5, 1.0, 3.0, 10.0])) @ basis.T)
    a = linalg.inv_sqrt(linalg.sym_eigen(cov))
    np.testing.assert_allclose(a @ a @ cov, np.eye(5), rtol=0, atol=1e-12)


def test_sym_eigen_rejects_indefinite():
    with pytest.raises(NonPositiveDefinite):
        linalg.sym_eigen(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_sym_eigen_rejects_collapsed_spread():
    with pytest.raises(NonPositiveDefinite):
        linalg.sym_eigen(np.diag([1.0, 1e-25]))


def test_sym_eigen_rejects_non_finite():
    with pytest.raises(NonPositiveDefinite):
        linalg.sym_eigen(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_symmetrize_requires_square():
    with pytest.raises(DimensionMismatch):
        linalg.symmetrize(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        linalg.symmetrize(np.zeros((4, 2, 3)))
    with pytest.raises(DimensionMismatch):
        linalg.symmetrize(np.zeros(3))
    # every routine takes one matrix, not a stack
    with pytest.raises(DimensionMismatch):
        linalg.sym_eigen(np.stack([np.eye(3)] * 2))


def test_sym_eigen_names_why_a_matrix_is_degenerate():
    basis = sc.RngStream(17).random_rotation(3)
    cov = linalg.symmetrize((basis * np.array([0.5, 1.0, 4.0])) @ basis.T)
    with pytest.raises(NonPositiveDefinite, match="eigenvalue range .* is degenerate"):
        linalg.sym_eigen(np.diag([1.0, 1.0, 1e-25]))
    with pytest.raises(NonPositiveDefinite, match="eigenvalue range .* is degenerate"):
        linalg.sym_eigen(-np.eye(3))
    cov[0, 0] = np.nan
    with pytest.raises(NonPositiveDefinite, match="^non-finite entries$"):
        linalg.sym_eigen(cov)


def test_mahalanobis_identity_is_euclidean():
    x = np.array([3.0, 4.0])
    d = linalg.mahalanobis(x, np.zeros(2), np.eye(2))
    assert float(d) == pytest.approx(5.0, rel=1e-15)


def test_mahalanobis_stack_matches_loop():
    rng = sc.RngStream(13)
    basis = rng.random_rotation(4)
    cov = linalg.symmetrize((basis * np.array([0.2, 1.0, 2.0, 7.0])) @ basis.T)
    a = linalg.inv_sqrt(linalg.sym_eigen(cov))
    mean = rng.uniform_vector(-1, 1, 4)
    xs = rng.standard_normal_matrix(9, 4)
    stacked = linalg.mahalanobis(xs, mean, a)
    singles = [float(linalg.mahalanobis(x, mean, a)) for x in xs]
    np.testing.assert_allclose(stacked, singles, rtol=1e-12)


def test_mahalanobis_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.mahalanobis(np.zeros(3), np.zeros(2), np.eye(2))


@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_mahalanobis_scaling_property(scale, seed):
    # scaling C by s divides every distance by sqrt(s)
    rng = sc.RngStream(seed)
    basis = rng.random_rotation(3)
    cov = linalg.symmetrize((basis * np.array([0.5, 1.0, 4.0])) @ basis.T)
    x = rng.standard_normal_matrix(1, 3)[0]
    a1 = linalg.inv_sqrt(linalg.sym_eigen(cov))
    a2 = linalg.inv_sqrt(linalg.sym_eigen(scale * cov))
    d1 = float(linalg.mahalanobis(x, np.zeros(3), a1))
    d2 = float(linalg.mahalanobis(x, np.zeros(3), a2))
    assert d2 == pytest.approx(d1 / np.sqrt(scale), rel=1e-9)
