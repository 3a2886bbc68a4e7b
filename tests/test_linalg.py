"""Symmetric eigendecomposition, inverse square root, whitening, Mahalanobis distance."""
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


def _random_covs(seed, k, n):
    rng = sc.RngStream(seed)
    covs = []
    for _ in range(k):
        basis = rng.random_rotation(n)
        eigs = 10.0 ** rng.uniform_vector(-2, 2, n)
        # last-bit asymmetry included: eigh reads only the lower triangle
        covs.append((basis * eigs) @ basis.T)
    return np.stack(covs)


def test_stacked_routines_match_one_matrix_at_a_time():
    covs = _random_covs(14, 6, 5)
    xs = sc.RngStream(15).standard_normal_matrix(9, 5)
    mean = sc.RngStream(16).uniform_vector(-1, 1, 5)
    stacked = linalg.sym_eigen(covs)
    assert stacked.basis.shape == (6, 5, 5)
    assert stacked.eigenvalues.shape == (6, 5)
    a_stack = linalg.inv_sqrt(stacked)
    d_stack = linalg.mahalanobis(xs, mean, a_stack)
    assert d_stack.shape == (6, 9)
    w_stack = linalg.whitener(covs)
    assert w_stack.shape == (6, 5, 5)
    np.testing.assert_array_equal(linalg.symmetrize(covs)[2], linalg.symmetrize(covs[2]))
    for i, cov in enumerate(covs):
        single = linalg.sym_eigen(cov)
        np.testing.assert_array_equal(stacked.basis[i], single.basis)
        np.testing.assert_array_equal(stacked.eigenvalues[i], single.eigenvalues)
        a = linalg.inv_sqrt(single)
        np.testing.assert_array_equal(a_stack[i], a)
        np.testing.assert_array_equal(d_stack[i], linalg.mahalanobis(xs, mean, a))
        np.testing.assert_array_equal(w_stack[i], linalg.whitener(cov))


def test_sym_eigen_stack_names_the_degenerate_matrix():
    covs = _random_covs(17, 4, 3)
    covs[2] = np.diag([1.0, 1.0, 1e-25])
    with pytest.raises(NonPositiveDefinite, match="matrix 2 of the stack"):
        linalg.sym_eigen(covs)
    covs[2] = -np.eye(3)
    with pytest.raises(NonPositiveDefinite, match="matrix 2 of the stack"):
        linalg.sym_eigen(covs)
    covs[2, 0, 0] = np.nan
    with pytest.raises(NonPositiveDefinite, match="matrix 2 of the stack: non-finite"):
        linalg.sym_eigen(covs)


def _eigen_whitener(cov):
    d = linalg.sym_eigen(cov)
    return (d.basis / np.sqrt(d.eigenvalues)).T


def _rotated(seed, eigs):
    basis = sc.RngStream(seed).random_rotation(len(eigs))
    return linalg.symmetrize((basis * np.asarray(eigs)) @ basis.T)


def test_whitener_identity_is_identity():
    np.testing.assert_array_equal(linalg.whitener(np.eye(3)), np.eye(3))


def test_whitener_distances_are_mahalanobis():
    rng = sc.RngStream(18)
    cov = _rotated(19, [0.2, 1.0, 2.0, 7.0])
    mean = rng.uniform_vector(-1, 1, 4)
    xs = rng.standard_normal_matrix(9, 4)
    w = linalg.whitener(cov)
    np.testing.assert_allclose(w.T @ w @ cov, np.eye(4), rtol=0, atol=1e-12)
    want = linalg.mahalanobis(xs, mean, linalg.inv_sqrt(linalg.sym_eigen(cov)))
    np.testing.assert_allclose(np.linalg.norm((xs - mean) @ w.T, axis=1), want, rtol=1e-12)


def test_whitener_shape_mismatch():
    for shape in ((2, 3), (4, 2, 3), (3,)):
        with pytest.raises(DimensionMismatch):
            linalg.whitener(np.zeros(shape))


@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_whitener_scaling_property(scale, seed):
    # scaling C by s divides W, and so every distance, by sqrt(s)
    cov = _rotated(seed, [0.5, 1.0, 4.0])
    w1 = linalg.whitener(cov)
    w2 = linalg.whitener(scale * cov)
    np.testing.assert_allclose(
        w2, w1 / np.sqrt(scale), rtol=1e-9, atol=1e-12 * np.abs(w1).max() / np.sqrt(scale)
    )


def test_whitener_falls_back_to_the_eigen_path():
    # cond 1e18: Cholesky refuses it, sym_eigen's rule accepts it
    ill = _rotated(2, np.geomspace(1.0, 1e-18, 4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(ill)
    np.testing.assert_array_equal(linalg.whitener(ill), _eigen_whitener(ill))
    # cond 1e14: Cholesky succeeds, the certificate fails
    spread = np.diag([1.0, 1e-14])
    np.linalg.cholesky(spread)
    np.testing.assert_array_equal(linalg.whitener(spread), _eigen_whitener(spread))
    # a stack goes through sym_eigen whole, and each matrix keeps its bits
    stack = np.stack([np.eye(4), ill])
    np.testing.assert_array_equal(linalg.whitener(stack)[0], _eigen_whitener(np.eye(4)))


def test_whitener_refuses_what_sym_eigen_refuses():
    covs = _random_covs(20, 3, 4)
    covs[1] = _rotated(3, np.geomspace(1.0, 1e-19, 4))
    with pytest.raises(NonPositiveDefinite, match="matrix 1 of the stack"):
        linalg.sym_eigen(covs)
    with pytest.raises(NonPositiveDefinite, match="matrix 1 of the stack"):
        linalg.whitener(covs)
    # Cholesky accepts this one; the certificate hands it to sym_eigen
    covs[1] = np.diag([1.0, 1.0, 1.0, 1e-25])
    with pytest.raises(NonPositiveDefinite, match="matrix 1 of the stack"):
        linalg.whitener(covs)
    covs[1] = -np.eye(4)
    with pytest.raises(NonPositiveDefinite, match="matrix 1 of the stack"):
        linalg.whitener(covs)
    covs[1, 2, 2] = np.inf
    with pytest.raises(NonPositiveDefinite, match="matrix 1 of the stack: non-finite"):
        linalg.whitener(covs)
    with pytest.raises(NonPositiveDefinite, match="non-finite"):
        linalg.whitener(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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
