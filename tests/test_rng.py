"""Stream determinism, sub-stream independence, rotation orthonormality."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfcma import RngStream
from selfcma.errors import InvalidDimension, InvalidRange


def test_same_seed_same_draws():
    a = RngStream(123)
    b = RngStream(123)
    np.testing.assert_array_equal(
        a.standard_normal_matrix(5, 10), b.standard_normal_matrix(5, 10)
    )
    np.testing.assert_array_equal(a.uniform_vector(0, 1, 3), b.uniform_vector(0, 1, 3))


def test_different_seeds_differ():
    assert not np.array_equal(
        RngStream(1).standard_normal_matrix(1, 10),
        RngStream(2).standard_normal_matrix(1, 10),
    )


def test_child_is_independent_of_parent_consumption():
    fresh = RngStream(7).child(3).standard_normal_matrix(1, 8)
    parent = RngStream(7)
    parent.standard_normal_matrix(1, 1000)  # consume a lot first
    np.testing.assert_array_equal(parent.child(3).standard_normal_matrix(1, 8), fresh)


def test_children_differ_by_index_and_depth():
    root = RngStream(7)
    flat = root.child(0).standard_normal_matrix(1, 6)
    sibling = root.child(1).standard_normal_matrix(1, 6)
    nested = root.child(0).child(0).standard_normal_matrix(1, 6)
    assert not np.array_equal(flat, sibling)
    assert not np.array_equal(flat, nested)
    assert root.child(0).spawn_key == (0,)
    assert root.child(0).child(2).spawn_key == (0, 2)


def test_matrix_rows_equal_consecutive_vectors():
    m = RngStream(42).standard_normal_matrix(5, 7)
    s = RngStream(42)
    rows = [s.standard_normal_matrix(1, 7)[0] for _ in range(5)]
    np.testing.assert_array_equal(m, np.stack(rows))


def test_uniform_range_and_validation():
    s = RngStream(5)
    draws = s.uniform_vector(-4.0, 4.0, 1000)
    assert draws.min() >= -4.0 and draws.max() < 4.0
    with pytest.raises(InvalidRange):
        s.uniform_vector(2.0, -2.0, 3)
    with pytest.raises(InvalidDimension):
        s.standard_normal_matrix(0, 3)
    with pytest.raises(InvalidRange):
        s.child(-1)


@given(seed=st.integers(0, 10**9), n=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_random_rotation_is_orthonormal(seed, n):
    q = RngStream(seed).random_rotation(n)
    np.testing.assert_allclose(q.T @ q, np.eye(n), rtol=0, atol=1e-10)
    assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10


def test_rotation_deterministic_per_stream():
    np.testing.assert_array_equal(
        RngStream(33).random_rotation(6), RngStream(33).random_rotation(6)
    )
