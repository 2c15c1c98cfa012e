"""Symmetric eigensolver: residuals, orthonormality, ordering, sign fixing."""
import numpy as np
import pytest

from lstep.eigen import symmetric_eig


def test_two_node_exchange_matrix():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, v = symmetric_eig(m)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    # sign rule: largest-magnitude entry (first index on ties) is non-negative
    assert np.allclose(v[:, 0], [r, -r], atol=1e-12)
    assert np.allclose(v[:, 1], [r, r], atol=1e-12)


def test_diagonal_matrix():
    m = np.diag([3.0, -1.0, 2.0])
    w, v = symmetric_eig(m)
    assert np.allclose(w, [-1.0, 2.0, 3.0], atol=1e-14)
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-14)
    assert np.all(v[np.abs(v) > 0.5] > 0)


def test_identity_keeps_basis():
    w, v = symmetric_eig(np.eye(4))
    assert np.allclose(w, np.ones(4), atol=1e-14)
    assert np.allclose(v, np.eye(4), atol=1e-14)


def test_random_matrices_small_path():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        a = rng.normal(size=(n, n))
        m = (a + a.T) / 2.0
        w, v = symmetric_eig(m)
        scale = max(np.max(np.abs(m)), 1.0)
        assert np.max(np.abs(m @ v - v * w)) < 1e-9 * scale
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-9
        assert np.all(np.diff(w) >= -1e-12 * scale)
        for j in range(n):
            k = int(np.argmax(np.abs(v[:, j])))
            assert v[k, j] >= 0.0


def test_degenerate_spectrum_still_orthonormal():
    # projector has eigenvalues {0, 0, 1, 1}
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    m = q[:, :2] @ q[:, :2].T
    m = (m + m.T) / 2.0
    w, v = symmetric_eig(m)
    assert np.allclose(np.sort(w), [0.0, 0.0, 1.0, 1.0], atol=1e-10)
    assert np.max(np.abs(v.T @ v - np.eye(4))) < 1e-9


def test_rejects_asymmetric_input():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eig(m)


def test_rejects_non_square_and_empty():
    with pytest.raises(ValueError, match="square"):
        symmetric_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="empty"):
        symmetric_eig(np.zeros((0, 0)))


def test_rejects_oversized_input():
    with pytest.raises(ValueError, match="5000"):
        symmetric_eig(np.eye(5001))


def test_size_cap_is_adjustable():
    with pytest.raises(ValueError, match="exceeds"):
        symmetric_eig(np.eye(3), size_cap=2)
