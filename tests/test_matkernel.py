import numpy as np
import pytest

from advspan.errors import DimensionMismatchError, NonHermitianError, NotPSDError
from advspan.matkernel import gram_factor, require_hermitian

from conftest import nullspace_projector, unitary_eigensystem


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_gram_factor_identity():
    vecs = gram_factor(np.eye(2))
    assert vecs.shape == (2, 2)
    assert np.abs(vecs @ vecs.T - np.eye(2)).max() <= 1e-10


def test_gram_factor_rank_one():
    vecs = gram_factor(np.ones((2, 2)))
    assert vecs.shape == (2, 1)
    assert np.allclose(vecs @ vecs.T, np.ones((2, 2)))


def test_gram_factor_random_psd():
    rng = np.random.default_rng(17)
    for dim in (3, 8, 16, 32):
        root = rng.standard_normal((dim, max(1, dim // 2)))
        x = root @ root.T
        vecs = gram_factor(x)
        assert np.abs(vecs @ vecs.T - x).max() <= 1e-8
    # a stack of blocks of ranks 1, 3 and 0 shares the widest rank
    roots = rng.standard_normal((3, 6, 3))
    roots[0, :, 1:] = 0.0
    roots[2] = 0.0
    stack = roots @ roots.transpose(0, 2, 1)
    vecs = gram_factor(stack)
    assert vecs.shape == (3, 6, 3)
    assert np.abs(vecs @ vecs.transpose(0, 2, 1) - stack).max() <= 1e-8
    assert not vecs[0, :, 1:].any() and not vecs[2].any()
    # the cut is relative to the whole stack's largest eigenvalue
    vecs = gram_factor(np.stack([1e4 * np.eye(2), 1e-5 * np.eye(2)]))
    assert vecs.shape == (2, 2, 2) and not vecs[1].any()


def test_gram_factor_rejects_indefinite():
    with pytest.raises(NotPSDError):
        gram_factor(np.diag([1.0, -0.5]))
    with pytest.raises(NotPSDError):
        gram_factor(np.stack([np.eye(2), np.diag([1.0, -0.5]), np.ones((2, 2))]))


def test_nullspace_projector_examples():
    assert np.array_equal(nullspace_projector(np.zeros((3, 3))), np.eye(3))
    assert np.abs(nullspace_projector(np.eye(2))).max() == 0.0
    p = nullspace_projector(np.diag([0.0, 1.0]))
    assert np.allclose(p, np.diag([1.0, 0.0]))


def test_nullspace_projector_idempotent_hermitian():
    rng = np.random.default_rng(19)
    for _ in range(10):
        basis = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        eigvals = np.concatenate([np.zeros(3), rng.uniform(0.5, 2.0, 5)])
        m = (basis * eigvals) @ basis.T
        p = nullspace_projector(m)
        assert np.abs(p @ p - p).max() <= 1e-9
        assert np.abs(p - p.conj().T).max() <= 1e-9
        assert np.trace(p) == pytest.approx(3.0, abs=1e-8)


def test_unitary_eigensystem_orthonormal_on_degenerate_spectra():
    rng = np.random.default_rng(23)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    u = q @ np.diag([1, 1, 1, -1, 1j, -1j]) @ q.conj().T
    phases, vectors = unitary_eigensystem(u)
    assert np.abs(vectors.conj().T @ vectors - np.eye(6)).max() <= 1e-9
    for k in range(6):
        assert np.linalg.norm(u @ vectors[:, k] - np.exp(1j * phases[k]) * vectors[:, k]) <= 1e-8
    with pytest.raises(DimensionMismatchError):
        unitary_eigensystem(np.ones((2, 2)))
