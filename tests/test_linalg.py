import numpy as np
import pytest

from sephorn.errors import DimensionMismatch, NotHermitian
from sephorn.linalg import (
    eigh_descending,
    random_orthogonal,
    random_unitary,
)


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


class TestEigh:
    def test_identity(self):
        w, v = eigh_descending(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_pauli_z(self):
        w, v = eigh_descending(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(w, [1.0, -1.0])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_reconstruction_seed_42(self):
        rng = np.random.default_rng(42)
        m = random_hermitian(4, rng)
        w, v = eigh_descending(m)
        np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-12)
        assert (np.diff(w) <= 1e-14).all()

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            m = random_hermitian(n, rng)
            w, v = eigh_descending(m)
            for k in range(n):
                np.testing.assert_allclose(m @ v[:, k], w[k] * v[:, k], atol=1e-11)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            eigh_descending(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            eigh_descending(np.zeros((2, 3)))

    def test_psd_input_stays_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            w, _ = eigh_descending(g @ g.conj().T)
            assert w[-1] >= -1e-10


class TestRandomFactors:
    def test_dim1_is_sign(self):
        q = random_orthogonal(1, 0)
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-14

    def test_deterministic(self):
        a = random_orthogonal(3, 7)
        b = random_orthogonal(3, 7)
        assert (a == b).all()

    def test_orthogonality(self):
        q = random_orthogonal(5, 1)
        assert np.abs(q @ q.T - np.eye(5)).max() < 1e-12

    def test_unitary(self):
        u = random_unitary(4, 9)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
        assert (random_unitary(4, 9) == u).all()
