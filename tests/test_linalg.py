import numpy as np

from sephorn.linalg import random_orthogonal, random_unitary


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
