import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sephorn.bloch import from_bloch
from helpers import random_orthogonal, random_unitary
from sephorn.linalg import certify_psd


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


TOL = 1e-8
# lowest eigenvalues planted in the property test: a pure component
# (eigenvalues 1, 0, ..., 0), inside and outside the tolerance, and positive
PLANTED = (0.0, -0.5 * TOL, -2.0 * TOL, 0.1)


def hermitian_with_lowest(low: float, dim: int, rng) -> np.ndarray:
    """U diag(w) U^dag with lowest eigenvalue ``low``; ``low = 0`` gives a
    rank-one projector, and dim 1 gives [[1]] or [[low]]."""
    if low == 0.0:
        w = np.zeros(dim)
        w[-1] = 1.0
    else:
        w = rng.uniform(0.2, 1.0, dim)
        w[0] = low
    u = random_unitary(dim, rng)
    return (u * w) @ u.conj().T


class TestCertifyPsd:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 7),
           picks=st.lists(st.integers(0, len(PLANTED) - 1), min_size=1, max_size=6))
    def test_agrees_with_eigvalsh_threshold(self, seed, dim, picks):
        rng = np.random.default_rng(seed)
        planted = np.array([PLANTED[i] for i in picks])
        mats = np.array([hermitian_with_lowest(low, dim, rng) for low in planted])
        exact = np.linalg.eigvalsh(mats)[:, 0]
        low = certify_psd(mats, TOL)
        assert (low is None) == bool((planted >= -TOL).all())
        assert (low is None) == bool((exact >= -TOL).all())
        if low is not None:
            np.testing.assert_array_equal(low, exact)
        single = certify_psd(mats[0], TOL)
        assert (single is None) == bool(planted[0] >= -TOL)
        if single is not None:
            assert single == exact[0]

    def test_dim_one_side(self):
        # the trivial-factor path verifies a side of 1 x 1 components [[1]]
        assert certify_psd(from_bloch(np.zeros((2, 0))), TOL) is None
        np.testing.assert_array_equal(certify_psd(np.array([[[1.0]], [[-1.0]]]), TOL), [1.0, -1.0])

    def test_nan_entry_not_certified(self):
        mats = np.stack([np.eye(3, dtype=complex)] * 3)
        mats[1, 2, 0] = mats[1, 0, 2] = np.nan
        low = certify_psd(mats, TOL)
        assert low is not None
        np.testing.assert_array_equal(low[[0, 2]], [1.0, 1.0])
        assert np.isnan(low[1]) and not low[1] >= -TOL
        for entry in ((2, 0), (1, 1)):
            mat = np.eye(3)
            mat[entry] = mat[entry[::-1]] = np.nan
            assert np.isnan(certify_psd(mat, TOL))
