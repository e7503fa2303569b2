import numpy as np
import pytest

from helpers import random_density
from sephorn.bipartite import compose_state, decompose_state, local_ranks, partial_transpose_matrix
from sephorn.decompose import pure_state_simplex, werner_decompose
from sephorn.errors import BadParameter, DimensionTooSmall, NotPSD, OutOfPositivityRange
from sephorn.states import bell, isotropic, p_zero, werner

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.mark.parametrize("make", [lambda: werner(1, 0.5), lambda: werner_decompose(1, 0.5),
                                  lambda: pure_state_simplex(0), lambda: isotropic(1, 0.5)],
                         ids=["werner", "werner_decompose", "pure_state_simplex", "isotropic"])
def test_dimension_below_two_is_too_small(make):
    with pytest.raises(DimensionTooSmall, match="dim >= 2"):
        make()


class TestWerner:
    def test_qubit_coefficient(self):
        d = werner(2, 1.0)
        np.testing.assert_allclose(d.corr, np.eye(3) / 3.0, atol=1e-15)

    def test_qutrit_coefficient(self):
        d = werner(3, 1.0)
        np.testing.assert_allclose(d.corr, np.eye(8) / 6.0, atol=1e-15)

    def test_maximally_mixed_point(self):
        d = werner(3, 1.0 / 3.0)
        assert np.abs(d.corr).max() < 1e-15

    def test_psd_range(self):
        werner(2, -1.0)  # singlet endpoint is physical
        werner(4, 1.0)
        with pytest.raises(NotPSD):
            werner(2, 1.02)
        with pytest.raises(NotPSD):
            werner(3, -1.02)

    def test_nan_parameter_is_not_psd(self):
        with pytest.raises(NotPSD, match="minimum eigenvalue nan"):
            werner(3, float("nan"))

    def test_swap_expectation(self):
        # the family parameter equals the swap-operator expectation value
        swap = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                swap[i * 3 + j, j * 3 + i] = 1.0
        for phi in (-0.5, 0.0, 0.4, 1.0):
            got = np.real(np.trace(compose_state(werner(3, phi)) @ swap))
            assert abs(got - phi) < 1e-12


class TestIsotropic:
    def test_duality_with_werner(self):
        # partial transposition maps the Werner family onto the isotropic one
        # (phi below 0 maps outside the physical isotropic range)
        for dim, phi in ((2, 1.0), (3, 0.5), (4, 0.1)):
            p = (dim * phi - 1.0) / (dim * dim - 1.0)
            rho_pt = partial_transpose_matrix(werner(dim, phi).matrix, dim, dim)
            flipped = decompose_state(rho_pt, dim, dim)
            np.testing.assert_allclose(flipped.corr, isotropic(dim, p).corr,
                                       atol=1e-14)

    def test_zero_parameter_is_mixed(self):
        assert np.abs(isotropic(3, 0.0).corr).max() < 1e-15

    def test_qubit_maximal_is_bell_projector(self):
        rho = compose_state(isotropic(2, 1.0))
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
        np.testing.assert_allclose(rho, want, atol=1e-14)

    def test_psd_range(self):
        isotropic(3, -1.0 / 8.0)
        isotropic(3, 1.0)
        with pytest.raises(NotPSD):
            isotropic(3, -1.0 / 8.0 - 0.01)
        with pytest.raises(NotPSD):
            isotropic(3, 1.01)


class TestBell:
    def test_matrix(self):
        eye = np.eye(2, dtype=complex)
        want = (np.kron(eye, eye) + np.kron(SX, SX)
                - np.kron(SY, SY) + np.kron(SZ, SZ)) / 4.0
        np.testing.assert_allclose(compose_state(bell()), want, atol=1e-15)

    def test_purity_and_marginals(self):
        rho = compose_state(bell())
        assert abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-14
        assert np.abs(bell().a).max() < 1e-15
        assert np.abs(bell().b).max() < 1e-15


class TestPZero:
    def test_p0_is_ground_product(self):
        rho = compose_state(p_zero(0.0))
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        np.testing.assert_allclose(rho, want, atol=1e-15)

    def test_p1_is_pure(self):
        for sign in (+1, -1):
            rho = compose_state(p_zero(1.0, sign))
            assert abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-14
            psi = np.zeros(4)
            psi[1], psi[2] = 1.0 / np.sqrt(2), sign / np.sqrt(2)
            assert abs(np.real(psi @ rho @ psi) - 1.0) < 1e-14

    def test_half_has_full_local_ranks(self):
        assert local_ranks(p_zero(0.5)) == (2, 2)

    def test_range_check(self):
        with pytest.raises(OutOfPositivityRange):
            p_zero(1.5)
        with pytest.raises(BadParameter):
            p_zero(0.5, sign=2)


class TestRandomDensity:
    def test_pure_at_rank_one(self):
        rho = random_density(4, 1, seed=0)
        assert abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-13

    def test_full_rank_positive(self):
        rho = random_density(4, 4, seed=5)
        assert np.linalg.eigvalsh(rho)[0] > 0

    def test_trace_and_determinism(self):
        for seed in (1, 2, 3):
            rho = random_density(5, 3, seed)
            assert abs(np.trace(rho) - 1.0) < 1e-13
            assert (rho == random_density(5, 3, seed)).all()
            assert np.linalg.matrix_rank(rho, tol=1e-12) == 3

    def test_rank_validation(self):
        with pytest.raises(OutOfPositivityRange):
            random_density(3, 4, seed=0)
