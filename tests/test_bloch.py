import numpy as np
import pytest

from helpers import is_physical, random_density, random_orthogonal, random_unitary
from sephorn.bloch import (
    _moment_columns,
    _moment_rows,
    ball_floor,
    from_bloch,
    to_bloch,
    validate_state,
)
from sephorn.config import STATE_TOL
from sephorn.errors import DimensionMismatch, NotAState


def random_pure_bloch(dim, rng):
    u = random_unitary(dim, rng)
    return to_bloch(np.outer(u[:, 0], u[:, 0].conj()))


def test_maximally_mixed_is_zero():
    for dim in (2, 3, 4):
        np.testing.assert_allclose(to_bloch(np.eye(dim) / dim), np.zeros(dim * dim - 1),
                                   atol=1e-15)


def test_qubit_ground_state():
    r = to_bloch(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(r, [0.0, 0.0, 1.0], atol=1e-15)
    assert abs(np.linalg.norm(r) - 1.0) < 1e-15


def test_random_qutrit_norm_bound():
    rho = random_density(3, 3, seed=3)
    r = to_bloch(rho)
    assert np.linalg.norm(r) <= np.sqrt(4.0 / 3.0) + 1e-12


def test_round_trip():
    rng = np.random.default_rng(0)
    for dim in range(1, 8):
        np.testing.assert_allclose(_moment_columns(dim) @ _moment_rows(dim), np.eye(dim * dim),
                                   rtol=0, atol=1e-15)
        for _ in range(20):
            rho = random_density(dim, dim, rng)
            r = to_bloch(rho)
            np.testing.assert_allclose(from_bloch(r), rho, atol=1e-12)
            np.testing.assert_allclose(to_bloch(from_bloch(r)), r, atol=1e-12)


def test_to_bloch_rejects_non_states():
    with pytest.raises(NotAState):
        to_bloch(np.eye(2))  # trace 2
    with pytest.raises(NotAState):
        to_bloch(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def test_to_bloch_validates_at_state_tol():
    rho = np.diag([0.5, 0.5]).astype(complex)
    to_bloch(rho + 0.5 * STATE_TOL * np.diag([1.0, 0.0]))
    with pytest.raises(NotAState, match="trace deviates"):
        to_bloch(rho + 2.0 * STATE_TOL * np.diag([1.0, 0.0]))


def test_stacks_match_single_matrices():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 5):
        rhos = np.array([random_density(dim, dim, rng) for _ in range(6)])
        vecs = to_bloch(rhos)
        assert vecs.shape == (6, dim * dim - 1)
        for rho, r in zip(rhos, vecs):
            np.testing.assert_allclose(r, to_bloch(rho), rtol=0, atol=1e-15)
        np.testing.assert_allclose(from_bloch(vecs), rhos, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spoil, message", [
    (lambda m: m.__setitem__((0, 0), np.nan), "matrix 2: matrix has non-finite"),
    (lambda m: m.__setitem__((0, 1), 0.1), "matrix 2: Hermiticity deviation"),
    (lambda m: m.__setitem__((0, 0), 0.9), "matrix 2: trace deviates"),
], ids=["non-finite", "non-hermitian", "trace"])
def test_stack_checks_every_matrix(spoil, message):
    rhos = np.array([np.eye(3, dtype=complex) / 3.0] * 4)
    spoil(rhos[2])
    spoil(rhos[3])
    with pytest.raises(NotAState, match=message):
        to_bloch(rhos)


def test_validate_state_takes_one_matrix():
    # states from outside stay single matrices; only to_bloch takes stacks
    with pytest.raises(NotAState, match="expected a square matrix"):
        validate_state(np.array([np.eye(2) / 2.0] * 2))


def test_validate_state_rejects_non_finite():
    rho = np.eye(6, dtype=complex) / 6.0
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(NotAState, match="non-finite"):
        validate_state(rho)


def test_from_bloch_returns_unphysical_matrices():
    rho = from_bloch(np.array([0.0, 0.0, 3.0]))
    w = np.linalg.eigvalsh(rho)
    assert w[0] < 0  # unphysical but still returned
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert not is_physical(np.array([0.0, 0.0, 3.0]))


def test_from_bloch_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        from_bloch(np.zeros(4))  # 4 != N^2 - 1
    with pytest.raises(DimensionMismatch):
        from_bloch(np.zeros(3), dim=3)


def test_qubit_norm_just_above_one_unphysical():
    v = np.array([1.01, 0.0, 0.0])
    assert not is_physical(v)
    assert is_physical(v / 1.01)


def test_inner_ball_rotations_stay_physical():
    # vectors inside the inscribed ball remain physical under any rotation
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        k = dim * dim - 1
        inner = np.sqrt(2.0 / (dim * (dim - 1)))
        for _ in range(1000):
            direction = rng.normal(size=k)
            direction *= inner * rng.uniform() / np.linalg.norm(direction)
            rot = random_orthogonal(k, rng)
            assert is_physical(rot @ direction)


def test_negated_pure_qutrit_vector_unphysical():
    rng = np.random.default_rng(4)
    for _ in range(10):
        r = random_pure_bloch(3, rng)
        assert is_physical(r)
        assert not is_physical(-r)


def purity(r):
    """Tr[rho^2] of the matrix of a Bloch vector, taken from the matrix."""
    rho = from_bloch(r)
    return float(np.real(np.trace(rho @ rho)))


class TestPurity:
    def test_pure_states_saturate(self):
        rng = np.random.default_rng(9)
        for dim in (2, 3, 4):
            r = random_pure_bloch(dim, rng)
            assert abs(purity(r) - 1.0) < 1e-12
            assert abs(r @ r - 2.0 * (dim - 1) / dim) < 1e-12

    def test_matches_trace_of_square(self):
        # Tr[rho^2] = 1/N + |r|^2 / 2 for the Tr[g g] = 2 normalization
        rng = np.random.default_rng(10)
        for dim in (2, 3, 4):
            rho = random_density(dim, dim, rng)
            r = to_bloch(rho)
            direct = float(np.real(np.trace(rho @ rho)))
            assert abs(1.0 / dim + 0.5 * float(r @ r) - direct) < 1e-12
            assert abs(purity(r) - direct) < 1e-12

    def test_norm_saturation_implies_pure(self):
        rng = np.random.default_rng(12)
        for dim in (2, 3):
            r = random_pure_bloch(dim, rng)
            # scale back to the pure radius after a tiny perturbation stays pure
            rho = from_bloch(r)
            w = np.linalg.eigvalsh(rho)
            assert abs(w[-1] - 1.0) < 1e-10 and abs(w[0]) < 1e-10


def test_pure_state_angle_bound():
    # pairwise cosine between pure-state Bloch vectors is at least -1/(N-1)
    rng = np.random.default_rng(13)
    for dim in (2, 3, 4):
        vecs = [random_pure_bloch(dim, rng) for _ in range(12)]
        bound = -1.0 / (dim - 1.0) - 1e-9
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                cos = vecs[i] @ vecs[j] / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j]))
                assert cos >= bound


class TestBallFloor:
    @pytest.mark.parametrize("dim", range(2, 8))
    def test_bounds_the_lowest_eigenvalue(self, dim):
        # states, pure states and vectors scaled past the state space
        rng = np.random.default_rng(dim)
        states = to_bloch(np.array([random_density(dim, rank, rng)
                                    for rank in (1, 2, dim) for _ in range(10)]))
        vecs = np.vstack([states, 1.5 * states, rng.normal(size=(20, dim * dim - 1))])
        floor = ball_floor(vecs, dim)
        low = np.linalg.eigvalsh(from_bloch(vecs, dim))[:, 0]
        assert floor.shape == (len(vecs),)
        assert (floor <= low + 1e-12).all()
        if dim == 2:
            np.testing.assert_allclose(floor, low, rtol=0, atol=1e-12)

    def test_single_vector_and_inscribed_ball(self):
        # the floor vanishes on the sphere |r|^2 = 2/(N(N-1)) and is 1/N at 0
        r = np.zeros(8)
        assert ball_floor(r, 3) == pytest.approx(1.0 / 3.0)
        r[0] = np.sqrt(2.0 / 6.0)
        assert abs(ball_floor(r, 3)) < 1e-15
        assert ball_floor(np.zeros(0), 1) == 1.0


def test_complex_matrix_is_not_converted(monkeypatch):
    # the complex ndarray that analyze takes from a caller is validated as
    # it is, with no conversion call
    rho = np.eye(4, dtype=complex) / 4.0

    def never(*args, **kwargs):
        raise AssertionError("converted")

    monkeypatch.setattr(np, "asarray", never)
    assert validate_state(rho) is rho
