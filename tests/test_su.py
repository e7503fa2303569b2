import numpy as np
import pytest

from sephorn.errors import DimensionTooSmall
from sephorn.linalg import random_unitary
from sephorn.su import generator_basis, symmetric_structure_tensor

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_su2_is_pauli():
    basis = generator_basis(2)
    np.testing.assert_array_equal(basis.matrices[0], SX)
    np.testing.assert_array_equal(basis.matrices[1], SY)
    np.testing.assert_array_equal(basis.matrices[2], SZ)
    assert basis.kinds == ("symmetric", "antisymmetric", "diagonal")


def test_su3_counts():
    basis = generator_basis(3)
    assert len(basis) == 8
    assert basis.kinds.count("symmetric") == 3
    assert basis.kinds.count("antisymmetric") == 3
    assert basis.kinds.count("diagonal") == 2


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_orthonormality_and_tracelessness(dim):
    mats = generator_basis(dim).matrices
    count = dim * dim - 1
    assert mats.shape == (count, dim, dim)
    for mu in range(count):
        assert abs(np.trace(mats[mu])) < 1e-14
        assert np.abs(mats[mu] - mats[mu].conj().T).max() < 1e-14
        for nu in range(mu, count):
            overlap = np.trace(mats[mu] @ mats[nu])
            want = 2.0 if mu == nu else 0.0
            assert abs(overlap - want) < 1e-13


def test_rejects_dim_below_two():
    with pytest.raises(DimensionTooSmall):
        generator_basis(1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_antisymmetric_indices_by_transpose(dim):
    basis = generator_basis(dim)
    idx = basis.antisymmetric_indices
    assert len(idx) == dim * (dim - 1) // 2
    for mu in range(len(basis)):
        anti = np.abs(basis.matrices[mu].T + basis.matrices[mu]).max() < 1e-14
        assert (mu in idx) == anti


def test_su2_antisymmetric_is_sigma_y():
    assert generator_basis(2).antisymmetric_indices == (1,)


class TestStructureTensor:
    def test_su2_vanishes(self):
        tensor = symmetric_structure_tensor(generator_basis(2))
        assert tensor.entries == {}

    def test_su3_symmetric_diagonal_entry(self):
        # standard value for the (first symmetric, first symmetric, last
        # diagonal) entry of SU(3)
        tensor = symmetric_structure_tensor(generator_basis(3))
        assert abs(tensor.value(0, 0, 7) - 1.0 / np.sqrt(3.0)) < 1e-12

    def test_matches_anticommutator_trace(self):
        basis = generator_basis(3)
        tensor = symmetric_structure_tensor(basis)
        rng = np.random.default_rng(2)
        mats = basis.matrices
        for _ in range(25):
            a, b, c = rng.integers(0, 8, size=3)
            direct = np.trace((mats[a] @ mats[b] + mats[b] @ mats[a]) @ mats[c]) / 4.0
            assert abs(tensor.value(int(a), int(b), int(c)) - direct.real) < 1e-12

    def test_permutation_symmetry(self):
        tensor = symmetric_structure_tensor(generator_basis(3))
        for (a, b, c), v in tensor.entries.items():
            assert tensor.value(c, a, b) == v
            assert tensor.value(b, c, a) == v
            assert tensor.value(b, a, c) == v

    def test_pure_state_cubic_invariant(self):
        # qutrit pure states satisfy |r|^2 = 4/3 and d(r, r, r) = 8/9, which
        # pins the normalization convention independently of the traces
        basis = generator_basis(3)
        tensor = symmetric_structure_tensor(basis)
        rng = np.random.default_rng(11)
        for trial in range(10):
            u = random_unitary(3, rng)
            rho = np.outer(u[:, 0], u[:, 0].conj())
            r = np.real(np.einsum("ij,mji->m", rho, basis.matrices))
            assert abs(r @ r - 4.0 / 3.0) < 1e-12
            assert abs(tensor.contract(r) - 8.0 / 9.0) < 1e-10
