import numpy as np
import pytest

from sephorn.errors import DimensionTooSmall
from sephorn.su import generator_basis

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
