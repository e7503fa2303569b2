"""Bloch-vector representation of density matrices.

A state on an N-dimensional Hilbert space is encoded by the real vector of
generator expectation values ``r_mu = Tr[rho g_mu]`` of length N^2 - 1, and
reconstructed via ``rho = eye/N + (1/2) sum_mu r_mu g_mu``.  Vectors are
plain numpy arrays; the local dimension is recovered from the length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAState
from .su import generator_basis


def dim_of_bloch(vec: np.ndarray) -> int:
    """Local dimension N from a Bloch-vector length N^2 - 1."""
    length = len(vec)
    n = round(np.sqrt(length + 1))
    if n * n - 1 != length:
        raise DimensionMismatch(f"length {length} is not of the form N^2 - 1")
    return n


def _gen_stack(dim: int) -> np.ndarray:
    # dimension-1 factors carry an empty generator stack
    if dim == 1:
        return np.zeros((0, 1, 1), dtype=complex)
    return generator_basis(dim).matrices


def validate_state(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Check finiteness, Hermiticity and unit trace, returning the matrix as complex."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotAState(f"expected a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise NotAState("matrix has non-finite entries")
    herm_dev = np.abs(rho - rho.conj().T).max() if rho.size else 0.0
    if herm_dev > tol:
        raise NotAState(f"Hermiticity deviation {herm_dev:.3e} exceeds {tol:.1e}")
    tr_dev = abs(np.trace(rho) - 1.0)
    if tr_dev > tol:
        raise NotAState(f"trace deviates from 1 by {tr_dev:.3e}")
    return rho


def to_bloch(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Expectation values Tr[rho g_mu] of a trace-one Hermitian matrix."""
    rho = validate_state(rho, tol)
    gens = _gen_stack(rho.shape[0])
    return np.real(np.einsum("ij,mji->m", rho, gens))


def from_bloch(r: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Hermitian trace-one matrix for a Bloch vector.

    Positivity is not guaranteed; vectors outside the physical body yield
    matrices with negative eigenvalues (see :func:`is_physical`).
    """
    r = np.asarray(r, dtype=float)
    n = dim_of_bloch(r) if dim is None else dim
    if n * n - 1 != len(r):
        raise DimensionMismatch(f"vector length {len(r)} does not match dim {n}")
    gens = _gen_stack(n)
    rho = np.eye(n, dtype=complex) / n
    if len(r):
        rho += 0.5 * np.tensordot(r, gens, axes=1)
    return rho


def is_physical(r: np.ndarray, tol: float = 1e-9) -> bool:
    """True when the reconstructed matrix is PSD within ``tol``."""
    rho = from_bloch(r)
    if rho.shape[0] == 1:
        return True
    return float(np.linalg.eigvalsh(rho)[0]) >= -tol


def transpose_flip(r: np.ndarray) -> np.ndarray:
    """Bloch image of matrix transposition.

    Negates exactly the antisymmetric-generator components, so
    ``from_bloch(transpose_flip(r)) == from_bloch(r).T``; physical input
    stays physical and the map is an involution.
    """
    r = np.asarray(r, dtype=float)
    n = dim_of_bloch(r)
    out = r.copy()
    if n > 1:
        idx = list(generator_basis(n).antisymmetric_indices)
        out[idx] = -out[idx]
    return out


@dataclass(frozen=True)
class BlochRadii:
    """Circumscribed and inscribed sphere radii of the physical Bloch body."""

    outer: float
    inner: float


def radii(dim: int) -> BlochRadii:
    """outer = sqrt(2(N-1)/N), inner = sqrt(2/(N(N-1))); equal only at N=2."""
    if dim < 2:
        raise DimensionMismatch(f"radii need dim >= 2, got {dim}")
    return BlochRadii(
        outer=float(np.sqrt(2.0 * (dim - 1) / dim)),
        inner=float(np.sqrt(2.0 / (dim * (dim - 1)))),
    )


def purity(r: np.ndarray) -> float:
    """Tr[rho^2] = 1/N + |r|^2 / 2."""
    n = dim_of_bloch(np.asarray(r))
    return 1.0 / n + 0.5 * float(np.dot(r, r))
