"""Dense linear-algebra kernels shared by the whole package.

All spectral factorizations order values descending, orthogonal factors are
real, and the deterministic random samplers take either an integer seed or a
caller-owned :class:`numpy.random.Generator`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian


def eigh_descending(m: np.ndarray, herm_tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as columns
    matching the eigenvalue order.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > herm_tol:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {herm_tol:.1e}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NoConvergence(str(exc)) from exc
    return w[::-1].copy(), v[:, ::-1].copy()


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_orthogonal(dim: int, seed) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR with sign-fixed R diagonal)."""
    rng = _as_generator(seed)
    g = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary matrix (complex Ginibre + QR)."""
    rng = _as_generator(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    phase = d / np.abs(d)
    return q * phase
