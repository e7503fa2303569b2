"""Haar-random orthogonal and unitary matrices.

The samplers are deterministic: they take either an integer seed or a
caller-owned :class:`numpy.random.Generator`.
"""

from __future__ import annotations

import numpy as np


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
