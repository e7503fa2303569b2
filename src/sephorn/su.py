"""Generalized Gell-Mann generators of SU(N).

Canonical ordering, fixed so that file formats and rotation constructions
are reproducible: all symmetric off-diagonal pairs (j < k) first, then all
antisymmetric pairs (j < k), then the N-1 diagonal generators.  For N = 2
this yields the Pauli matrices (sigma_x, sigma_y, sigma_z).  Normalization
is Tr[g_mu g_nu] = 2 delta_mu_nu throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionTooSmall

KIND_SYMMETRIC = "symmetric"
KIND_ANTISYMMETRIC = "antisymmetric"
KIND_DIAGONAL = "diagonal"


@dataclass(frozen=True)
class GeneratorBasis:
    dim: int
    matrices: np.ndarray          # (dim^2 - 1, dim, dim) complex
    kinds: tuple[str, ...]

    def __len__(self) -> int:
        return self.matrices.shape[0]

    @property
    def antisymmetric_indices(self) -> tuple[int, ...]:
        """Indices of generators with g^T = -g (one per off-diagonal pair)."""
        return tuple(i for i, k in enumerate(self.kinds) if k == KIND_ANTISYMMETRIC)


@lru_cache(maxsize=None)
def generator_basis(dim: int) -> GeneratorBasis:
    """The dim^2 - 1 generators of SU(dim) in canonical ordering."""
    if dim < 2:
        raise DimensionTooSmall(f"generator basis needs dim >= 2, got {dim}")
    mats, kinds = [], []
    for kind, upper, lower in ((KIND_SYMMETRIC, 1.0, 1.0), (KIND_ANTISYMMETRIC, -1.0j, 1.0j)):
        for j in range(dim):
            for k in range(j + 1, dim):
                m = np.zeros((dim, dim), dtype=complex)
                m[j, k], m[k, j] = upper, lower
                mats.append(m)
                kinds.append(kind)
    for level in range(1, dim):
        m = np.diag(np.r_[np.ones(level), -level, np.zeros(dim - level - 1)]).astype(complex)
        mats.append(m * np.sqrt(2.0 / (level * (level + 1))))
        kinds.append(KIND_DIAGONAL)
    stack = np.ascontiguousarray(np.array(mats))
    stack.setflags(write=False)
    return GeneratorBasis(dim=dim, matrices=stack, kinds=tuple(kinds))
