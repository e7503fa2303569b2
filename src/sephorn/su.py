"""Generalized Gell-Mann generators of SU(N) and their structure constants.

Canonical ordering, fixed so that file formats and rotation constructions
are reproducible: all symmetric off-diagonal pairs (j < k) first, then all
antisymmetric pairs (j < k), then the N-1 diagonal generators.  For N = 2
this yields the Pauli matrices (sigma_x, sigma_y, sigma_z).  Normalization
is Tr[g_mu g_nu] = 2 delta_mu_nu throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

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

    @property
    def symmetric_indices(self) -> tuple[int, ...]:
        """Indices with g^T = +g (symmetric off-diagonal and diagonal)."""
        return tuple(i for i, k in enumerate(self.kinds) if k != KIND_ANTISYMMETRIC)


@lru_cache(maxsize=None)
def generator_basis(dim: int) -> GeneratorBasis:
    """The dim^2 - 1 generators of SU(dim) in canonical ordering."""
    if dim < 2:
        raise DimensionTooSmall(f"generator basis needs dim >= 2, got {dim}")
    mats = []
    kinds = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
            kinds.append(KIND_SYMMETRIC)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
            kinds.append(KIND_ANTISYMMETRIC)
    for level in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        for i in range(level):
            m[i, i] = 1.0
        m[level, level] = -level
        mats.append(m * np.sqrt(2.0 / (level * (level + 1))))
        kinds.append(KIND_DIAGONAL)
    stack = np.ascontiguousarray(np.array(mats))
    stack.setflags(write=False)
    return GeneratorBasis(dim=dim, matrices=stack, kinds=tuple(kinds))


@dataclass(frozen=True)
class SymmetricStructureTensor:
    """Fully symmetric structure constants of the generator basis.

    Normalization: entry (mu, nu, rho) holds Tr[{g_mu, g_nu} g_rho] / 4, the
    convention under which the (1,1,8) entry for SU(3) equals 1/sqrt(3).  The
    sparse map stores every index permutation of each nonzero entry.
    """

    dim: int
    entries: dict[tuple[int, int, int], float] = field(repr=False)

    def value(self, mu: int, nu: int, rho: int) -> float:
        return self.entries.get((mu, nu, rho), 0.0)

    def dense(self) -> np.ndarray:
        k = self.dim * self.dim - 1
        out = np.zeros((k, k, k))
        for (a, b, c), v in self.entries.items():
            out[a, b, c] = v
        return out

    def contract(self, vec: np.ndarray) -> float:
        """Cubic form sum_{mu nu rho} d_{mu nu rho} v_mu v_nu v_rho."""
        dense = self.dense()
        return float(np.einsum("abc,a,b,c->", dense, vec, vec, vec))


@lru_cache(maxsize=None)
def _structure_tensor_cached(dim: int) -> SymmetricStructureTensor:
    basis = generator_basis(dim)
    mats = basis.matrices
    k = len(basis)
    entries: dict[tuple[int, int, int], float] = {}
    for a, b, c in combinations_with_replacement(range(k), 3):
        anti = mats[a] @ mats[b] + mats[b] @ mats[a]
        val = float(np.real(np.trace(anti @ mats[c]))) / 4.0
        if abs(val) < 1e-14:
            continue
        for perm in set(permutations((a, b, c))):
            entries[perm] = val
    return SymmetricStructureTensor(dim=dim, entries=entries)


def symmetric_structure_tensor(basis: GeneratorBasis) -> SymmetricStructureTensor:
    """Symmetric structure constants of ``basis`` (all zero for SU(2))."""
    return _structure_tensor_cached(basis.dim)
