"""Reference answers computed without the library under test.

The partial transpose, the local ranks and the rebuild of a state from a
separable decomposition are plain numpy.  The one library call is
``sephorn.su.generator_basis``, which fixes the Bloch coordinates the
decomposition is written in.
"""

from __future__ import annotations

import numpy as np

from .corpus import ENTANGLED, SEPARABLE, UNKNOWN

NPT_BELOW = -1e-7      # min eigenvalue of rho^T_B that certifies entanglement
PPT_ABOVE = -1e-10     # min eigenvalue of rho^T_B accepted as PPT
RANK_TOL = 1e-9
RESIDUAL_TOL = 1e-7    # max-entry residual of the rebuilt state
PSD_TOL = 1e-7         # most negative eigenvalue allowed in a component
PROB_TOL = 1e-8


def partial_transpose(rho: np.ndarray, n: int, m: int) -> np.ndarray:
    return rho.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)


def local_ranks(rho: np.ndarray, n: int, m: int) -> tuple[int, int]:
    r4 = rho.reshape(n, m, n, m)
    ra = np.trace(r4, axis1=1, axis2=3)
    rb = np.trace(r4, axis1=0, axis2=2)
    return (int(np.sum(np.linalg.eigvalsh(ra) > RANK_TOL)),
            int(np.sum(np.linalg.eigvalsh(rb) > RANK_TOL)))


def reference_verdict(rho: np.ndarray, n: int, m: int) -> str:
    """NPT means entangled; PPT decides on 2x2 and 2x3 local supports."""
    low = float(np.linalg.eigvalsh(partial_transpose(rho, n, m))[0])
    if low < NPT_BELOW:
        return ENTANGLED
    ra, rb = local_ranks(rho, n, m)
    if low >= PPT_ABOVE and ra * rb <= 6:
        return SEPARABLE
    return UNKNOWN


class Rebuilder:
    """Rebuild rho = sum_i p_i rho_A(r_i) x rho_B(s_i) from Bloch vectors."""

    def __init__(self, generator_basis):
        self._basis = generator_basis
        self._gens: dict[int, np.ndarray] = {}

    def _stack(self, dim: int) -> np.ndarray:
        if dim not in self._gens:
            self._gens[dim] = np.asarray(self._basis(dim).matrices)
        return self._gens[dim]

    def local_states(self, vectors: np.ndarray, dim: int) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=float)
        out = np.broadcast_to(np.eye(dim, dtype=complex) / dim,
                              (len(vectors), dim, dim)).copy()
        return out + 0.5 * np.tensordot(vectors, self._stack(dim), axes=1)

    def check(self, dec, rho: np.ndarray, n: int, m: int) -> str:
        """Empty string when ``dec`` reproduces ``rho``, else the reason."""
        probs = np.asarray(dec.probs, dtype=float)
        if probs.size == 0:
            return "empty decomposition"
        if probs.min() < 0.0 or abs(probs.sum() - 1.0) > PROB_TOL:
            return f"probabilities min {probs.min():.2e}, sum {probs.sum():.12f}"
        rho_a = self.local_states(dec.r_vectors, n)
        rho_b = self.local_states(dec.s_vectors, m)
        low = min(float(np.linalg.eigvalsh(rho_a)[:, 0].min()),
                  float(np.linalg.eigvalsh(rho_b)[:, 0].min()))
        if low < -PSD_TOL:
            return f"component eigenvalue {low:.2e}"
        rebuilt = np.einsum("l,lij,lkm->ikjm", probs, rho_a, rho_b).reshape(n * m, n * m)
        residual = float(np.abs(rebuilt - rho).max())
        if residual > RESIDUAL_TOL:
            return f"rebuild residual {residual:.2e}"
        return ""


def check_verdict(verdict, rho, n, m, expect, rebuilder: Rebuilder) -> str:
    """Empty string when ``verdict`` is consistent with the reference."""
    status = verdict.status.value
    if expect == UNKNOWN:
        expect = reference_verdict(rho, n, m)
    if status == SEPARABLE:
        if expect == ENTANGLED:
            return "separable verdict on an entangled state"
        if verdict.decomposition is None:
            return "separable verdict without a decomposition"
        return rebuilder.check(verdict.decomposition, rho, n, m)
    if status == ENTANGLED:
        if expect == SEPARABLE:
            return "entangled verdict on a separable state"
        if not any(not c.passed for c in verdict.criteria):
            return "entangled verdict without a failed criterion"
    return ""


def check_battery(report, expect: str) -> str:
    feasible = bool(report.feasible)
    if feasible != (expect == "feasible"):
        return f"battery says feasible={feasible}, expected {expect}"
    return ""


def check_triples(sets, n: int) -> str:
    """Every triple obeys the trace identity; r = 1 is {(i, j, i + j - 1)}."""
    if len(sets) != n - 1:
        return f"{len(sets)} triple sets for n = {n}"
    for r, ts in enumerate(sets, start=1):
        for i, j, k in ts.triples:
            if len(i) != r or sum(i) + sum(j) != sum(k) + r * (r + 1) // 2:
                return f"triple {(i, j, k)} breaks the trace identity"
    base = {((i,), (j,), (i + j - 1,)) for i in range(1, n + 1)
            for j in range(1, n + 1) if i + j - 1 <= n}
    if set(sets[0].triples) != base:
        return "r = 1 triples differ from i + j = k + 1"
    return ""
