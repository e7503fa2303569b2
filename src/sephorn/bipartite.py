"""Bipartite states in Bloch form: marginals, correlation matrix, partial
transposition, local-rank handling and normal-form filtering.

A state on dimensions (N, M) is held as marginal Bloch vectors ``a``, ``b``
plus the (N^2-1) x (M^2-1) correlation matrix of joint generator
expectations ``corr[mu, nu] = Tr[rho (g_mu x h_nu)]``.  The record also
carries the density matrix and computes each spectral quantity the
pipeline reads once, on first use: the eigendecomposition of each reduced
matrix (local ranks, support isometries, the full-rank check and first
filter of :func:`normal_form`), the eigendecomposition of the density
matrix and the singular value decomposition of the correlation matrix.
Both :func:`decompose_state` and :func:`normal_form`, for the filtered
state, read the Bloch data off one product chain on the realigned matrix
R[(i, j), (a, b)] = rho[ia, jb] (:func:`_moments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import sqrt

import numpy as np

from .bloch import _gen_rows, from_bloch, validate_state
from .errors import DimensionMismatch, NotAState, NotFullRank
from .su import generator_basis


def _read_only(arrays: tuple) -> tuple:
    """The tuple of arrays, each marked read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class BipartiteDecomposed:
    """A bipartite state: Bloch data plus spectral results computed once.

    The memoized attributes are read-only arrays, computed from the Bloch
    data and the density matrix on first use; treat ``a``, ``b`` and
    ``corr`` as immutable once a record exists.
    """

    dim_a: int
    dim_b: int
    a: np.ndarray      # (dim_a^2 - 1,)
    b: np.ndarray      # (dim_b^2 - 1,)
    corr: np.ndarray   # (dim_a^2 - 1, dim_b^2 - 1)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The density matrix: the one :func:`decompose_state` took the
        Bloch data from, or else composed from them."""
        return _read_only((compose_state(self),))[0]

    @cached_property
    def marginal_eigh(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Ascending eigenpairs ``((w_a, v_a), (w_b, v_b))`` of the two
        reduced matrices."""
        return tuple(_read_only(np.linalg.eigh(from_bloch(vec, dim)))
                     for vec, dim in ((self.a, self.dim_a), (self.b, self.dim_b)))

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenpairs ``(w, v)`` of the density matrix."""
        return _read_only(np.linalg.eigh(self.matrix))

    @cached_property
    def corr_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin singular value decomposition ``(u, tau, vh)`` of ``corr``,
        ``tau`` descending."""
        return _read_only(np.linalg.svd(np.asarray(self.corr, dtype=float),
                                        full_matrices=False))


@dataclass(frozen=True)
class NormalFormResult:
    state: BipartiteDecomposed
    filter_a: np.ndarray
    filter_b: np.ndarray
    converged: bool
    iterations: int


def partial_transpose_matrix(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Matrix-level (1 x T) partial transposition on the second factor."""
    r4 = np.asarray(rho).reshape(dim_a, dim_b, dim_a, dim_b)
    return np.transpose(r4, (0, 3, 2, 1)).reshape(dim_a * dim_b, dim_a * dim_b)


def decompose_state(rho: np.ndarray, dim_a: int, dim_b: int,
                    tol: float = 1e-9) -> BipartiteDecomposed:
    """Extract (a, b, corr) from a trace-one Hermitian matrix.

    The record keeps a read-only copy of the matrix as ``matrix``.
    """
    rho = validate_state(rho, tol)
    if rho.shape[0] != dim_a * dim_b:
        raise DimensionMismatch(
            f"matrix of size {rho.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    moments = _moments(rho.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
                       .reshape(dim_a * dim_a, dim_b * dim_b), dim_a, dim_b)
    d = BipartiteDecomposed(dim_a=dim_a, dim_b=dim_b, a=moments[1:, 0],
                            b=moments[0, 1:], corr=moments[1:, 1:])
    # seed the memoized matrix with the one the data came from
    d.__dict__["matrix"] = _read_only((rho.copy(),))[0]
    return d


@lru_cache(maxsize=None)
def _moment_rows(dim: int) -> np.ndarray:
    """Conjugate rows of [I; generators], a read-only (N^2, N^2) array: row
    mu dotted with a flattened Hermitian X gives Tr[X g_mu], with g_0 = I."""
    rows = np.vstack([np.eye(dim).reshape(1, -1), _gen_rows(dim)]).conj()
    rows.setflags(write=False)
    return rows


def _moments(realigned: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """The real (N^2, M^2) matrix [[Tr rho, b^T], [a, corr]] of a Hermitian
    rho, whose entry [mu, nu] is Tr[rho (g_mu x h_nu)] with g_0 = I and
    h_0 = I, from the realigned matrix R[(i, j), (a, b)] = rho[ia, jb]."""
    return np.real(_moment_rows(dim_a) @ realigned @ _moment_rows(dim_b).T)


def compose_state(d: BipartiteDecomposed) -> np.ndarray:
    """Reconstruct the density matrix from Bloch data (inverse of decompose):
    rho = rho_A x rho_B + (1/4) sum_uv (corr - a b^T)[u, v] g_u x h_v."""
    n, m = d.dim_a, d.dim_b
    rho4 = np.multiply.outer(from_bloch(d.a, n), from_bloch(d.b, m))
    if d.corr.size:
        joint = _gen_rows(n).T @ (d.corr - np.outer(d.a, d.b)) @ _gen_rows(m)
        rho4 += 0.25 * joint.reshape(n, n, m, m)
    return rho4.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def partial_transpose(d: BipartiteDecomposed) -> BipartiteDecomposed:
    """Bloch image of partial transposition on the second subsystem.

    Flips the sign of the correlation columns (and marginal components) at
    the antisymmetric-generator indices of side B; an involution.
    """
    b = d.b.copy()
    corr = d.corr.copy()
    if d.dim_b > 1:
        idx = list(generator_basis(d.dim_b).antisymmetric_indices)
        b[idx] = -b[idx]
        corr[:, idx] = -corr[:, idx]
    return BipartiteDecomposed(dim_a=d.dim_a, dim_b=d.dim_b, a=d.a.copy(), b=b, corr=corr)


def local_ranks(d: BipartiteDecomposed, tol: float = 1e-9) -> tuple[int, int]:
    """Ranks of the two reduced matrices (eigenvalue threshold ``tol``)."""
    (wa, _), (wb, _) = d.marginal_eigh
    return int(np.sum(wa > tol)), int(np.sum(wb > tol))


def support_isometries(d: BipartiteDecomposed, tol: float = 1e-9):
    """Isometries onto the supports of the reduced matrices.

    Returns ``(va, vb)`` with ``va`` of shape (dim_a, rank_a); columns are
    support eigenvectors ordered by descending eigenvalue.
    """
    (wa, va), (wb, vb) = d.marginal_eigh
    return va[:, wa > tol][:, ::-1], vb[:, wb > tol][:, ::-1]


def project_to_support(d: BipartiteDecomposed, tol: float = 1e-9) -> BipartiteDecomposed:
    """Conjugate by support isometries, yielding full local ranks.

    Full-local-rank input is returned unchanged.  States with a trivial
    (rank-one) factor come back as 1 x m or n x 1 states with empty Bloch
    data on the trivial side.
    """
    na, nb = local_ranks(d, tol)
    if na == d.dim_a and nb == d.dim_b:
        return d
    va, vb = support_isometries(d, tol)
    iso = np.kron(va, vb)
    rho = iso.conj().T @ d.matrix @ iso
    rho /= np.real(np.trace(rho))
    return decompose_state(rho, na, nb)


def normal_form(d: BipartiteDecomposed, max_iter: int = 500,
                tol: float = 1e-10, rank_tol: float = 1e-9) -> NormalFormResult:
    """Filter a full-local-rank state toward maximally mixed marginals.

    Gurvits' operator scaling (quant-ph/0303055): alternately multiplies
    F_A by (N rho_A)^{-1/2} and F_B by (M rho_B)^{-1/2}, the reduced matrices
    of the unit-trace iterate (F_A x F_B) rho (F_A x F_B)^dag, until both
    marginal Bloch norms fall below ``tol`` or ``max_iter`` sweeps have run.
    The iterate is never formed: with R the realigned ``d.matrix`` and
    G = F^dag F, its reduced matrices are F_A (R vec(G_B^T)) F_A^dag and
    F_B (vec(G_A^T)^T R) F_B^dag, one ``eigh`` each per sweep, with the
    eigenvalues scaled to sum to N (M) so that the trace stays one.  The
    first A-side filter uses the stored marginal spectrum; after a sweep
    rho_B is I/M, and the eigenvalues of N rho_A give |a| and the next
    A-side filter.  The filtered record is read off R conjugated once by
    the filters, and ``converged`` from the record: it is False after
    ``max_iter`` sweeps when the normal form is reached only in the limit,
    and when rounding in ill-conditioned filters leaves the record's norms
    just above ``tol``.  A state already in normal form is returned as is.
    """
    n, m = d.dim_a, d.dim_b
    (wa, va), (wb, _) = d.marginal_eigh
    if wa[0] <= rank_tol or wb[0] <= rank_tol:
        raise NotFullRank(
            f"marginal ranks below ({n},{m}); project to support first"
        )
    r = d.matrix.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    fa = np.eye(n, dtype=complex)
    fb = np.eye(m, dtype=complex)
    w, v = n * wa, va
    converged = float(np.linalg.norm(d.a)) < tol and float(np.linalg.norm(d.b)) < tol
    iterations = 0
    while not converged and iterations < max_iter:
        fa = (v / np.sqrt(w)) @ v.conj().T @ fa
        w, v = np.linalg.eigh(fb @ ((fa.T @ fa.conj()).reshape(-1) @ r).reshape(m, m)
                              @ fb.conj().T)
        w *= m / w.sum()
        fb = (v / np.sqrt(w)) @ v.conj().T @ fb
        w, v = np.linalg.eigh(fa @ (r @ (fb.T @ fb.conj()).reshape(-1)).reshape(n, n)
                              @ fa.conj().T)
        w *= n / w.sum()
        iterations += 1
        # |a| = sqrt(2) ||rho_A - I/N||_F = sqrt(2) ||w - 1|| / N, which stays
        # accurate near zero, where 2 Tr[rho_A^2] - 2/N loses every digit
        dev = w - 1.0
        converged = sqrt(2.0 * (dev @ dev)) < n * tol
    state = d
    if iterations:
        # kron(F, F*) R kron(G, G*)^T realigns (F x G) rho (F x G)^dag
        ka, kb = (np.multiply.outer(f, f.conj()).transpose(0, 2, 1, 3).reshape(k * k, k * k)
                  for f, k in ((fa, n), (fb, m)))
        moments = _moments(ka @ r @ kb.T, n, m)
        moments /= moments[0, 0]
        if not np.isfinite(moments).all():
            raise NotAState("filtered state has non-finite entries")
        state = BipartiteDecomposed(dim_a=n, dim_b=m, a=moments[1:, 0],
                                    b=moments[0, 1:], corr=moments[1:, 1:])
        converged = bool(np.linalg.norm(state.a) < tol and np.linalg.norm(state.b) < tol)
    return NormalFormResult(state=state, filter_a=fa, filter_b=fb,
                            converged=converged, iterations=iterations)
