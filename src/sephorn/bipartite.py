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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloch import _gen_rows, from_bloch, to_bloch, validate_state
from .errors import DimensionMismatch, NotFullRank
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


def partial_trace(rho: np.ndarray, dim_a: int, dim_b: int, keep: int) -> np.ndarray:
    """Reduced matrix of subsystem ``keep`` (0 = first, 1 = second)."""
    r4 = np.asarray(rho).reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == 0:
        return np.trace(r4, axis1=1, axis2=3)
    return np.trace(r4, axis1=0, axis2=2)


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
    a = to_bloch(partial_trace(rho, dim_a, dim_b, 0), tol=np.inf)
    b = to_bloch(partial_trace(rho, dim_a, dim_b, 1), tol=np.inf)
    # corr[u, v] = sum rho[im, jn] conj(g_u[i, j]) conj(h_v[m, n]) for Hermitian
    # generators: one matmul per side on rho regrouped to (ij, mn)
    grouped = (rho.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
               .reshape(dim_a * dim_a, dim_b * dim_b))
    corr = np.real(_gen_rows(dim_a).conj() @ grouped @ _gen_rows(dim_b).conj().T)
    d = BipartiteDecomposed(dim_a=dim_a, dim_b=dim_b, a=a, b=b, corr=corr)
    # seed the memoized matrix with the one the data came from
    d.__dict__["matrix"] = _read_only((rho.copy(),))[0]
    return d


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


def _inv_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X^{-1/2} from the eigenpairs (w, v) of a positive definite X."""
    return (v * (1.0 / np.sqrt(w))) @ v.conj().T


def _filter_side(r4: np.ndarray, filt: np.ndarray, side: int) -> np.ndarray:
    """(F x I) rho (F x I)^dag for side 0, (I x F) rho (I x F)^dag for side 1.

    Works on the (N, M, N, M) tensor of a Hermitian rho and uses
    F rho F^dag = F (F rho)^dag, so each side costs two small matrix
    products on reshapes of the tensor and no Kronecker product.
    """
    n, m = r4.shape[:2]
    rows = (n, -1) if side == 0 else (n, m, -1)
    half = (filt @ r4.reshape(rows)).reshape(n * m, n * m)
    return (filt @ half.conj().T.reshape(rows)).reshape(r4.shape)


def normal_form(d: BipartiteDecomposed, max_iter: int = 500,
                tol: float = 1e-10, rank_tol: float = 1e-9) -> NormalFormResult:
    """Filter a full-local-rank state toward maximally mixed marginals.

    Alternately conjugates by (N rho_A)^{-1/2} on side A and
    (M rho_B)^{-1/2} on side B, renormalizing the trace, until both marginal
    Bloch norms fall below ``tol`` or ``max_iter`` sweeps have run.  The
    iterate starts as ``d.matrix`` and is kept as the (N, M, N, M) tensor;
    the full-rank check and the first A-side filter use the stored marginal
    spectra, and each sweep takes three partial traces: rho_B after the
    A-side filter, then rho_A and rho_B of the new iterate, which serve both
    the convergence test and the next A-side filter.  The final tensor
    becomes the record of the filtered state, validated to 1e-6; a state
    already in normal form is returned as it is.  States whose normal form
    is reached only in the limit come back with ``converged=False`` and the
    last filtered iterate.
    """
    n, m = d.dim_a, d.dim_b
    (wa, va), (wb, _) = d.marginal_eigh
    if wa[0] <= rank_tol or wb[0] <= rank_tol:
        raise NotFullRank(
            f"marginal ranks below ({n},{m}); project to support first"
        )
    r4 = d.matrix.reshape(n, m, n, m)
    fa = np.eye(n, dtype=complex)
    fb = np.eye(m, dtype=complex)
    mixed_a = np.eye(n) / n
    mixed_b = np.eye(m) / m
    # |a| = sqrt(2) * ||rho_A - eye/N||_F: the Bloch norm at the start, then
    # the traceless part of each iterate's marginal, which stays accurate
    # near zero where the purity formula 2 Tr[rho_A^2] - 2/N loses all
    # significant digits
    na, nb = float(np.linalg.norm(d.a)), float(np.linalg.norm(d.b))
    w, v = n * wa, va
    iterations = 0
    while not (na < tol and nb < tol) and iterations < max_iter:
        if iterations:
            w, v = np.linalg.eigh(n * ra)
        filt = _inv_sqrt(w, v)
        r4 = _filter_side(r4, filt, 0)
        rb = partial_trace(r4, n, m, 1)
        total = np.real(np.trace(rb))
        r4 /= total
        rb /= total
        fa = filt @ fa
        filt = _inv_sqrt(*np.linalg.eigh(m * rb))
        r4 = _filter_side(r4, filt, 1)
        ra = partial_trace(r4, n, m, 0)
        rb = partial_trace(r4, n, m, 1)
        total = np.real(np.trace(ra))
        r4 /= total
        ra /= total
        rb /= total
        fb = filt @ fb
        iterations += 1
        na = np.sqrt(2.0) * float(np.linalg.norm(ra - mixed_a))
        nb = np.sqrt(2.0) * float(np.linalg.norm(rb - mixed_b))
    state = d if iterations == 0 else decompose_state(r4.reshape(n * m, n * m), n, m,
                                                      tol=1e-6)
    return NormalFormResult(state=state, filter_a=fa, filter_b=fb,
                            converged=na < tol and nb < tol, iterations=iterations)
