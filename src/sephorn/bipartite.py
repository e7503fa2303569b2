"""Bipartite states in Bloch form: marginals, correlation matrix, partial
transposition, local-rank handling and normal-form filtering.

A state on dimensions (N, M) is held as marginal Bloch vectors ``a``, ``b``
plus the (N^2-1) x (M^2-1) correlation matrix of joint generator
expectations ``corr[mu, nu] = Tr[rho (g_mu x h_nu)]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import _gen_rows, from_bloch, to_bloch, validate_state
from .errors import DimensionMismatch, NotFullRank
from .su import generator_basis


@dataclass(frozen=True)
class BipartiteDecomposed:
    dim_a: int
    dim_b: int
    a: np.ndarray      # (dim_a^2 - 1,)
    b: np.ndarray      # (dim_b^2 - 1,)
    corr: np.ndarray   # (dim_a^2 - 1, dim_b^2 - 1)


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
    """Extract (a, b, corr) from a trace-one Hermitian matrix."""
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
    return BipartiteDecomposed(dim_a=dim_a, dim_b=dim_b, a=a, b=b, corr=corr)


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
    ra = from_bloch(d.a, d.dim_a)
    rb = from_bloch(d.b, d.dim_b)
    na = int(np.sum(np.linalg.eigvalsh(ra) > tol))
    nb = int(np.sum(np.linalg.eigvalsh(rb) > tol))
    return na, nb


def support_isometries(d: BipartiteDecomposed, tol: float = 1e-9):
    """Isometries onto the supports of the reduced matrices.

    Returns ``(va, vb)`` with ``va`` of shape (dim_a, rank_a); columns are
    support eigenvectors ordered by descending eigenvalue.
    """
    out = []
    for vec, dim in ((d.a, d.dim_a), (d.b, d.dim_b)):
        red = from_bloch(vec, dim)
        w, v = np.linalg.eigh(red)
        keep = w > tol
        order = np.argsort(w[keep])[::-1]
        out.append(v[:, keep][:, order])
    return out[0], out[1]


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
    rho = iso.conj().T @ compose_state(d) @ iso
    rho /= np.real(np.trace(rho))
    return decompose_state(rho, na, nb)


def _inv_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
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
    iterate is kept as the (N, M, N, M) tensor and each sweep takes three
    partial traces: rho_A and rho_B of the iterate, which serve both the
    convergence test and the A-side filter, and rho_B after that filter.
    States whose normal form is reached only in the limit come back with
    ``converged=False`` and the last filtered iterate.
    """
    n, m = d.dim_a, d.dim_b
    r4 = compose_state(d).reshape(n, m, n, m)
    ra = partial_trace(r4, n, m, 0)
    rb = partial_trace(r4, n, m, 1)
    if np.linalg.eigvalsh(ra)[0] <= rank_tol or np.linalg.eigvalsh(rb)[0] <= rank_tol:
        raise NotFullRank(
            f"marginal ranks below ({n},{m}); project to support first"
        )
    fa = np.eye(n, dtype=complex)
    fb = np.eye(m, dtype=complex)
    mixed_a = np.eye(n) / n
    mixed_b = np.eye(m) / m
    iterations = 0
    converged = False
    for it in range(max_iter + 1):
        # |a| = sqrt(2) * ||rho_A - eye/N||_F; computed from the traceless
        # part directly, which stays accurate near zero where the purity
        # formula 2 Tr[rho_A^2] - 2/N loses all significant digits
        na = np.sqrt(2.0) * float(np.linalg.norm(ra - mixed_a))
        nb = np.sqrt(2.0) * float(np.linalg.norm(rb - mixed_b))
        if na < tol and nb < tol:
            converged = True
            iterations = it
            break
        if it == max_iter:
            iterations = max_iter
            break
        filt = _inv_sqrt_psd(n * ra)
        r4 = _filter_side(r4, filt, 0)
        rb = partial_trace(r4, n, m, 1)
        total = np.real(np.trace(rb))
        r4 /= total
        rb /= total
        fa = filt @ fa
        filt = _inv_sqrt_psd(m * rb)
        r4 = _filter_side(r4, filt, 1)
        ra = partial_trace(r4, n, m, 0)
        rb = partial_trace(r4, n, m, 1)
        total = np.real(np.trace(ra))
        r4 /= total
        ra /= total
        rb /= total
        fb = filt @ fb
    state = decompose_state(r4.reshape(n * m, n * m), n, m, tol=1e-6)
    return NormalFormResult(state=state, filter_a=fa, filter_b=fb,
                            converged=converged, iterations=iterations)
