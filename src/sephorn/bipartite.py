"""Bipartite states in Bloch form: marginals, correlation matrix, partial
transposition, local-rank handling and normal-form filtering.

A state on dimensions (N, M) is held as marginal Bloch vectors ``a``, ``b``
plus the (N^2-1) x (M^2-1) correlation matrix of joint generator
expectations ``corr[mu, nu] = Tr[rho (g_mu x h_nu)]``.  The record also
carries the density matrix and computes each spectral quantity the
pipeline reads once, on first use: the eigendecomposition of each reduced
matrix, per side, and of the density matrix, the singular value
decomposition of the correlation matrix and the moment matrix
[[1, b^T], [a, corr]] that verification subtracts from.  Local rank is
answered first from the Bloch norm (:func:`~sephorn.bloch.ball_floor`): a
side whose floor exceeds the rank cutoff has full rank, which decides
every mixed qubit side exactly and every side inside the inscribed ball.
A reduced matrix is eigensolved only for a side the floor leaves open
and for :func:`support_isometries`: :func:`normal_form` inverts reduced
matrices and factorises nothing but the Cholesky factors of its filters.
Both :func:`decompose_state` and :func:`normal_form`, for the filtered
state, read the Bloch data off one product chain on the realigned matrix
R[(i, j), (a, b)] = rho[ia, jb] (:func:`_moments`), which is ``moments``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from .bloch import _gen_rows, ball_floor, from_bloch, validate_state
from .config import MAX_ITER, NORMAL_TOL, POSITIVITY_TOL, SCALING_RATE, STATE_TOL
from .errors import DimensionMismatch, NotAState, NotFullRank


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
    def moments(self) -> np.ndarray:
        """The (N^2, M^2) matrix [[1, b^T], [a, corr]]: entry [mu, nu] is
        Tr[rho (g_mu x h_nu)] with g_0 = I and h_0 = I, the trace taken as one."""
        out = np.ones((self.dim_a ** 2, self.dim_b ** 2))
        out[1:, 0], out[0, 1:], out[1:, 1:] = self.a, self.b, self.corr
        return _read_only((out,))[0]

    @cached_property
    def marginal_eigh_a(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenpairs ``(w, v)`` of the reduced matrix of A."""
        return _read_only(np.linalg.eigh(from_bloch(self.a, self.dim_a)))

    @cached_property
    def marginal_eigh_b(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenpairs ``(w, v)`` of the reduced matrix of B."""
        return _read_only(np.linalg.eigh(from_bloch(self.b, self.dim_b)))

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
    return r4.transpose(0, 3, 2, 1).reshape(dim_a * dim_b, dim_a * dim_b)


def decompose_state(rho: np.ndarray, dim_a: int, dim_b: int,
                    tol: float = STATE_TOL) -> BipartiteDecomposed:
    """Extract (a, b, corr) from a trace-one Hermitian matrix.

    The record keeps a read-only copy of the matrix as ``matrix``.
    Dimensions that are not integers >= 1 raise :class:`DimensionMismatch`.
    """
    if not all(isinstance(dim, Integral) and dim >= 1 for dim in (dim_a, dim_b)):
        raise DimensionMismatch(f"dimensions must be integers >= 1, got {dim_a!r} x {dim_b!r}")
    rho = validate_state(rho, tol)
    if rho.shape[0] != dim_a * dim_b:
        raise DimensionMismatch(
            f"matrix of size {rho.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    moments = _moments(_realigned(rho, dim_a, dim_b), dim_a, dim_b)
    moments[0, 0] = 1.0
    d = BipartiteDecomposed(dim_a=dim_a, dim_b=dim_b, a=moments[1:, 0],
                            b=moments[0, 1:], corr=moments[1:, 1:])
    # seed the memoized matrices with the ones the data came from
    d.__dict__["matrix"], d.__dict__["moments"] = _read_only((rho.copy(), moments))
    return d


@lru_cache(maxsize=None)
def _moment_rows(dim: int) -> np.ndarray:
    """Conjugate rows of [I; generators], a read-only (N^2, N^2) array: row
    mu dotted with a flattened Hermitian X gives Tr[X g_mu], with g_0 = I."""
    rows = np.vstack([np.eye(dim).reshape(1, -1), _gen_rows(dim)]).conj()
    rows.setflags(write=False)
    return rows


def _conjugation(f: np.ndarray) -> np.ndarray:
    """kron(F, F*), the (K^2, k^2) matrix of X -> F X F^dag on row-major
    flattened k x k matrices, for F of shape (K, k)."""
    big, small = f.shape
    return (np.multiply.outer(f, f.conj()).transpose(0, 2, 1, 3)
            .reshape(big * big, small * small))


def _moments(realigned: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """The real (N^2, M^2) matrix [[Tr rho, b^T], [a, corr]] of a Hermitian
    rho, whose entry [mu, nu] is Tr[rho (g_mu x h_nu)] with g_0 = I and
    h_0 = I, from the realigned matrix R[(i, j), (a, b)] = rho[ia, jb]."""
    return (_moment_rows(dim_a) @ realigned @ _moment_rows(dim_b).T).real


def compose_state(d: BipartiteDecomposed) -> np.ndarray:
    """Reconstruct the density matrix from Bloch data (inverse of decompose):
    rho = rho_A x rho_B + (1/4) sum_uv (corr - a b^T)[u, v] g_u x h_v."""
    n, m = d.dim_a, d.dim_b
    rho4 = np.multiply.outer(from_bloch(d.a, n), from_bloch(d.b, m))
    if d.corr.size:
        joint = _gen_rows(n).T @ (d.corr - np.outer(d.a, d.b)) @ _gen_rows(m)
        rho4 += 0.25 * joint.reshape(n, n, m, m)
    return rho4.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def local_ranks(d: BipartiteDecomposed, tol: float = POSITIVITY_TOL) -> tuple[int, int]:
    """Ranks of the two reduced matrices (eigenvalue threshold ``tol``).

    A side whose :func:`~sephorn.bloch.ball_floor` exceeds ``tol`` has full
    rank, with no eigensolve.  That decides every qubit side whose lowest
    eigenvalue exceeds ``tol``, since the floor is that eigenvalue at
    N = 2, and every side inside the inscribed ball.  Any other side counts
    the eigenvalues above ``tol`` of its memoized eigendecomposition, which
    :func:`support_isometries` then reuses.
    """
    rank_a = (d.dim_a if ball_floor(d.a, d.dim_a) > tol
              else int(np.sum(d.marginal_eigh_a[0] > tol)))
    rank_b = (d.dim_b if ball_floor(d.b, d.dim_b) > tol
              else int(np.sum(d.marginal_eigh_b[0] > tol)))
    return rank_a, rank_b


def support_isometries(d: BipartiteDecomposed, tol: float = POSITIVITY_TOL):
    """Isometries onto the supports of the reduced matrices.

    Returns ``(va, vb)`` with ``va`` of shape (dim_a, rank_a); columns are
    support eigenvectors ordered by descending eigenvalue.
    """
    (wa, va), (wb, vb) = d.marginal_eigh_a, d.marginal_eigh_b
    return va[:, wa > tol][:, ::-1], vb[:, wb > tol][:, ::-1]


def project_to_support(d: BipartiteDecomposed, tol: float = POSITIVITY_TOL) -> BipartiteDecomposed:
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


def normal_form(d: BipartiteDecomposed, max_iter: int = MAX_ITER, tol: float = NORMAL_TOL,
                rank_tol: float = POSITIVITY_TOL) -> NormalFormResult:
    """Filter a full-local-rank state toward maximally mixed marginals.

    Gurvits' operator scaling (quant-ph/0303055; Garg, Gurvits, Oliveira
    and Wigderson, arXiv:1511.03730): alternately rescale the filters F_A
    and F_B so that the reduced matrix of A, then of B, of the unit-trace
    iterate (F_A x F_B) rho (F_A x F_B)^dag is I/N (I/M), until both
    marginal Bloch norms fall below ``tol`` or ``max_iter`` sweeps have run.
    The sweeps run on the Gram matrices G = F^dag F, in runs of
    :func:`_gram_scaling` on a realigned matrix R, the first on the
    realigned ``d.matrix``.  After a run the upper-triangular Cholesky
    factors U of its Gram matrices, G = U^dag U, multiply the filters, and
    the record is read off R conjugated once by kron(U, U*) on each side.
    That matrix over its trace is the next run's R: the next run restarts
    from G = I on the filtered state and inverts its reduced matrices,
    closer to I/N and I/M than those the last run started from.  The loop
    ends when the record is within ``tol``, the budget is spent, a
    factorisation fails or a run does not lower the record's larger
    marginal norm, and returns the lowest record; a state that converges
    faster than ``SCALING_RATE`` per sweep takes one run.  No marginal is
    eigensolved: full local rank at ``rank_tol`` is checked by
    :func:`local_ranks`, which reads a side inside the inscribed ball off
    its Bloch norm.  ``converged`` is read from the filtered record, and
    ``iterations`` counts the sweeps begun.  A state already in normal
    form is returned as is.
    """
    n, m = d.dim_a, d.dim_b
    if local_ranks(d, rank_tol) != (n, m):
        raise NotFullRank(
            f"marginal ranks below ({n},{m}); project to support first"
        )
    state, fa, fb = d, np.eye(n, dtype=complex), np.eye(m, dtype=complex)
    low = _marginal_norm(d)
    r = _realigned(d.matrix, n, m)
    swept = 0
    # a run may reach non-finite values; what it returns is tested
    with np.errstate(all="ignore"):
        while low >= tol and swept < max_iter:
            pair, sweeps = _gram_scaling(r, n, m, max_iter - swept, tol)
            swept += sweeps
            if pair is None:
                break
            try:
                # G = L L^dag, so U = L^dag is upper-triangular with U^dag U = G
                ua, ub = (np.linalg.cholesky(g).conj().T for g in pair)
                filtered, r = _filtered(r, ua, ub, n, m)
            except (np.linalg.LinAlgError, NotAState):
                break
            norm = _marginal_norm(filtered)
            if not norm < low:
                break
            fa, fb = (ua, ub) if state is d else (ua @ fa, ub @ fb)
            state, low = filtered, norm
    return NormalFormResult(state=state, filter_a=fa, filter_b=fb,
                            converged=bool(low < tol), iterations=swept)


def _marginal_norm(d: BipartiteDecomposed) -> float:
    """The larger of the two marginal Bloch norms."""
    return float(max(np.linalg.norm(d.a), np.linalg.norm(d.b)))


def _realigned(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """The realigned matrix R[(i, j), (a, b)] = rho[ia, jb]."""
    return (rho.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
            .reshape(dim_a * dim_a, dim_b * dim_b))


def _gram_scaling(r: np.ndarray, n: int, m: int, budget: int,
                  tol: float) -> tuple[tuple[np.ndarray, np.ndarray] | None, int]:
    """One run of operator scaling on the Gram matrices G = F^dag F, from
    G = I on the realigned matrix ``r`` of an N x M state.

    The A-side half-step forms X_A = R vec(G_B^T), reshaped to N x N, and
    sets G_A = (N X_A)^{-1}; the B side likewise sets G_B = (M X_B)^{-1}
    with X_B = vec(G_A^T)^T R.  A sweep is one half-step per side followed
    by the test on |a| = sqrt(2) ||N rho_A - I||_F / N, whose square is
    read as Tr[(N G_A X_A - I)^2] with no matrix root.  The run stops when
    |a| < ``tol``, at the first sweep whose deviation is not below
    ``SCALING_RATE`` times the last one, at a singular or non-finite sweep,
    or after ``budget`` sweeps.  Returns the last finite pair
    (G_A, G_B), None if no sweep gave one, and the number of sweeps begun.
    """
    eye_a = np.eye(n)
    xa = (r @ np.eye(m).reshape(-1)).reshape(n, n)
    last, pair = np.inf, None
    for sweep in range(1, budget + 1):
        try:
            ga = np.linalg.inv(n * xa)
            gb = np.linalg.inv(m * (ga.T.reshape(-1) @ r).reshape(m, m))
        except np.linalg.LinAlgError:
            return pair, sweep
        xa = (r @ gb.T.reshape(-1)).reshape(n, n)
        # ||N rho_A - I||_F^2 of the iterate F_A X_A F_A^dag, by cyclicity
        y = ga @ xa
        y *= n
        y -= eye_a
        dev = float((y.T.ravel() @ y.ravel()).real)
        if not dev < np.inf:
            return pair, sweep
        pair = ga, gb
        # dev is squared: the deviation itself must shrink by SCALING_RATE
        if 2.0 * dev < (n * tol) ** 2 or not dev < SCALING_RATE ** 2 * last:
            return pair, sweep
        last = dev
    return pair, budget


def _filtered(r: np.ndarray, fa: np.ndarray, fb: np.ndarray, n: int,
              m: int) -> tuple[BipartiteDecomposed, np.ndarray]:
    """The record of the N x M state with realigned matrix ``r`` filtered by
    ``fa`` and ``fb``, read off ``r`` conjugated once by the filters, and
    that conjugated matrix over its trace, the filtered state's realigned
    matrix."""
    # kron(F, F*) R kron(G, G*)^T realigns (F x G) rho (F x G)^dag
    conj = _conjugation(fa) @ r @ _conjugation(fb).T
    moments = _moments(conj, n, m)
    trace = moments[0, 0]
    moments /= trace
    if not np.isfinite(moments).all():
        raise NotAState("filtered state has non-finite entries")
    state = BipartiteDecomposed(dim_a=n, dim_b=m, a=moments[1:, 0],
                                b=moments[0, 1:], corr=moments[1:, 1:])
    state.__dict__["moments"] = _read_only((moments,))[0]
    return state, conj / trace
