"""Bipartite states in Bloch form: marginals, correlation matrix, partial
transposition, local-rank handling and normal-form filtering.

A state on dimensions (N, M) is held as marginal Bloch vectors ``a``, ``b``
plus the (N^2-1) x (M^2-1) correlation matrix of joint generator
expectations ``corr[mu, nu] = Tr[rho (g_mu x h_nu)]``.  The record also
carries the density matrix and computes each spectral quantity the
pipeline reads once, on first use: the eigendecomposition of each reduced
matrix, per side, and of the density matrix, the singular values of the
correlation matrix and, apart, its singular vectors, the moment matrix
[[1, b^T], [a, corr]] that verification subtracts from, and the realigned
matrix R[(i, j), (a, b)] = rho[ia, jb].  Local rank is answered first from
the Bloch norm (:func:`~sephorn.bloch.ball_floor`): a side whose floor
exceeds the rank cutoff has full rank, which decides every mixed qubit
side exactly and every side inside the inscribed ball.  A reduced matrix
is eigensolved only for a side the floor leaves open and for
:func:`support_isometries`: :func:`normal_form` inverts reduced matrices
and factorises nothing but the Cholesky factors of its filters.  Each of
its scaling runs (:func:`_gram_scaling`) reads R through two permuted,
rescaled copies, built once per run, so that a half-step is one product
with a view of a Gram matrix and one exact inverse.
The moments and R are one product apart, by the coordinate pair of
:mod:`~sephorn.bloch`.  A local map X -> F X F^dag on each side, a support
projection or a normal-form filter, is one conjugation of R (:func:`_filtered`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import hypot
from numbers import Integral

import numpy as np

from . import linalg
from .bloch import _ball_slope, _moment_columns, _moment_rows, from_bloch, validate_state
from .config import (MAX_ITER, NORMAL_TOL, POSITIVITY_TOL, SCALING_RATE, STATE_TOL,
                     check_max_iter, check_tol)
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
    ``corr`` as immutable once a record exists.  The correlation's singular
    values, ``corr_singular_values``, come from an SVD without vectors,
    which is what the Ky Fan questions read; ``corr_svd`` takes the vectors
    too, for a construction that uses them, and once taken it supplies
    the values.
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
    def realigned(self) -> np.ndarray:
        """The realigned matrix R[(i, j), (a, b)] = rho[ia, jb] that the
        Bloch data were read off, or else composed from ``moments``."""
        return _read_only((_moment_columns(self.dim_a) @ self.moments
                           @ _moment_columns(self.dim_b).T,))[0]

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
        return _read_only(linalg.eigh(from_bloch(self.a, self.dim_a)))

    @cached_property
    def marginal_eigh_b(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenpairs ``(w, v)`` of the reduced matrix of B."""
        return _read_only(linalg.eigh(from_bloch(self.b, self.dim_b)))

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenpairs ``(w, v)`` of the density matrix."""
        return _read_only(linalg.eigh(self.matrix))

    @cached_property
    def corr_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin singular value decomposition ``(u, tau, vh)`` of ``corr``,
        ``tau`` descending."""
        return _read_only(linalg.svd(np.asarray(self.corr, dtype=float)))

    @cached_property
    def corr_singular_values(self) -> np.ndarray:
        """The singular values ``tau`` of ``corr``, descending: those of
        ``corr_svd`` when it has been taken, else from one SVD without
        singular vectors, which the Ky Fan questions that read only tau share."""
        if "corr_svd" in self.__dict__:
            return self.corr_svd[1]
        return _read_only((linalg.svdvals(np.asarray(self.corr, dtype=float)),))[0]


@dataclass(frozen=True)
class NormalFormResult:
    state: BipartiteDecomposed
    filter_a: np.ndarray
    filter_b: np.ndarray
    converged: bool
    iterations: int


def partial_transpose_matrix(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Matrix-level (1 x T) partial transposition on the second factor."""
    size = dim_a * dim_b
    return np.asarray(rho).reshape(size, size).take(
        _rearranged((dim_a, dim_b, dim_a, dim_b), (0, 3, 2, 1)))


@lru_cache(maxsize=None)
def _rearranged(shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """Read-only flat indices that rearrange a matrix in one ``take``:
    ``x.take`` of them is ``x.reshape(shape)`` with its axes permuted by
    ``axes``, as a matrix of the first two axes by the last two."""
    index = np.arange(np.prod(shape)).reshape(shape).transpose(axes)
    out = index.reshape(index.shape[0] * index.shape[1], -1)
    out.setflags(write=False)
    return out


def decompose_state(rho: np.ndarray, dim_a: int, dim_b: int,
                    tol: float = STATE_TOL) -> BipartiteDecomposed:
    """Extract (a, b, corr) from a trace-one Hermitian matrix.

    The record keeps a read-only copy of the matrix, at 2 x 2 of its Hermitian
    part, as ``matrix``.  Dimensions that are not integers >= 1, bools included,
    raise :class:`DimensionMismatch`.  It is :func:`_validated` then
    :func:`_record`, the two steps :func:`~sephorn.criteria.analyze` takes on
    either side of its matrix questions.
    """
    return _record(_validated(rho, dim_a, dim_b, tol), dim_a, dim_b)


def _validated(rho: np.ndarray, dim_a: int, dim_b: int, tol: float) -> np.ndarray:
    """``rho`` as a complex matrix, checked by :func:`~sephorn.bloch.validate_state`
    at ``tol`` after its dimensions and before its size; at 2 x 2, where PPT is decided at
    rounding, its Hermitian part rho/2 + rho^dag/2, so that the eigensolves of rho and
    rho^Gamma see one matrix."""
    # int first: the Integral check alone goes through the ABC machinery
    if not all(isinstance(dim, (int, Integral)) and not isinstance(dim, bool) and dim >= 1
               for dim in (dim_a, dim_b)):
        raise DimensionMismatch(f"dimensions must be integers >= 1, got {dim_a!r} x {dim_b!r}")
    rho = validate_state(rho, tol)
    if rho.shape[0] != dim_a * dim_b:
        raise DimensionMismatch(
            f"matrix of size {rho.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    if (dim_a, dim_b) != (2, 2):
        return rho
    # halved before the sum, which then cannot overflow
    half = rho * 0.5
    return half + half.conj().T


def _record(rho: np.ndarray, dim_a: int, dim_b: int,
            spectrum: tuple[np.ndarray, np.ndarray] | None = None) -> BipartiteDecomposed:
    """The record of a validated matrix, seeded with a read-only copy of it,
    the moments and the realigned matrix they were read off, and, when
    given, its eigendecomposition ``spectrum``, made read-only."""
    # R[(i, j), (a, b)] = rho[ia, jb]
    realigned = rho.take(_rearranged((dim_a, dim_b, dim_a, dim_b), (0, 2, 1, 3)))
    moments = _moments(realigned, dim_a, dim_b)
    moments[0, 0] = 1.0
    d = BipartiteDecomposed(dim_a=dim_a, dim_b=dim_b, a=moments[1:, 0],
                            b=moments[0, 1:], corr=moments[1:, 1:])
    # seed the memoized matrices with the ones the data came from
    d.__dict__["matrix"], d.__dict__["moments"], d.__dict__["realigned"] = _read_only(
        (rho.copy(), moments, realigned))
    if spectrum is not None:
        d.__dict__["spectrum"] = _read_only(spectrum)
    return d


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
    """The density matrix of a record (inverse of :func:`decompose_state`)
    as a new array: ``d.realigned`` rearranged."""
    n, m = d.dim_a, d.dim_b
    return d.realigned.take(_rearranged((n, n, m, m), (0, 2, 1, 3)))


def local_ranks(d: BipartiteDecomposed, tol: float = POSITIVITY_TOL) -> tuple[int, int]:
    """Ranks of the two reduced matrices (eigenvalue threshold ``tol``).

    A side whose :func:`~sephorn.bloch.ball_floor`, read in Python floats,
    exceeds ``tol`` has full rank, with no eigensolve.  That decides every
    qubit side whose lowest eigenvalue exceeds ``tol``, since the floor is
    that eigenvalue at N = 2, and every side inside the inscribed ball.  The
    Python floor can differ from the numpy one in the last bit, which no
    decision reads.  Any other side counts
    the eigenvalues above ``tol`` of its memoized eigendecomposition, which
    :func:`support_isometries` then reuses.  A ``tol`` that is not finite
    and >= 0 raises :class:`BadParameter`, here and in every function of
    this module that takes one.
    """
    check_tol(tol)
    rank_a = (d.dim_a if _floor(d.a, d.dim_a) > tol
              else int(np.sum(d.marginal_eigh_a[0] > tol)))
    rank_b = (d.dim_b if _floor(d.b, d.dim_b) > tol
              else int(np.sum(d.marginal_eigh_b[0] > tol)))
    return rank_a, rank_b


def _floor(vec: np.ndarray, dim: int) -> float:
    """:func:`~sephorn.bloch.ball_floor` of one Bloch vector, in Python floats."""
    return 1.0 / dim - hypot(*vec.tolist()) * _ball_slope(dim)


def support_isometries(d: BipartiteDecomposed, tol: float = POSITIVITY_TOL):
    """Isometries onto the supports of the reduced matrices.

    Returns ``(va, vb)`` with ``va`` of shape (dim_a, rank_a); columns are
    support eigenvectors ordered by descending eigenvalue.
    """
    check_tol(tol)
    (wa, va), (wb, vb) = d.marginal_eigh_a, d.marginal_eigh_b
    return va[:, wa > tol][:, ::-1], vb[:, wb > tol][:, ::-1]


def normal_form(d: BipartiteDecomposed, max_iter: int = MAX_ITER, tol: float = NORMAL_TOL,
                rank_tol: float = POSITIVITY_TOL) -> NormalFormResult:
    """Filter a full-local-rank state toward maximally mixed marginals.

    Gurvits' operator scaling (quant-ph/0303055; Garg, Gurvits, Oliveira
    and Wigderson, arXiv:1511.03730): alternately rescale the filters F_A
    and F_B so that the reduced matrix of A, then of B, of the unit-trace
    iterate (F_A x F_B) rho (F_A x F_B)^dag is I/N (I/M), until both
    marginal Bloch norms fall below ``tol`` or ``max_iter`` sweeps have run.
    The sweeps run on the Gram matrices G = F^dag F, in runs of
    :func:`_gram_scaling` on the current record's ``realigned``.  After a
    run the upper-triangular Cholesky factors U of its Gram matrices,
    G = U^dag U, multiply the filters, and :func:`_filtered` by U gives the
    next record: the next run restarts from G = I on it, inverting reduced
    matrices closer to I/N and I/M than those the last run started from.
    The loop ends when the record is within ``tol``, the budget is spent,
    a factorisation fails or a run does not lower the record's larger
    marginal norm (:func:`_marginal_norm`), and returns the lowest record;
    a state that converges faster than ``SCALING_RATE`` per sweep takes
    one run.  No marginal is eigensolved: full local rank at ``rank_tol``
    is checked by :func:`local_ranks`, which reads a side inside the
    inscribed ball off its Bloch norm, and a marginal of lower rank raises
    :class:`NotFullRank` naming it and ``rank_tol``.  ``converged`` is read
    from the filtered record, and ``iterations`` counts the sweeps begun.
    A state already in normal form, or one that no run lowers, is returned
    as is, with identity filters.  ``tol`` and ``rank_tol`` are checked as
    in :func:`local_ranks`, and a ``max_iter`` that is not an integer >= 0
    raises :class:`BadParameter`.
    """
    check_tol(tol)
    check_tol(rank_tol, "rank_tol")
    check_max_iter(max_iter)
    n, m = d.dim_a, d.dim_b
    ranks = local_ranks(d, rank_tol)
    if ranks != (n, m):
        side = 0 if ranks[0] < n else 1
        raise NotFullRank(f"marginal {'AB'[side]} has rank {ranks[side]} < {(n, m)[side]} "
                          f"at rank_tol = {rank_tol:g}")
    state, fa, fb = d, None, None
    low = _marginal_norm(d)
    swept = 0
    # a run may reach non-finite values, and a failed factorisation is NaN;
    # what it returns is tested, and the kernels it calls set no error state
    with np.errstate(all="ignore"):
        while low >= tol and swept < max_iter:
            pair, sweeps = _gram_scaling(state.realigned, n, m, max_iter - swept, tol)
            swept += sweeps
            if pair is None:
                break
            # upper-triangular U with U^dag U = G, NaN if G is not positive
            # definite, which _filtered refuses
            ua, ub = (linalg.bare_cholesky_upper(g) for g in pair)
            try:
                filtered = _filtered(state, ua, ub)
            except NotAState:
                break
            norm = _marginal_norm(filtered)
            if not norm < low:
                break
            fa, fb = (ua, ub) if fa is None else (ua @ fa, ub @ fb)
            state, low = filtered, norm
    if fa is None:
        fa, fb = np.eye(n, dtype=complex), np.eye(m, dtype=complex)
    return NormalFormResult(state=state, filter_a=fa, filter_b=fb,
                            converged=bool(low < tol), iterations=swept)


def _marginal_norm(d: BipartiteDecomposed) -> float:
    """The larger of the two marginal Bloch norms, in Python floats."""
    return max(hypot(*d.a.tolist()), hypot(*d.b.tolist()))


def _gram_scaling(r: np.ndarray, n: int, m: int, budget: int,
                  tol: float) -> tuple[tuple[np.ndarray, np.ndarray] | None, int]:
    """One run of operator scaling on the Gram matrices G = F^dag F, from
    G = I on the realigned matrix ``r`` of an N x M state.

    The run first builds two permuted copies of R: ``ra``, N R with its
    columns (a, b) read as (b, a), and ``rb``, M R with its rows (i, j)
    read as (j, i).  The A-side half-step then forms N X_A = ra vec(G_B),
    with X_A = R vec(G_B^T) reshaped to N x N, and sets G_A = (N X_A)^{-1};
    the B side sets G_B = (M X_B)^{-1} with M X_B = vec(G_A)^T rb.  vec(G)
    is a view of G, so a half-step is one product and one exact inverse,
    and the first X_A, from G_B = I, is the strided diagonal sum of ``ra``.
    The products are ``np.dot``, which at these sizes costs less than the
    matmul ufunc.  A sweep is one half-step per side followed by the test
    on |a| = sqrt(2) ||N rho_A - I||_F / N, whose square is read as
    Tr[(N G_A X_A - I)^2] with no matrix root, I subtracted before the
    sum.  The run stops when |a| < ``tol``, at the first sweep whose
    deviation is not below ``SCALING_RATE`` times the last one, at a
    singular or non-finite sweep, or after ``budget`` sweeps.  Returns the
    last finite pair (G_A, G_B), None if no sweep gave one, and the number
    of sweeps begun.  It runs under its caller's ``np.errstate(all="ignore")``,
    as its inverses set none of their own.
    """
    # ra[(i, j), (a, b)] = N R[(i, j), (b, a)], rb[(i, j), (a, b)] = M R[(j, i), (a, b)]
    ra = r.take(_rearranged((n, n, m, m), (0, 1, 3, 2)))
    ra *= n
    rb = r.take(_rearranged((n, n, m * m, 1), (1, 0, 2, 3)))
    rb *= m
    eye_a = np.eye(n)
    # N X_A from G_B = I: the columns (a, a) of ra summed
    xa = ra[:, ::m + 1].sum(axis=1).reshape(n, n)
    last, pair = np.inf, None
    for sweep in range(1, budget + 1):
        # NaN where singular, which the test on dev ends the run on
        ga = linalg.bare_inv(xa)
        gb = linalg.bare_inv(np.dot(ga.reshape(-1), rb).reshape(m, m))
        xa = np.dot(ra, gb.reshape(-1)).reshape(n, n)
        # ||N rho_A - I||_F^2 of the iterate F_A X_A F_A^dag, by cyclicity
        y = np.dot(ga, xa)
        y -= eye_a
        dev = float(np.dot(y.T.ravel(), y.ravel()).real)
        if not dev < np.inf:
            return pair, sweep
        pair = ga, gb
        # dev is squared: the deviation itself must shrink by SCALING_RATE
        if 2.0 * dev < (n * tol) ** 2 or not dev < SCALING_RATE ** 2 * last:
            return pair, sweep
        last = dev
    return pair, budget


def _filtered(d: BipartiteDecomposed, fa: np.ndarray, fb: np.ndarray) -> BipartiteDecomposed:
    """The record of (F_A x F_B) rho (F_A x F_B)^dag over its trace, for F_A
    of shape (k, N) and F_B of shape (l, M): ``d.realigned`` conjugated once
    by kron(F, F*) on each side, over its trace, is the new ``realigned``."""
    # kron(F, F*) R kron(G, G*)^T realigns (F x G) rho (F x G)^dag
    conj = _conjugation(fa) @ d.realigned @ _conjugation(fb).T
    k, l = fa.shape[0], fb.shape[0]
    moments = _moments(conj, k, l)
    trace = moments[0, 0]
    moments /= trace
    if not np.isfinite(moments).all():
        raise NotAState("filtered state has non-finite entries")
    state = BipartiteDecomposed(dim_a=k, dim_b=l, a=moments[1:, 0],
                                b=moments[0, 1:], corr=moments[1:, 1:])
    state.__dict__["moments"], state.__dict__["realigned"] = _read_only((moments, conj / trace))
    return state
