"""Constructive separable decompositions.

Builds explicit convex decompositions ``rho = sum_i p_i rho_i^A x rho_i^B``
in Bloch form: the closed-form +- pair construction that succeeds whenever
the Ky Fan norm fits the inscribed-ball budget, the pure-state simplex built
from a Weyl-Heisenberg SIC, the closed-form decomposition of a separable
Werner state (which ``criteria.analyze`` rotates and pulls back to decompose
every Werner and isotropic state it recognises) and Wootters'
four-component product decomposition of two-qubit states, whose pure
local kets are read off the Gram matrices of each product vector with no
factorisation.  :func:`transport` carries a decomposition through one
local map per side in Bloch coordinates: one real matrix per side maps
the rows [1, r] of every component at once.
"""

from __future__ import annotations

import cmath
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import atan2, pi, sqrt

import numpy as np

from . import linalg
from .bipartite import BipartiteDecomposed, _conjugation, _read_only
from .bloch import _augmented, _gen_stack, _moment_columns, _moment_rows, to_bloch
from .config import KYFAN_RANK, KYFAN_SLACK, TAKAGI_ORTHO
from .errors import (BoundExceeded, DimensionMismatch, DimensionTooSmall, OutOfPositivityRange,
                     SearchFailed)


@dataclass(frozen=True)
class SeparableDecomposition:
    """Convex decomposition as arrays: probs (L,), r/s vectors row-wise."""

    probs: np.ndarray       # (L,)
    r_vectors: np.ndarray   # (L, dim_a^2 - 1)
    s_vectors: np.ndarray   # (L, dim_b^2 - 1)

    def __len__(self) -> int:
        return len(self.probs)

    def entries(self):
        """Iterate (p_i, r_i, s_i) components."""
        for i in range(len(self.probs)):
            yield self.probs[i], self.r_vectors[i], self.s_vectors[i]

    @property
    def moments(self) -> np.ndarray:
        """(p [1, r])^T [1, s]: sum p, then both marginals and the correlation
        laid out as ``BipartiteDecomposed.moments``."""
        return (_augmented(self.r_vectors).T * self.probs) @ _augmented(self.s_vectors)


# ---------------------------------------------------------------------------
# closed-form construction within the Ky Fan budget
# ---------------------------------------------------------------------------

def kyfan_room(dim_a: int, dim_b: int, a: np.ndarray, b: np.ndarray
               ) -> tuple[float, float, float, float]:
    """de Vicente's constructive Ky Fan bound about the marginals a, b, as
    (bound, slack, shrink_a, shrink_b).  bound = (R_N - |a|)(R_M - |b|),
    with R_N = sqrt(2/(N(N-1))) the radius of the inscribed ball, is
    2/sqrt(NM(N-1)(M-1)) without marginals and 0 when a marginal lies on or
    outside its ball; shrink_a = max(0, 1 - |a|/R_N) (resp. b) is the share
    of each radius left about its marginal, so bound is the unshifted bound
    times shrink_a shrink_b.  A Ky Fan norm fits when it exceeds bound by at
    most slack = ``KYFAN_SLACK`` shrink_a shrink_b: the slack shrinks with
    the bound, so the relative excess K - 1 that it admits is the same about
    every pair of marginals.  Both shrinks are exactly 1 without marginals.
    A side of dimension 1, which has no ball, raises DimensionTooSmall."""
    if min(dim_a, dim_b) < 2:
        raise DimensionTooSmall(f"the inscribed ball needs dims >= 2, got {dim_a} x {dim_b}")
    shrink_a = max(0.0, 1.0 - sqrt(a @ a) / sqrt(2.0 / (dim_a * (dim_a - 1.0))))
    shrink_b = max(0.0, 1.0 - sqrt(b @ b) / sqrt(2.0 / (dim_b * (dim_b - 1.0))))
    scale = shrink_a * shrink_b
    bound = 2.0 / sqrt(dim_a * dim_b * (dim_a - 1.0) * (dim_b - 1.0)) * scale
    return bound, KYFAN_SLACK * scale, shrink_a, shrink_b


def kyfan_floor(c: np.ndarray, fro: float) -> float:
    """Holder's lower bound L = ||C||_F^3 / ||C^T C||_F on the Ky Fan norm
    of C, given fro = ||C||_F; 0 for a zero C.

    With tau the singular values of C, ||C^T C||_F^2 = sum tau^4, and
    Holder's inequality on tau^2 = tau^(2/3) tau^(4/3), with exponents 3/2
    and 3, gives (sum tau^2)^(3/2) <= sum tau (sum tau^4)^(1/2).  So, with
    k = min(C.shape), ||C||_F <= L <= ||C||_KF <= sqrt(k) ||C||_F, and
    L = ||C||_KF exactly when the nonzero singular values are equal.  The
    Gram matrix is the smaller of C^T C and C C^T, one product and no
    factorisation.  In floating point each sum of n products errs by at
    most n eps relatively (a Gram entry by m eps times the product of its
    two column norms, for columns of length m), so L errs by at most about
    (3n + 3) eps relatively for C of n entries: below ``HOLDER_ROUNDING``
    for every C of up to a million entries (N = M = 31).
    """
    gram = c.T @ c if c.shape[1] <= c.shape[0] else c @ c.T
    norm = sqrt(np.vdot(gram, gram))
    # divided first, so that no power of a large ||C||_F overflows
    return fro / norm * fro * fro if norm > 0.0 else 0.0


def kyfan_fit(taus: np.ndarray, dim_a: int, dim_b: int, a: np.ndarray,
              b: np.ndarray) -> tuple[float, float, float]:
    """(bound, shrink_a, shrink_b) of :func:`kyfan_room` about the marginals
    a, b when the Ky Fan norm sum ``taus`` fits the bound within its slack;
    otherwise BoundExceeded, which carries the excess, norm minus bound.
    The one test :func:`kyfan_bound_decomposition` applies, so that a
    refusal read off the singular values alone is the one it would raise."""
    bound, slack, shrink_a, shrink_b = kyfan_room(dim_a, dim_b, a, b)
    excess = float(taus.sum() - bound)
    if excess > slack:
        raise BoundExceeded(f"Ky Fan norm exceeds the constructive bound {bound:.6g} "
                            f"by {excess:.3e}", excess=excess)
    return bound, shrink_a, shrink_b


def _pairs(centre: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The rows centre + step_i and centre - step_i, interleaved."""
    out = np.empty((2 * step.shape[0], step.shape[1]))
    out[0::2], out[1::2] = centre + step, centre - step
    return out


def kyfan_bound_decomposition(corr_svd: tuple[np.ndarray, np.ndarray, np.ndarray],
                              dim_a: int, dim_b: int,
                              marginals: tuple[np.ndarray, np.ndarray] | None = None
                              ) -> SeparableDecomposition:
    """Explicit decomposition of a state whose correlation, less the product
    of its marginals, fits the inscribed ball (de Vicente's constructive Ky
    Fan bound).

    ``corr_svd`` is the thin singular value decomposition (u, tau, vh) of
    C = corr - a b^T, tau descending, as ``BipartiteDecomposed.corr_svd``
    stores it for a normal-form state, whose marginals ``marginals`` = (a,
    b) are zero and may be omitted.  The Ky Fan norm sum tau fits when it
    exceeds the bound (R_N - |a|)(R_M - |b|), with R_N = sqrt(2/(N(N-1)))
    the radius of the inscribed ball, by at most the slack of
    :func:`kyfan_room`, ``KYFAN_SLACK`` scaled as the bound is; otherwise,
    or when a marginal lies on or outside its ball, BoundExceeded carries
    the excess, norm minus bound (:func:`kyfan_fit`, which reads only
    tau).  With K = ||C||_KF / bound, every
    tau_i > 0 contributes the pair (a +- s u_i, b +- t v_i), each of weight
    tau_i / (2 sum tau), where s = (R_N - |a|) sqrt(K) and
    t = (R_M - |b|) sqrt(K), so s t = ||C||_KF.  The pairs reproduce the
    marginals, and sum to a b^T + C = corr in the correlation; every A
    vector has norm at most |a| + s, within R_N for K <= 1 (resp. B), hence
    physical.  Within the slack K - 1 is at most ``KYFAN_SLACK`` over the
    unshifted bound 2/sqrt(NM(N-1)(M-1)), and a component's lowest
    eigenvalue is at worst about -(K - 1)/(2N), inside the verification
    tolerance.  A rank-r C gives 2r components, a zero one the single
    product (a, b).
    """
    u, taus, vh = corr_svd
    a, b = (np.zeros(u.shape[0]), np.zeros(vh.shape[1])) if marginals is None else marginals
    if taus.size == 0 or taus[0] <= 0.0:
        return SeparableDecomposition(probs=np.array([1.0]), r_vectors=np.array([a], dtype=float),
                                      s_vectors=np.array([b], dtype=float))
    bound, shrink_a, shrink_b = kyfan_fit(taus, dim_a, dim_b, a, b)
    rank = np.count_nonzero(taus > KYFAN_RANK * taus[0])
    taus, u, v = taus[:rank], u[:, :rank].T, vh[:rank]
    budget = float(taus.sum()) / bound
    r = shrink_a * np.sqrt(2.0 * budget / (dim_a * (dim_a - 1.0))) * u
    s = shrink_b * np.sqrt(2.0 * budget / (dim_b * (dim_b - 1.0))) * v
    return SeparableDecomposition(probs=np.repeat(taus / (2.0 * taus.sum()), 2),
                                  r_vectors=_pairs(a, r), s_vectors=_pairs(b, s))


# ---------------------------------------------------------------------------
# pure-state simplex from a Weyl-Heisenberg SIC
# ---------------------------------------------------------------------------

SIC_ATTEMPTS = 20
SIC_ITERATIONS = 100
SIC_RESIDUAL = 1e-12
SIC_DAMPING_CAP = 1e6


def _displacements(dim: int) -> np.ndarray:
    """The N^2 Weyl-Heisenberg operators X^a Z^b, stacked at index a N + b."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return np.array([np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                     for a in range(dim) for b in range(dim)])


def _overlap_residuals(v: np.ndarray, disp: np.ndarray):
    """|<psi|D_k|psi>|^2 - 1/(N+1) for k != 0, then <psi|psi> - 1, and their
    Jacobian in (Re psi, Im psi).

    With o_k = <psi|D_k|psi>, d o_k = (D_k psi + (D_k^dag psi)^*) . d Re psi
    + i ((D_k^dag psi)^* - D_k psi) . d Im psi, and d|o_k|^2 = 2 Re(o_k^* d o_k).
    """
    dim = disp.shape[1]
    psi = v[:dim] + 1j * v[dim:]
    d_psi = disp[1:] @ psi
    dag_psi = np.einsum("kji,j->ki", disp[1:], psi.conj())
    overlaps = d_psi @ psi.conj()
    weight = 2.0 * overlaps.conj()[:, None]
    residuals = np.append(np.abs(overlaps) ** 2 - 1.0 / (dim + 1.0),
                          np.vdot(psi, psi).real - 1.0)
    jac = np.vstack([np.hstack([(weight * (d_psi + dag_psi)).real,
                                (weight * (d_psi - dag_psi)).imag]), 2.0 * v])
    return residuals, jac


def _levenberg_marquardt(v: np.ndarray, disp: np.ndarray):
    """At most ``SIC_ITERATIONS`` damped Gauss-Newton steps on the overlap
    equations from ``v``; returns the last point and its residuals.

    The damping falls tenfold after a step that lowers the squared residual
    and rises tenfold after one that does not.  A failed step ends the solve
    once every residual is within ``SIC_RESIDUAL`` (it is then at round-off)
    or once the damping passes ``SIC_DAMPING_CAP`` (it is then at a
    stationary point).  The floor on the damping keeps the system regular
    along the global phase, which no residual sees.
    """
    residuals, jac = _overlap_residuals(v, disp)
    damping = 1e-3
    eye = np.eye(v.size)
    for _ in range(SIC_ITERATIONS):
        step = linalg.solve(jac.T @ jac + damping * eye, -(jac.T @ residuals))
        trial, trial_jac = _overlap_residuals(v + step, disp)
        if trial @ trial < residuals @ residuals:
            v, residuals, jac = v + step, trial, trial_jac
            damping = max(damping / 10.0, 1e-12)
        elif np.abs(residuals).max() <= SIC_RESIDUAL or damping > SIC_DAMPING_CAP:
            break
        else:
            damping *= 10.0
    return v, residuals


@lru_cache(maxsize=None)
def _sic_fiducial(dim: int, attempts: int, residual: float) -> tuple[np.ndarray | None, float]:
    """The unit fiducial of the first of ``attempts`` Levenberg-Marquardt
    solves, from one fixed stream of starts, whose overlap equations hold
    within ``residual``, or None, and the best residual.  The starts are
    fixed, so a search that fails would fail again: memoized, a dimension
    whose search fails (N = 20 and 22 among them) pays for it once."""
    disp = _displacements(dim)
    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(attempts):
        v, residuals = _levenberg_marquardt(rng.normal(size=2 * dim), disp)
        best = min(best, float(np.abs(residuals).max()))
        if best <= residual:
            psi = v[:dim] + 1j * v[dim:]
            psi /= np.linalg.norm(psi)
            psi.setflags(write=False)
            return psi, best
    return None, best


@lru_cache(maxsize=None)
def pure_state_simplex(dim: int) -> np.ndarray:
    """N^2 pure-state Bloch vectors forming a regular simplex.

    Rows of the returned read-only (N^2, N^2-1) array have squared norm
    2(N-1)/N and pairwise cosine -1/(N^2-1).  That is the condition
    |<psi_i|psi_j>|^2 = 1/(N+1) on the pure states, so the rows are a
    SIC-POVM.  It is built as the Weyl-Heisenberg orbit D_k|psi> of one
    fiducial psi in C^N (Renes et al., quant-ph/0310075), found by one
    Levenberg-Marquardt solve of the overlap equations
    |<psi|D_k|psi>|^2 = 1/(N+1), <psi|psi> = 1 with their analytic
    Jacobian.  The starts are drawn from one fixed stream, so the simplex
    of each N is always the same.  Each of ``SIC_ATTEMPTS`` starts is
    accepted when every overlap equation holds within ``SIC_RESIDUAL``;
    SearchFailed carries the best residual when none does.  dim < 2 raises
    DimensionTooSmall.
    """
    if dim < 2:
        raise DimensionTooSmall(f"pure-state simplex needs dim >= 2, got {dim}")
    psi, best = _sic_fiducial(dim, SIC_ATTEMPTS, SIC_RESIDUAL)
    if psi is None:
        raise SearchFailed(
            f"no SIC fiducial for dim {dim} in {SIC_ATTEMPTS} attempts; "
            f"best overlap residual {best:.3e}",
            residual=best,
        )
    kets = _displacements(dim) @ psi
    out = to_bloch(np.einsum("ki,kj->kij", kets, kets.conj()))
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# separable Werner states
# ---------------------------------------------------------------------------

def werner_decompose(dim: int, phi: float) -> SeparableDecomposition:
    """Closed-form decomposition of a separable Werner state, 0 <= phi <= 1.

    With v_i the rows of :func:`pure_state_simplex` and
    kappa = (N phi - 1)/(N - 1), the state is the uniform mixture of the
    depolarised SIC state (1 - kappa) I/N + kappa |psi_i><psi_i|
    (r_i = kappa v_i) times the pure |psi_i><psi_i| (s_i = v_i).  The frame
    sum_i v_i v_i^T = 2N/(N+1) I makes the correlation
    kappa 2/(N(N+1)) I = c I.  The A side is physical exactly for
    -1/(N-1) <= kappa <= 1, which is 0 <= phi <= 1; below phi = 1/N it lies
    in the inscribed ball, which it reaches at phi = 0.  Any other phi, the
    entangled range [-1, 0) included, raises OutOfPositivityRange, and
    dim < 2 raises DimensionTooSmall, from :func:`pure_state_simplex`.
    """
    if not 0.0 <= phi <= 1.0:
        raise OutOfPositivityRange(
            f"Werner parameter phi={phi} outside the separable range [0, 1]")
    vertices = pure_state_simplex(dim)  # (N^2, K)
    count = dim * dim
    kappa = (dim * phi - 1.0) / (dim - 1.0)
    return SeparableDecomposition(probs=np.full(count, 1.0 / count),
                                  r_vectors=kappa * vertices,
                                  s_vectors=vertices.copy())


# ---------------------------------------------------------------------------
# two-qubit product decomposition (Wootters)
# ---------------------------------------------------------------------------

# sigma_y x sigma_y is the anti-diagonal fliplr(diag(-1, 1, 1, -1)), so
# (sigma_y x sigma_y) v = _YY_SIGNS * v[::-1], exactly
_YY_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])
_HADAMARD = 0.5 * np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]]).astype(complex)
# rows vec(I), vec(sigma x I) and vec(I x sigma): for z in C^2 x C^2 reshaped
# to the 2 x 2 Z, z^dag (sigma x I) z = Tr[sigma Z Z^dag] and z^dag (I x sigma) z
# = Tr[sigma Z^T Z^*], the Pauli moments of its two Gram matrices
_GRAM_MOMENTS = np.concatenate([np.eye(4)[None], np.kron(_gen_stack(2), np.eye(2)),
                                np.kron(np.eye(2), _gen_stack(2))]).reshape(7, 16)
_EPS = float(np.finfo(float).eps)
# a full-rank frame skips the Takagi check when 64 eps lam_1 <= TAKAGI_ORTHO
# lam_4 (see wootters_frame)
_TAKAGI_SKIP = 64.0 * _EPS / TAKAGI_ORTHO


@lru_cache(maxsize=None)
def _takagi_gathers(rank: int) -> tuple[tuple[np.ndarray, np.ndarray],
                                        tuple[np.ndarray, np.ndarray]]:
    """Two (index, sign) pairs for Wootters' frame of rank r, read-only.

    The first copies the r x r complex tau, viewed as r x 2r reals, into
    its 2r x 2r real embedding [[Re tau, Im tau], [Im tau, -Re tau]].  The
    second copies the top r eigenvectors of the embedding, descending, into
    conj(U), viewed as r x 2r reals: conj(U)[i, j] = E[i, 2r-1-j] - i
    E[r+i, 2r-1-j].  Each is one ``take`` and one product by signs +-1,
    which copy and negate exactly.
    """
    i, j = np.indices((rank, rank))
    re = 2 * (i * rank + j)
    signs = np.ones((2 * rank, 2 * rank))
    signs[rank:, rank:] = -1.0
    column = 2 * rank - 1 - j
    top = np.stack([i * 2 * rank + column, (rank + i) * 2 * rank + column], axis=-1)
    gathers = ((np.block([[re, re + 1], [re + 1, re]]), signs),
               (top.reshape(rank, 2 * rank), np.tile([1.0, -1.0], (rank, rank))))
    for pair in gathers:
        _read_only(pair)
    return gathers


@dataclass(frozen=True)
class WoottersFrame:
    """rho = x x^dag and x^T (sigma_y x sigma_y) x = diag(lam), zero-padded to 4."""

    x: np.ndarray     # (4, 4) complex
    lam: np.ndarray   # (4,), descending

    @property
    def concurrence_margin(self) -> float:
        """lam_1 - lam_2 - lam_3 - lam_4: the concurrence when positive."""
        lam = self.lam.tolist()
        return lam[0] - (lam[1] + lam[2] + lam[3])


def wootters_frame(d: BipartiteDecomposed) -> WoottersFrame:
    """Wootters' frame of a 2 x 2 state.

    rho = V V^dag over the subnormalised eigenvectors of its r positive
    eigenvalues, the last r of the ascending ``d.spectrum``, and
    tau = V^T (sigma_y x sigma_y) V is complex symmetric.  An eigenvalue
    counts as positive above 16 eps times the largest: round-off ones near
    1e-17 of a rank-deficient rho would enter V and leave spurious lam of
    order their square root.  The real symmetric embedding
    [[Re tau, Im tau], [Im tau, -Re tau]] has eigenpairs (lam, [Re u; Im u])
    and (-lam, [-Im u; Re u]), so its top eigenvectors give the Takagi
    factorisation tau = U diag(lam) U^T.  For lam > 0, degenerate or not,
    i u lies in the eigenspace of -lam, so U is unitary as it comes; only a
    null block of tau, exact or within round-off, can hold pairs u, i u.
    A frame of rank r < 4 is zero-padded to four columns and values.

    What triggers the QR: U^dag U is checked for a frame of rank r < 4 and
    for a full-rank one with lam_4 < 64 eps lam_1 / ``TAKAGI_ORTHO``, about
    lam_1 / 70, and a QR orthonormalises U when U^dag U departs from I by
    more than ``TAKAGI_ORTHO``.  A full-rank frame with lam_4 at or above
    that gate skips the check.  The eigensolver mixes the eigenvectors of
    +lam_4 and -lam_4, 2 lam_4 apart, by about eps lam_1 / lam_4; on 20,000
    random states the skipped check did not fail, the mixing staying below
    4.3 eps lam_1 / lam_4, 15 times below ``TAKAGI_ORTHO`` at the gate.
    That margin is observed, not proven: Takagi vectors that passed
    unchecked and were off would give components that miss rho, which
    :func:`~sephorn.criteria.verify_decomposition` rejects.
    """
    if (d.dim_a, d.dim_b) != (2, 2):
        raise DimensionMismatch(f"Wootters' frame needs 2 x 2, got {d.dim_a} x {d.dim_b}")
    w, vecs = d.spectrum
    spectrum = w.tolist()
    rank = 4 - bisect_right(spectrum, 16.0 * _EPS * spectrum[-1])
    if rank < 4:
        w, vecs = w[4 - rank:], vecs[:, 4 - rank:]
    v = vecs * np.sqrt(w)
    tau = (_YY_SIGNS * v[::-1]).T @ v
    embedding, top = _takagi_gathers(rank)
    lam, emb = linalg.eigh(tau.view(float).take(embedding[0]) * embedding[1])
    # the top r eigenpairs, descending, whose eigenvectors are [Re u; Im u]
    lam = lam[2 * rank - 1:rank - 1:-1]
    conj_takagi = (emb.take(top[0]) * top[1]).view(complex)
    # written so that a NaN lam takes the check
    if rank < 4 or not lam[0] * _TAKAGI_SKIP <= lam[3]:
        takagi = conj_takagi.conj()
        if np.abs(conj_takagi.T @ takagi - np.eye(rank)).max() > TAKAGI_ORTHO:
            conj_takagi = linalg.qr_q(takagi).conj()
        lam = np.maximum(lam, 0.0)
    x = v @ conj_takagi
    if rank < 4:
        x = np.concatenate((x, np.zeros((4, 4 - rank))), axis=1)
        lam = np.concatenate((lam, np.zeros(4 - rank)))
    return WoottersFrame(x=x, lam=lam)


def _triangle_angles(a: float, b: float, diag: float) -> tuple[float, float]:
    """The angles of the triangle with sides a, b, diag at the vertex where
    a meets diag and at the one where b meets diag, from the half-angle
    formulas on the semi-perimeter excesses, which give a flat triangle
    exact angles of 0 or pi."""
    ex_a = max(0.0, b + diag - a) / 2.0
    ex_b = max(0.0, a + diag - b) / 2.0
    ex_d = max(0.0, a + b - diag) / 2.0
    semi = ex_a + ex_b + ex_d
    at_a = 2.0 * atan2(sqrt(ex_a * ex_d), sqrt(semi * ex_b))
    at_b = pi - at_a - 2.0 * atan2(sqrt(ex_a * ex_b), sqrt(semi * ex_d))
    return at_a, at_b


def wootters_decomposition(d: BipartiteDecomposed,
                           frame: WoottersFrame | None = None) -> SeparableDecomposition:
    """At most four pure product states for a 2 x 2 state of zero concurrence.

    Wootters (quant-ph/9709029): once sum_j lam_j e^{i theta_j} = 0, every
    z_i = sum_j H_ji e^{i theta_j / 2} x_j (H the real +-1/2 Hadamard
    matrix) has z_i^T (sigma_y x sigma_y) z_i = 0, so it is a product
    vector, and z z^dag = rho.  The quadrilateral closes along the diagonal
    max(lam_1 - lam_2, lam_3 - lam_4) as two triangles; half-angle formulas
    on the semi-perimeter excesses and the angle sum keep their angles exact
    for flat triangles, a zero diagonal and degenerate lam, and they are
    evaluated in Python floats.  Reshaped to 2 x 2, z_i = a b^T has the
    Gram matrices Z Z^dag = |b|^2 a a^dag and Z^T Z^* = |a|^2 b b^dag.  The
    weight is the trace of the first, |z_i|^2, and each side's ket is read
    off its Gram matrix g: the Pauli moments Tr[g sigma] = (2 Re g_10,
    2 Im g_10, g_00 - g_11), divided by their norm, are the Bloch vector of
    the top eigenvector of g, which for a product z_i is a (resp. b).  So
    every component is pure, and no matrix is factorised.  ``frame``
    defaults to :func:`wootters_frame` of ``d``.
    """
    frame = wootters_frame(d) if frame is None else frame
    lam = frame.lam.tolist()
    diag = max(lam[0] - lam[1], lam[2] - lam[3])
    at_a0, at_b0 = _triangle_angles(lam[0], lam[1], diag)
    at_a1, at_b1 = _triangle_angles(lam[2], lam[3], diag)
    # cmath.exp and numpy's complex exp both take exp(re) times the C
    # library's cos and sin of im, so the phases are the same bits
    phases = np.array([cmath.exp(0.5j * t) for t in (at_a0, -at_b0, pi + at_a1, pi - at_b1)])
    z = (frame.x * phases) @ _HADAMARD
    # row k: z_i^dag M_k z_i = sum_ab (M_k)_ab conj(z_ai) z_bi, one product
    # for every moment k and component i
    moments = (_GRAM_MOMENTS @ (z.conj()[:, None] * z).reshape(16, 4)).real
    bloch = moments[1:].T.reshape(4, 2, 3)
    bloch /= np.sqrt(np.vecdot(bloch, bloch))[..., None]
    weights = moments[0]
    return SeparableDecomposition(probs=weights / weights.sum(),
                                  r_vectors=bloch[:, 0], s_vectors=bloch[:, 1])


# ---------------------------------------------------------------------------
# carrying decompositions through local maps
# ---------------------------------------------------------------------------

def _bloch_transport(f: np.ndarray) -> np.ndarray:
    """T = Re[G_out kron(F, F*) C_in], the real (K^2, k^2) matrix of
    X -> F X F^dag in Bloch coordinates, for F of shape (K, k).

    C_in maps [1, r] to the flattened component matrix of the Bloch vector
    r, and the rows G_out read Tr[Y] and Tr[Y g_nu] off vec(Y)
    (:mod:`~sephorn.bloch`).  Every entry is the trace of a product of
    Hermitian matrices, hence real.
    """
    return np.real(_moment_rows(f.shape[0]) @ (_conjugation(f) @ _moment_columns(f.shape[1])))


def transport(dec: SeparableDecomposition, map_a: np.ndarray,
              map_b: np.ndarray) -> SeparableDecomposition:
    """Carry a decomposition through the local maps X -> M X M^dag, M =
    ``map_a`` on A and ``map_b`` on B, which take every product component
    to a product: a support isometry lifts, an inverse filter pulls back,
    and their product does both.  One real matrix per side
    (:func:`_bloch_transport`) takes the rows [1, r] to the trace and the
    generator moments of the mapped components; the traces re-weight the
    components and divide out of the new Bloch vectors.
    """
    probs = dec.probs
    sides = []
    for vecs, f in ((dec.r_vectors, map_a), (dec.s_vectors, map_b)):
        moments = _augmented(vecs) @ _bloch_transport(f).T
        probs = probs * moments[:, 0]
        sides.append(moments[:, 1:] / moments[:, :1])
    return SeparableDecomposition(probs=probs / probs.sum(),
                                  r_vectors=sides[0], s_vectors=sides[1])
