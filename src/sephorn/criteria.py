"""Separability decision battery.

Combines the necessary checks (norm bound on the correlation matrix,
positivity under partial transposition), the constructive sufficient check,
the exact two-qubit decision and the closed-form Werner and isotropic
decompositions, recognised in any local frame, into a single pipeline with
three honest outcomes: ``SEPARABLE`` (always carrying a verified
decomposition), ``ENTANGLED`` (always carrying a violated necessary
criterion) and ``INCONCLUSIVE``.  Each question is asked of the earliest
record that answers it, and the matrix questions of the validated matrix
itself: positivity, then partial transposition, tested once, on the
input, since a support projection only compresses the partial transpose.
Above 2 x 2 each is answered by one Cholesky factor of the matrix plus
``tol`` I, and an eigenvalue is computed only when that factor fails; at
2 x 2 PPT is decided at rounding (:func:`ppt_check`).
Only a PPT state gets a Bloch record, so an NPT verdict pays for no
moments, realigned matrix or marginal.
A PPT state is projected onto its local supports while a marginal is
rank-deficient, and then runs one ordered tuple of stages, ``_TWO_QUBIT``
(Wootters' decomposition) or ``_FULL_RANK``, in the one loop of
``_Call.run``, which builds every verdict that ends a tuple.  Each
criterion is logged once.  Each decomposition reaches the input through
one local map per side, in one :func:`~sephorn.decompose.transport`, and
is verified once, against it.

Above 2 x 2 the battery rests on de Vicente's Ky Fan bounds (QIC 7, 624
(2007)).  A product, whose correlation is a b^T within ``RESIDUAL``
entrywise, is decided by that one component before any filter.
Otherwise the constructive bound is tried first on the unfiltered record,
shifted by its marginals: ||corr - a b^T||_KF <= (R_N - |a|)(R_M - |b|),
with R_N = sqrt(2/(N(N-1))) the radius of the inscribed ball.  It decides
a state whose correlation fits that ball with no filtering, pull-back or
Gram iteration, from the columns or rows of C
(:func:`~sephorn.decompose.line_split`) when their norms fit, and from
one singular value decomposition only when they miss, and refuses most
others from two norms with no decomposition at all; a state it
does not decide logs nothing and is filtered, and the bounds then apply to
the filtered correlation: the necessary bound, then the family question,
then the constructive bound, so that a Werner or isotropic state in any
local frame is built from its N^2 family components, not from 2(N^2 - 1)
Ky Fan pairs.  The filtered record counts as normal form when
both marginal Bloch norms lie below ``RESIDUAL``; one accepted short of
``NORMAL_TOL`` logs a passed ``normal-form`` criterion.  The necessary
bound, :func:`kyfan_necessary_check`, holds for every separable state,
filtered or not.  The constructive bound and its slack come from
:func:`~sephorn.decompose.kyfan_room` and are compared with the Ky Fan
norm in :func:`~sephorn.decompose.kyfan_bound_decomposition` alone, whose
BoundExceeded carries the excess that a failed ``kyfan-sufficient`` logs.

The stages read what a :class:`BipartiteDecomposed` record computes
once: the singular values ``d.corr_singular_values``, from one singular
value decomposition without vectors, that the necessary bound, the family
recogniser and the constructive bound's refusal share on the filtered
record; the singular vectors ``d.corr_svd``, taken only once the
constructive bound fits and the line split of the filtered correlation
misses it; and the moment matrix ``d.moments`` that
verification subtracts from the decomposition's own in one step.
:func:`ppt_check` and :func:`require_psd` ask their questions of a
record's ``d.matrix`` through the code :func:`analyze` runs on the
validated matrix.  Positivity is read from a Bloch norm
(:func:`~sephorn.bloch.ball_floor`) or certified by a Cholesky
factorisation (:func:`~sephorn.linalg.certify_psd`) before any eigenvalue
is computed; see :func:`verify_decomposition`, :func:`require_psd` and,
for the partial transpose, :func:`ppt_check`, whose certified pass logs
margin 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

from . import linalg
from .bipartite import (
    BipartiteDecomposed,
    _filtered,
    _marginal_norm,
    _record,
    _validated,
    local_ranks,
    normal_form,
    partial_transpose_matrix,
    support_isometries,
)
from .bloch import _augmented, _ball_radius_sq, _matrices, ball_floor, from_bloch
from .config import (COMPONENT_PSD, HOLDER_ROUNDING, KYFAN_SLACK, MAX_ITER, NORMAL_TOL,
                     POSITIVITY_TOL, PPT_ROUNDING, PROB_SUM, RESIDUAL, STATE_TOL, check_max_iter,
                     check_tol)
from .decompose import (
    _EPS,
    SeparableDecomposition,
    kyfan_bound_decomposition,
    kyfan_fit,
    kyfan_floor,
    kyfan_room,
    line_split,
    transport,
    werner_decompose,
    wootters_decomposition,
    wootters_frame,
)
from .errors import BoundExceeded, NotFullRank, NotPSD, SepHornError
from .linalg import certify_psd
from .states import werner_parameter


class Status(enum.Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's outcome; ``margin`` > 0 quantifies a violation."""

    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    max_residual: float
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    status: Status
    decomposition: SeparableDecomposition | None = None
    criteria: tuple[CriterionResult, ...] = ()


# ---------------------------------------------------------------------------
# individual criteria
# ---------------------------------------------------------------------------

def kyfan_necessary_check(d: BipartiteDecomposed) -> CriterionResult:
    """de Vicente's necessary bound ||corr||_KF <= R_+(N) R_+(M), with
    R_+(N) = sqrt(2(N-1)/N), which every separable state satisfies,
    filtered or not.

    The ``kyfan-necessary`` criterion's margin is the Ky Fan norm, the sum
    of ``d.corr_singular_values``, which takes no singular vectors, minus
    the bound, so a positive margin beyond ``KYFAN_SLACK`` certifies
    entanglement.
    """
    n, m = d.dim_a, d.dim_b
    bound = sqrt(2.0 * (n - 1.0) / n) * sqrt(2.0 * (m - 1.0) / m)
    margin = float(d.corr_singular_values.sum() - bound)
    return CriterionResult("kyfan-necessary", margin <= KYFAN_SLACK, margin,
                           f"Ky Fan norm bound {bound:.6g}")


def ppt_check(d: BipartiteDecomposed, *, tol: float = POSITIVITY_TOL) -> CriterionResult:
    """Positivity of the partially transposed state, which every separable
    state has, asked of the matrix-level partial transpose of ``d.matrix``;
    returns the criterion the verdict logs.

    Above 2 x 2 the question is asked as :func:`require_psd` asks it, by
    :func:`~sephorn.linalg.certify_psd`: when the partial transpose plus
    ``tol`` I has a Cholesky factor, every eigenvalue exceeds -``tol``, and
    the ``ppt`` criterion passes with margin 0 and a detail that names
    that certificate.  At 2 x 2, or when the factorisation fails, one
    eigenvalue solve gives the lowest eigenvalue: its margin is minus that
    eigenvalue when it is negative, else 0, and its detail gives it.  It
    fails below -``tol`` above 2 x 2.  At 2 x 2, where PPT is necessary and
    sufficient, it fails below -(``PPT_ROUNDING`` + ||N||_tr), N the
    negative part of ``d.spectrum``: ||N^Gamma||_op <= ||N||_tr, so rho's
    positive part is then NPT (for a Hermitian ``d.matrix``, as the
    validation makes it).  ``tol`` is checked as in :func:`analyze`.
    """
    check_tol(tol)
    two_qubit = (d.dim_a, d.dim_b) == (2, 2)
    return _ppt(d.matrix, d.dim_a, d.dim_b, tol, d.spectrum if two_qubit else None)


def _ppt(rho: np.ndarray, dim_a: int, dim_b: int, tol: float,
         spectrum: tuple[np.ndarray, np.ndarray] | None) -> CriterionResult:
    """:func:`ppt_check` of a validated matrix, whose eigendecomposition
    ``spectrum`` is given at 2 x 2 and None above."""
    pt = partial_transpose_matrix(rho, dim_a, dim_b)
    if spectrum is None:
        low, floor = certify_psd(pt, tol), tol
        if low is None:
            return CriterionResult("ppt", True, 0.0,
                                   f"Cholesky factor of the partial transpose + {tol:.1e} I")
    else:
        # rho's negative eigenvalues widen the floor by their sum
        w = spectrum[0]
        low = linalg.eigvalsh(pt)[0]
        floor = PPT_ROUNDING - float(w[w < 0.0].sum())
    low = float(low)
    return CriterionResult("ppt", low >= -floor, max(0.0, -low), f"min eigenvalue {low:.3e}")


def _misshapen(probs: np.ndarray, dec: SeparableDecomposition,
               d: BipartiteDecomposed) -> str:
    """The first vector stack whose shape does not match the probabilities
    and the local dimensions, or ""."""
    for label, vecs, dim in (("A", dec.r_vectors, d.dim_a), ("B", dec.s_vectors, d.dim_b)):
        shape = np.shape(vecs)
        if shape != (probs.size, dim * dim - 1):
            if len(shape) != 2 or shape[0] != probs.size:
                return (f"side {label} holds vectors of shape {shape} "
                        f"for {probs.size} probabilities")
            return f"side {label} vector width {shape[1]} does not match dim {dim}"
    return ""


def _first_non_finite(probs: np.ndarray, dec: SeparableDecomposition) -> str:
    """The first non-finite probability or vector entry by component, or ""."""
    for what, values in (("probability", probs), ("vector on side A", dec.r_vectors),
                         ("vector on side B", dec.s_vectors)):
        bad = ~np.isfinite(np.asarray(values, dtype=float)).reshape(probs.size, -1).all(axis=1)
        if bad.any():
            return f"non-finite {what} at component {np.flatnonzero(bad)[0]}"
    return ""


@np.errstate(invalid="ignore", over="ignore")
def _moment_residual(dec: SeparableDecomposition, d: BipartiteDecomposed) -> np.ndarray:
    """|dec.moments - d.moments|, entrywise; an infinite entry times a zero
    weight is NaN, which the caller names."""
    return np.abs(dec.moments - d.moments)


def verify_decomposition(dec: SeparableDecomposition,
                         d: BipartiteDecomposed) -> VerificationReport:
    """Check a decomposition against a state: probability simplex, the
    moment equations, and physicality of every component.

    One difference, ``dec.moments - d.moments``, holds every residual: its
    entry [0, 0] is sum p - 1, which must lie within ``PROB_SUM``, and its
    other entries, marginals and correlation, must lie within ``RESIDUAL``.
    Malformed input -- mis-shaped vectors, or non-finite entries, which
    reach that difference and are then named by a scan -- is reported as
    invalid before any certificate is computed.
    Physicality is read first from each side's largest squared Bloch norm.
    A component whose :func:`~sephorn.bloch.ball_floor` is at least
    ``-COMPONENT_PSD`` is physical, and the floor falls as the norm grows,
    so a side whose largest squared norm is at most the one whose floor is
    ``-COMPONENT_PSD`` is settled with one comparison and no per-row floor.
    That settles every side of qubit components, the four pure Wootters
    components included (the floor is exact at N = 2, where the limit is
    (1 + 2 ``COMPONENT_PSD``)^2), and every side inside
    the inscribed ball, such as the Ky Fan pairs of a state no filter
    moved; a NaN norm never passes.  A side it leaves open takes per-row
    floors, and its components below the floor are certified as one stack
    by Cholesky, as :func:`~sephorn.linalg.certify_psd` certifies: each
    matrix plus ``COMPONENT_PSD`` I is built straight from the Bloch row
    [1 + N ``COMPONENT_PSD``, r], the shift folded into the identity's
    coefficient, in one real product (:func:`~sephorn.bloch._matrices`).
    Only a stack that fails is eigensolved, unshifted, and the first
    component below ``-COMPONENT_PSD`` is named by its index in the
    decomposition, with its lowest eigenvalue.
    """
    probs = np.asarray(dec.probs, dtype=float)
    if probs.size == 0:
        return VerificationReport(valid=False, max_residual=np.inf, detail="empty")
    malformed = _misshapen(probs, dec, d)
    if not malformed:
        residual = _moment_residual(dec, d)
        sum_dev = float(residual[0, 0])
        residual[0, 0] = 0.0
        max_residual = float(residual.max())
        # summed, not maximised: max(1.0, nan) is 1.0
        if not isfinite(sum_dev + max_residual):
            malformed = _first_non_finite(probs, dec)
    if malformed:
        return VerificationReport(valid=False, max_residual=np.inf, detail=malformed)
    problems = []
    if probs.min() <= 0.0:
        problems.append(f"nonpositive probability {probs.min():.3e}")
    if sum_dev > PROB_SUM:
        problems.append(f"probabilities sum off by {sum_dev:.3e}")
    if max_residual > RESIDUAL:
        problems.append(f"moment residual {max_residual:.3e}")
    for label, vecs, dim in (("A", dec.r_vectors, d.dim_a), ("B", dec.s_vectors, d.dim_b)):
        # written so that a NaN norm goes on to the floors and the certificate
        if np.vecdot(vecs, vecs).max() <= _ball_radius_sq(dim, -COMPONENT_PSD):
            continue
        rows = np.flatnonzero(~(ball_floor(vecs, dim) >= -COMPONENT_PSD))
        # the rows [1 + N tol, r] give from_bloch(r) + tol I
        shifted = _augmented(vecs[rows])
        shifted[:, 0] = 1.0 + dim * COMPONENT_PSD
        if np.isfinite(linalg.cholesky(_matrices(shifted, dim))).all():
            continue
        low = linalg.eigvalsh(from_bloch(vecs[rows], dim))[:, 0]
        bad = np.flatnonzero(~(low >= -COMPONENT_PSD))
        if bad.size:
            problems.append(f"component {rows[bad[0]]} on side {label} unphysical "
                            f"(min eigenvalue {low[bad[0]]:.3e})")
    return VerificationReport(valid=not problems, max_residual=max_residual,
                              detail="; ".join(problems))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

@dataclass
class _Call:
    """One pass of the battery.  ``d`` is the one record every stage reads:
    the input, its projection onto the local supports, then its normal
    form.  ``lift`` holds each side's support isometries composed into one,
    ``filters`` the forward filters; each is None until it is taken."""

    d: BipartiteDecomposed
    tol: float
    max_iter: int = MAX_ITER
    log: list[CriterionResult] = field(default_factory=list)
    lift: tuple[np.ndarray, np.ndarray] | None = None
    filters: tuple[np.ndarray, np.ndarray] | None = None
    input_record: BipartiteDecomposed = field(init=False)

    def __post_init__(self):
        self.input_record = self.d

    def run(self, stages) -> Verdict:
        """Run ``stages`` in order.  Each returns a verdict, a terminal
        status, or None to go on; INCONCLUSIVE when the stages run out."""
        for stage in stages:
            out = stage(self)
            if isinstance(out, Verdict):
                return out
            if out is not None:
                return Verdict(status=out, criteria=tuple(self.log))
        return Verdict(status=Status.INCONCLUSIVE, criteria=tuple(self.log))

    def verified(self, dec: SeparableDecomposition, source: str) -> Verdict | None:
        """The SEPARABLE verdict on ``dec``, or None when verification fails.
        ``dec`` decomposes ``d`` and reaches the input through one map per
        side, lift times inverse filter, in one transport call (none when no
        projection or sweep ran), and is verified once, against the input.  The
        filters are inverted here, since most filtered passes verify nothing."""
        maps = self.lift
        if self.filters is not None:
            pull = [linalg.inv(f) for f in self.filters]
            maps = pull if maps is None else [lift @ inv for lift, inv in zip(maps, pull)]
        if maps is not None:
            dec = transport(dec, *maps)
        report = verify_decomposition(dec, self.input_record)
        self.log.append(CriterionResult(f"decomposition[{source}]", report.valid,
                                        report.max_residual, report.detail))
        if not report.valid:
            return None
        return Verdict(status=Status.SEPARABLE, decomposition=dec, criteria=tuple(self.log))


def _trivial_factor(call: _Call) -> Verdict | None:
    """The product of the two marginals, as one component."""
    d = call.d
    dec = SeparableDecomposition(np.ones(1), d.a.reshape(1, -1).copy(), d.b.reshape(1, -1).copy())
    return call.verified(dec, "trivial-factor")


def _wootters(call: _Call) -> Verdict | None:
    """Wootters' concurrence and, at zero within ``KYFAN_SLACK``, his
    product decomposition."""
    frame = wootters_frame(call.d)
    margin = frame.concurrence_margin
    call.log.append(CriterionResult("concurrence", margin <= KYFAN_SLACK, margin,
                                    "Wootters values %.6g, %.6g, %.6g, %.6g"
                                    % tuple(frame.lam.tolist())))
    if margin <= KYFAN_SLACK:
        return call.verified(wootters_decomposition(call.d, frame), "wootters")
    return None


def _kyfan_unfiltered(call: _Call) -> Verdict | Status | None:
    """Products, then de Vicente's constructive bound, on the unfiltered
    record, with C = corr - a b^T.  A C within ``RESIDUAL`` entrywise, as
    the empty C of every one-sided record is, makes a product, decided by
    its one component (a, b) or not at all.  Otherwise ||C||_KF <= (R_N -
    |a|)(R_M - |b|), within the slack of :func:`~sephorn.decompose.kyfan_room`,
    builds the decomposition by :func:`~sephorn.decompose.kyfan_bound_decomposition`,
    with no filtering and so no pull-back, from the first split of C whose
    weights fit: its columns or rows (:func:`~sephorn.decompose.line_split`),
    then its SVD.  The norms ask first, from ||C||_F <= L <= ||C||_KF <= W
    <= sqrt(k) ||C||_F, k = min(C.shape), L Holder's bound
    (:func:`~sephorn.decompose.kyfan_floor`) and W the line split's weight
    sum: ||C||_F beyond the room rejects most states, and L beyond it by
    more than its rounding, ``HOLDER_ROUNDING``, most of the rest, with no
    split and no SVD; L is skipped when sqrt(k) ||C||_F fits.  A state
    left open is built from its line split when W fits, with no
    factorisation, and takes the SVD only when W misses.  A state it
    rejects logs nothing and goes on to the filter."""
    d = call.d
    c = d.corr - np.outer(d.a, d.b)
    if np.abs(c).max(initial=0.0) <= RESIDUAL:
        return _trivial_factor(call) or Status.INCONCLUSIVE
    bound, slack, _, _ = kyfan_room(d.dim_a, d.dim_b, d.a, d.b)
    fro = sqrt(np.vdot(c, c))
    if fro - bound > slack:
        return None
    if (sqrt(min(c.shape)) * fro - bound > slack
            and kyfan_floor(c, fro) * (1.0 - HOLDER_ROUNDING) - bound > slack):
        return None
    split = line_split(c)
    if split[1].sum() - bound > slack:
        split = linalg.svd(c)
    try:
        built = kyfan_bound_decomposition(split, d.dim_a, d.dim_b, (d.a, d.b))
    except BoundExceeded:
        return None
    return call.verified(built, "kyfan-sufficient")


def _filter(call: _Call) -> Status | None:
    """Filter to normal form, which becomes the record ``d``, keeping the
    forward filters when a sweep ran.  When the record's marginal Bloch
    norms stay at ``RESIDUAL`` or above, normal form is reached only in the
    limit: the necessary norm bound, which holds for every separable state,
    is applied to the unfiltered correlation, and the pass ends there."""
    nf = normal_form(call.d, max_iter=call.max_iter, tol=NORMAL_TOL, rank_tol=call.tol)
    marg = _marginal_norm(nf.state)
    if marg >= RESIDUAL:
        call.log.append(CriterionResult("normal-form", False, marg,
                                        f"not converged in {nf.iterations} sweeps"))
        return _kyfan_necessary(call) or Status.INCONCLUSIVE
    if not nf.converged:
        call.log.append(CriterionResult("normal-form", True, marg,
                                        f"not converged in {nf.iterations} sweeps; record within "
                                        f"{RESIDUAL:.1e} used"))
    if nf.iterations:
        call.filters = nf.filter_a, nf.filter_b
    call.d = nf.state
    return None


def _kyfan_necessary(call: _Call) -> Status | None:
    """The necessary norm bound on ``d``: the normal form once filtering
    has reached it, the unfiltered record when filtering failed."""
    check = kyfan_necessary_check(call.d)
    call.log.append(check)
    return None if check.passed else Status.ENTANGLED


def _kyfan_sufficient(call: _Call) -> Verdict | None:
    """The constructive bound on the filtered record ``d``, whose marginals
    are zero.  Its refusal is read off the singular values alone, by the
    test :func:`~sephorn.decompose.kyfan_bound_decomposition` applies.  A
    correlation that fits is split along its columns or rows
    (:func:`~sephorn.decompose.line_split`), and only one whose split
    misses the bound takes the singular vectors, ``d.corr_svd``, whose
    values fit."""
    d = call.d
    taus = d.corr_singular_values
    try:
        kyfan_fit(taus, d.dim_a, d.dim_b, np.zeros(d.a.size), np.zeros(d.b.size))
    except BoundExceeded as exc:
        call.log.append(CriterionResult("kyfan-sufficient", False, exc.excess, str(exc)))
        return None
    try:
        built = kyfan_bound_decomposition(line_split(d.corr), d.dim_a, d.dim_b)
    except BoundExceeded:
        u, _, vh = d.corr_svd
        built = kyfan_bound_decomposition((u, taus, vh), d.dim_a, d.dim_b)
    return call.verified(built, "kyfan-sufficient")


def _family(call: _Call) -> Verdict | None:
    """Werner and isotropic states in any local frame, from the singular
    values of the filtered record ``d`` and no singular vectors.

    Filtering takes every local-filter image of a Werner or isotropic state
    to a local-unitary image, whose correlation is c O with O orthogonal:
    Ad(W) for Werner, Ad(W) Flip for isotropic.  So all singular values of
    the filtered correlation C are equal; when they spread by more than
    ``RESIDUAL`` no rotated family reproduces it within the verification
    residual, and the stage passes with nothing logged.  Otherwise C =
    tau_1 O + E with E within the spread, and the canonical Werner
    decomposition of c = +-tau_1 has its A side rotated by +-O, O the polar
    factor of C (:func:`_polar`).  c = -tau_1 is taken while its Werner
    parameter is separable: that A side lies in the inscribed ball, where
    every rotation stays physical.  The result reaches the input and is
    verified like every other decomposition, which has the last word.
    """
    d = call.d
    taus = d.corr_singular_values
    n = d.dim_a
    if n != d.dim_b or taus[0] - taus[-1] > RESIDUAL:
        return None
    # round-off puts a recovered phi just outside [0, 1] at either end (phi =
    # 1 + 5e-12 on a filtered 3x3 Werner state, -1e-16 on a rotated phi = 0
    # one), so phi is clamped; the Ky Fan necessary check bounds the excess
    # above 1, and verification has the last word
    sign = -1.0 if werner_parameter(n, -taus[0]) >= -RESIDUAL else 1.0
    phi = min(max(werner_parameter(n, sign * taus[0]), 0.0), 1.0)
    try:
        built = werner_decompose(n, phi)
    except SepHornError as exc:
        call.log.append(CriterionResult("family", False, 0.0, str(exc)))
        return None
    rotation = sign * _polar(d.corr, taus)
    return call.verified(SeparableDecomposition(probs=built.probs,
                                                r_vectors=built.r_vectors @ rotation.T,
                                                s_vectors=built.s_vectors), "family")


def _polar(c: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The polar factor O of a square C with singular values ``taus``,
    descending, by at most two Newton-Schulz steps O <- O (3I - O^T O)/2
    from C/tau_1; I for a zero C.

    A step takes each singular value s of O to s (3 - s^2)/2, which maps
    [0, 1] into itself, increasing, so no step can overflow, and takes the
    gap 1 - s of the smallest one to g^2 (3 - g)/2.  That gap, 1 -
    tau_k/tau_1 at the start, is followed exactly, and a step is taken only
    while it exceeds eps: none for a flat spectrum, and one for a spread of
    1e-9 relative.  A gap still open after two steps leaves O short of
    orthogonal, which verification reads."""
    top = float(taus[0])
    if not top > 0.0:
        return np.eye(c.shape[0])
    o = c / top
    gap = 1.0 - float(taus[-1]) / top
    for _ in range(2):
        if gap <= _EPS:
            break
        o = 1.5 * o - 0.5 * (o @ (o.T @ o))
        gap = gap * gap * (1.5 - 0.5 * gap)
    return o


# The battery, in order, for a 2 x 2 record and any other, each with full
# local ranks (README, "Pipeline")
_TWO_QUBIT = (_wootters,)
_FULL_RANK = (_kyfan_unfiltered, _filter, _kyfan_necessary, _family, _kyfan_sufficient)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def analyze(rho: np.ndarray, dim_a: int, dim_b: int, *, tol: float = POSITIVITY_TOL,
            max_iter: int = MAX_ITER) -> Verdict:
    """Full separability pipeline for a density matrix, in one pass.

    After validation, partial transposition is tested once, on the input:
    an NPT state is ENTANGLED with the failed ``ppt`` criterion.  While a
    marginal is rank-deficient, the record logs ``support-projection`` and
    is projected onto its local supports, which only compresses the partial
    transpose; a rank-one marginal ends the pass instead with the
    ``trivial-factor`` decomposition of the record, whose unprojected
    marginals keep the weight the support drops.  The full-rank record
    runs one stage tuple, and so does, unprojected, a 2 x 2 record whose
    trivial factor fails verification.

    At 2 x 2 it is ``_TWO_QUBIT``, the exact decision, without filtering,
    since PPT is necessary and sufficient there (Horodecki,
    quant-ph/9605038).  A PPT state logs ``concurrence`` (margin lam_1 -
    lam_2 - lam_3 - lam_4, passing up to ``KYFAN_SLACK``) and then
    ``decomposition[wootters]``, Wootters' four pure product components,
    verified; if either fails the verdict is INCONCLUSIVE.  At a 2 x 2
    input PPT is decided at rounding, so a failed concurrence is left only
    to states within rounding of the PPT boundary and to 2 x 2 supports of
    larger inputs, whose PPT is certified at ``tol``.

    Any other record runs ``_FULL_RANK``: a product of its marginals, with
    correlation a b^T within ``RESIDUAL`` entrywise, ends with its
    ``trivial-factor`` decomposition and no filter; then the constructive
    bound on the unfiltered record shifted by its marginals, which logs
    nothing unless it decides; normal-form filtering; the necessary norm
    bound; the closed-form Werner and isotropic decompositions in any
    local frame, asked before any Ky Fan pair is built and logging nothing
    when the filtered singular values spread; and the constructive bound
    on the filtered record, whose failure logs how far the Ky Fan norm
    exceeds it.  When filtering leaves a
    marginal Bloch norm at ``RESIDUAL`` or above, the failed
    ``normal-form`` criterion is logged and the pass ends with the
    necessary bound on the unfiltered correlation.  Each decomposition is
    carried by the support isometries times the inverse filters to the
    input and verified there once, as ``decomposition[<construction>]``.

    The matrix questions come first, asked of the validated matrix before
    any Bloch record is built: positivity, as :func:`require_psd` asks it
    (at 2 x 2 from the eigendecomposition that Wootters' frame reuses), then
    the ``ppt`` criterion, as :func:`ppt_check` asks it: above 2 x 2 a
    Cholesky factor of the partial transpose plus ``tol`` I passes it with
    margin 0, and only a failed factor takes the eigenvalues, so every NPT
    verdict logs the lowest one.  An NPT state is ENTANGLED there, with no
    record.  Only a PPT state gets its record, moments and realigned
    matrix, seeded with the matrix and, at 2 x 2, with that
    eigendecomposition.  ``tol`` is the psd threshold of rho and, above
    2 x 2, of its partial transpose, and the local-rank cutoff; Hermiticity
    and unit trace are validated to ``max(STATE_TOL, tol)``, and a 2 x 2 rho
    is replaced by its Hermitian part.  ``max_iter`` bounds the filtering
    sweeps.  A ``tol`` that is not finite and >= 0, or a ``max_iter`` that
    is not an integer >= 0, raises :class:`BadParameter`; a marginal with
    no eigenvalue above ``tol`` raises :class:`NotFullRank`.
    """
    check_tol(tol)
    check_max_iter(max_iter)
    rho = _validated(rho, dim_a, dim_b, max(STATE_TOL, tol))
    spectrum = linalg.eigh(rho) if (dim_a, dim_b) == (2, 2) else None
    _require_psd(rho, tol, spectrum)
    ppt = _ppt(rho, dim_a, dim_b, tol, spectrum)
    if not ppt.passed:
        return Verdict(status=Status.ENTANGLED, criteria=(ppt,))
    call = _Call(_record(rho, dim_a, dim_b, spectrum), tol, max_iter, [ppt])
    while (ranks := local_ranks(call.d, tol=tol)) != (call.d.dim_a, call.d.dim_b):
        if 0 in ranks:
            raise NotFullRank(f"marginal {'AB'[ranks.index(0)]} has no eigenvalue "
                              f"above tol = {tol:g}")
        call.log.append(CriterionResult("support-projection", True, 0.0,
                                        f"reduced {call.d.dim_a}x{call.d.dim_b} -> "
                                        f"{ranks[0]}x{ranks[1]}"))
        if 1 in ranks:
            # the unprojected marginals keep a weight below tol that the
            # support drops; a 2 x 2 record they miss goes on to Wootters
            two_qubit = (call.d.dim_a, call.d.dim_b) == (2, 2)
            return call.run((_trivial_factor, *_TWO_QUBIT) if two_qubit else (_trivial_factor,))
        va, vb = support_isometries(call.d, tol=tol)
        call.lift = (va, vb) if call.lift is None else (call.lift[0] @ va, call.lift[1] @ vb)
        call.d = _filtered(call.d, va.conj().T, vb.conj().T)
    return call.run(_TWO_QUBIT if ranks == (2, 2) else _FULL_RANK)


def require_psd(d: BipartiteDecomposed, tol: float = POSITIVITY_TOL) -> None:
    """Raise :class:`NotPSD` unless every eigenvalue of ``d.matrix`` is at
    least -``tol``.  At 2 x 2 the lowest eigenvalue is read from the
    memoized spectrum, which Wootters' frame reuses; above 2 x 2
    :func:`~sephorn.linalg.certify_psd` factorises, and eigensolves only
    when that fails, so that the error reports the exact lowest eigenvalue.
    ``tol`` is checked as in :func:`analyze`, which asks the same question
    of the validated matrix before any record exists."""
    check_tol(tol)
    _require_psd(d.matrix, tol, d.spectrum if (d.dim_a, d.dim_b) == (2, 2) else None)


def _require_psd(rho: np.ndarray, tol: float,
                 spectrum: tuple[np.ndarray, np.ndarray] | None) -> None:
    """:func:`require_psd` of a validated matrix, whose eigendecomposition
    ``spectrum`` is given at 2 x 2 and None above."""
    low = certify_psd(rho, tol) if spectrum is None else float(spectrum[0][0])
    if low is not None and not low >= -tol:
        raise NotPSD(f"input has minimum eigenvalue {low:.3e}")
