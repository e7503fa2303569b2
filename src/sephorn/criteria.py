"""Separability decision battery.

Combines the necessary checks (norm bound on the correlation matrix,
positivity under partial transposition), the constructive sufficient check,
the exact two-qubit decision and the closed-form Werner and isotropic
decompositions, recognised in any local frame, into a single pipeline with
three honest outcomes: ``SEPARABLE`` (always carrying a verified
decomposition), ``ENTANGLED`` (always carrying a violated necessary
criterion) and ``INCONCLUSIVE``.
Two-qubit states are decided by partial transposition and Wootters'
closed-form product decomposition, without filtering; larger states are
filtered to normal form before the norm bounds and family decompositions.

The criteria read the spectral results a :class:`BipartiteDecomposed`
record computes once: partial transposition takes the eigenvalues of the
matrix-level partial transpose of ``d.matrix``, and the two Ky Fan checks,
the constructive decomposition, the family recogniser and the excess logged
on inconclusive verdicts all read the one singular value decomposition
``d.corr_svd``.  Where only a positivity threshold is tested -- the input
above 2 x 2 and the components of a decomposition -- a Cholesky
factorisation of the shifted matrix certifies it
(:func:`~sephorn.linalg.certify_psd`); eigenvalues are computed only when
that fails, so a rejection still reports the exact lowest eigenvalue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .bipartite import (
    BipartiteDecomposed,
    NormalFormResult,
    decompose_state,
    local_ranks,
    normal_form,
    partial_transpose_matrix,
    project_to_support,
    support_isometries,
)
from .bloch import from_bloch
from .config import DEFAULT, Tolerances
from .decompose import (
    SeparableDecomposition,
    embed_isometries,
    _kyfan_pairs,
    pull_back_filters,
    werner_decompose,
    wootters_decomposition,
    wootters_frame,
)
from .errors import DimensionMismatch, NotNormalForm, NotPSD, SepHornError
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
class KyFanCheck:
    passed: bool
    margin: float


@dataclass(frozen=True)
class PptCheck:
    passed: bool
    min_eigenvalue: float


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

def _require_normal_form(d: BipartiteDecomposed, tol: float) -> None:
    na = float(np.linalg.norm(d.a))
    nb = float(np.linalg.norm(d.b))
    if na > tol or nb > tol:
        raise NotNormalForm(
            f"marginal Bloch norms ({na:.2e}, {nb:.2e}) exceed {tol:.1e}"
        )


def _kyfan_necessary(d: BipartiteDecomposed, slack: float) -> KyFanCheck:
    """de Vicente's bound ||corr||_KF <= R_+(N) R_+(M), which every
    separable state satisfies, filtered or not."""
    n, m = d.dim_a, d.dim_b
    bound = np.sqrt(2.0 * (n - 1.0) / n) * np.sqrt(2.0 * (m - 1.0) / m)
    margin = float(d.corr_svd[1].sum() - bound)
    return KyFanCheck(passed=margin <= slack, margin=margin)


def kyfan_necessary_check(d: BipartiteDecomposed, *, slack: float = 1e-9,
                          nf_tol: float = 1e-8) -> KyFanCheck:
    """Necessary norm bound for normal-form states.

    Separability forces ||corr||_KF^2 <= (2(N-1)/N)(2(M-1)/M); the margin is
    the Ky Fan norm minus the bound's square root, so a positive margin
    beyond ``slack`` certifies entanglement.  The norm is read from
    ``d.corr_svd``.
    """
    _require_normal_form(d, nf_tol)
    return _kyfan_necessary(d, slack)


def sufficient_bound(dim_a: int, dim_b: int) -> float:
    """Constructive sufficient Ky Fan bound 2/sqrt(NM(N-1)(M-1))."""
    return 2.0 / np.sqrt(dim_a * dim_b * (dim_a - 1.0) * (dim_b - 1.0))


def kyfan_sufficient_check(d: BipartiteDecomposed, *, slack: float = 1e-9,
                           nf_tol: float = 1e-8) -> Verdict:
    """Constructive sufficient check for normal-form states.

    Below the bound the explicit decomposition is built and attached;
    otherwise the verdict is inconclusive.  The norm and the decomposition
    both come from ``d.corr_svd``.
    """
    _require_normal_form(d, nf_tol)
    u, taus, vh = d.corr_svd
    if taus.sum() > sufficient_bound(d.dim_a, d.dim_b) + slack:
        return Verdict(status=Status.INCONCLUSIVE)
    dec = _kyfan_pairs(u, taus, vh, d.dim_a, d.dim_b, slack=slack)
    return Verdict(status=Status.SEPARABLE, decomposition=dec)


def ppt_check(d: BipartiteDecomposed, *, tol: float = 1e-9) -> PptCheck:
    """Positivity of the partially transposed state; failure certifies
    entanglement.  One eigenvalue solve of the matrix-level partial
    transpose of ``d.matrix``."""
    rho_pt = partial_transpose_matrix(d.matrix, d.dim_a, d.dim_b)
    low = float(np.linalg.eigvalsh(rho_pt)[0])
    return PptCheck(passed=low >= -tol, min_eigenvalue=low)


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


def verify_decomposition(dec: SeparableDecomposition, d: BipartiteDecomposed,
                         *, cfg: Tolerances = DEFAULT) -> VerificationReport:
    """Check a decomposition against a state: probability simplex, the three
    moment equations, and physicality of every component.

    Malformed input -- mis-shaped vectors, or non-finite entries, which
    reach the probability sum or a moment residual and are then named by a
    scan -- is reported as invalid before any certificate is computed.
    Physicality takes one Cholesky certificate per side
    (:func:`~sephorn.linalg.certify_psd` on the stack of component
    matrices); only a side that fails it is eigensolved, and the first
    component below ``-cfg.component_psd`` is named with its lowest
    eigenvalue.
    """
    probs = np.asarray(dec.probs, dtype=float)
    if probs.size == 0:
        return VerificationReport(valid=False, max_residual=np.inf, detail="empty")
    malformed = _misshapen(probs, dec, d)
    if not malformed:
        sum_dev = abs(probs.sum() - 1.0)
        # an infinite entry times a zero weight is NaN, named below
        with np.errstate(invalid="ignore", over="ignore"):
            res_a = float(np.abs(dec.marginal_a - d.a).max()) if d.a.size else 0.0
            res_b = float(np.abs(dec.marginal_b - d.b).max()) if d.b.size else 0.0
            res_t = float(np.abs(dec.correlation - d.corr).max()) if d.corr.size else 0.0
        # summed, not maximised: max(1.0, nan) is 1.0
        if not isfinite(sum_dev + res_a + res_b + res_t):
            malformed = _first_non_finite(probs, dec)
    if malformed:
        return VerificationReport(valid=False, max_residual=np.inf, detail=malformed)
    problems = []
    if probs.min() <= 0.0:
        problems.append(f"nonpositive probability {probs.min():.3e}")
    if sum_dev > cfg.prob_sum:
        problems.append(f"probabilities sum off by {sum_dev:.3e}")
    max_residual = max(res_a, res_b, res_t)
    if max_residual > cfg.residual:
        problems.append(f"moment residual {max_residual:.3e}")
    for label, vecs in (("A", dec.r_vectors), ("B", dec.s_vectors)):
        low = certify_psd(from_bloch(vecs), cfg.component_psd)
        if low is None:
            continue
        bad = np.flatnonzero(~(low >= -cfg.component_psd))
        if bad.size:
            problems.append(f"component {bad[0]} on side {label} unphysical "
                            f"(min eigenvalue {low[bad[0]]:.3e})")
    return VerificationReport(valid=not problems, max_residual=max_residual,
                              detail="; ".join(problems))


# ---------------------------------------------------------------------------
# exact two-qubit decision
# ---------------------------------------------------------------------------

def two_qubit_decide(d: BipartiteDecomposed, *, cfg: Tolerances = DEFAULT) -> Verdict:
    """Exact separability decision for 2 x 2 states, without filtering.

    PPT is necessary and sufficient here (Horodecki, quant-ph/9605038): an
    NPT state is ENTANGLED with the failed ``ppt`` criterion.  A PPT state
    logs ``concurrence`` (margin lam_1 - lam_2 - lam_3 - lam_4, passing up
    to ``cfg.kyfan_slack``) and then ``decomposition[wootters]``, Wootters'
    four pure product components, verified; if either fails the verdict is
    INCONCLUSIVE.  A state that passes PPT only within the tolerance, with
    its lowest partial-transpose eigenvalue in [-``cfg.psd``, 0), and fails
    the concurrence check lies in a band PPT cannot resolve at that
    tolerance; its verdict also logs the failed ``ppt-tolerance-band``
    criterion, whose margin is minus that eigenvalue.
    """
    if (d.dim_a, d.dim_b) != (2, 2):
        raise DimensionMismatch(f"two_qubit_decide needs 2 x 2, got {d.dim_a} x {d.dim_b}")
    ppt = ppt_check(d, tol=cfg.psd)
    log = [CriterionResult("ppt", ppt.passed, max(0.0, -ppt.min_eigenvalue),
                           f"min eigenvalue {ppt.min_eigenvalue:.3e}")]
    if not ppt.passed:
        return Verdict(status=Status.ENTANGLED, criteria=tuple(log))
    frame = wootters_frame(d)
    margin = frame.concurrence_margin
    log.append(CriterionResult("concurrence", margin <= cfg.kyfan_slack, margin,
                               "Wootters values " + ", ".join(f"{v:.6g}" for v in frame.lam)))
    if margin <= cfg.kyfan_slack:
        verdict = _verified(wootters_decomposition(d, frame), d, log, cfg, "wootters")
        if verdict is not None:
            return verdict
    elif ppt.min_eigenvalue < 0.0:
        log.append(CriterionResult(
            "ppt-tolerance-band", False, -ppt.min_eigenvalue,
            f"lowest partial-transpose eigenvalue {ppt.min_eigenvalue:.3e} lies inside "
            f"the PPT tolerance band [-{cfg.psd:.1e}, 0), where PPT cannot "
            f"resolve the positive concurrence {margin:.3e}"))
    return Verdict(status=Status.INCONCLUSIVE, criteria=tuple(log))


# ---------------------------------------------------------------------------
# Werner and isotropic families in any local frame
# ---------------------------------------------------------------------------

def _family_verdict(d: BipartiteDecomposed, nf: NormalFormResult,
                    log: list[CriterionResult], cfg: Tolerances,
                    seed: int) -> Verdict | None:
    """Werner and isotropic states in any local frame, from the stored SVD.

    Filtering takes every local-filter image of a Werner or isotropic state
    to a local-unitary image, whose correlation is c O with O orthogonal:
    Ad(W) for Werner, Ad(W) Flip for isotropic.  So all singular values of
    the filtered correlation U diag(tau) V^T are equal; when they spread
    by more than ``cfg.residual`` no rotated family reproduces it within
    the verification residual, and None is returned with nothing logged.
    Otherwise O = U V^T, and the canonical Werner decomposition of c = +-tau_1
    has its A side rotated by +-O.  c = -tau_1 is taken while its Werner
    parameter is separable: that A side lies in the inscribed ball, where
    every rotation stays physical.  The filters are pulled back and the
    result is verified like every other decomposition.
    """
    u, taus, vh = nf.state.corr_svd
    if d.dim_a != d.dim_b or taus[0] - taus[-1] > cfg.residual:
        return None
    n = d.dim_a
    # round-off puts a recovered phi just outside [0, 1] at either end (phi =
    # 1 + 5e-12 on a filtered 3x3 Werner state, -1e-16 on a rotated phi = 0
    # one), so phi is clamped; the Ky Fan necessary check bounds the excess
    # above 1, and verification has the last word
    sign = -1.0 if werner_parameter(n, -taus[0]) >= -cfg.residual else 1.0
    phi = min(max(werner_parameter(n, sign * taus[0]), 0.0), 1.0)
    try:
        built = werner_decompose(n, phi, seed)
    except SepHornError as exc:
        log.append(CriterionResult("family", False, 0.0, str(exc)))
        return None
    rotated = SeparableDecomposition(probs=built.probs,
                                     r_vectors=built.r_vectors @ (sign * u @ vh).T,
                                     s_vectors=built.s_vectors)
    dec = pull_back_filters(rotated, nf.filter_a, nf.filter_b, d.dim_a, d.dim_b)
    return _verified(dec, d, log, cfg, "family")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _trivial_factor_decomposition(d: BipartiteDecomposed) -> SeparableDecomposition:
    return SeparableDecomposition(probs=np.array([1.0]),
                                  r_vectors=d.a.reshape(1, -1).copy(),
                                  s_vectors=d.b.reshape(1, -1).copy())


def _verified(status_dec: SeparableDecomposition, d: BipartiteDecomposed,
              log: list[CriterionResult], cfg: Tolerances,
              source: str) -> Verdict | None:
    """Package a separable verdict, or None when verification fails."""
    report = verify_decomposition(status_dec, d, cfg=cfg)
    log.append(CriterionResult(f"decomposition[{source}]", report.valid,
                               report.max_residual, report.detail))
    if not report.valid:
        return None
    return Verdict(status=Status.SEPARABLE, decomposition=status_dec,
                   criteria=tuple(log))


def analyze(rho: np.ndarray, dim_a: int, dim_b: int, *,
            cfg: Tolerances = DEFAULT, seed: int = 0) -> Verdict:
    """Full separability pipeline for a density matrix.

    Stages: validation, support projection (with a shortcut for trivial
    rank-one factors), then the criteria battery -- exact decision for two
    qubits; otherwise partial transposition, normal-form filtering, the
    necessary norm bound, the constructive sufficient bound, and the
    closed-form Werner and isotropic decompositions, which recognise either
    family in any local frame by the equal singular values of its filtered
    correlation.  Separable verdicts are re-verified before being
    returned.  An inconclusive verdict on a filtered state logs the failed
    ``kyfan-sufficient`` criterion, whose margin is how far the filtered
    Ky Fan norm exceeds the constructive bound; when filtering does not
    converge, the necessary norm bound is applied to the unfiltered
    correlation instead, and a violation is ENTANGLED.

    The input is validated once, and each spectral quantity is computed
    once: one eigendecomposition per marginal, the eigenvalues of the
    partial transpose and one singular value decomposition of the filtered
    correlation.  Positivity of rho is read at 2 x 2 from its
    eigendecomposition, which also gives Wootters' frame; above 2 x 2 it is
    certified by a Cholesky factorisation of rho + ``cfg.psd`` I, and the
    eigenvalues of rho are computed only when that fails, so that
    :class:`NotPSD` reports the exact lowest eigenvalue.
    """
    d = decompose_state(rho, dim_a, dim_b, tol=cfg.state)
    if (dim_a, dim_b) == (2, 2):
        low = float(d.spectrum[0][0])
    else:
        low = certify_psd(d.matrix, cfg.psd)
    if low is not None and not low >= -cfg.psd:
        raise NotPSD(f"input has minimum eigenvalue {low:.3e}")
    return _analyze_decomposed(d, cfg=cfg, seed=seed)


def _analyze_decomposed(d: BipartiteDecomposed, *, cfg: Tolerances,
                        seed: int) -> Verdict:
    log: list[CriterionResult] = []
    n_rank, m_rank = local_ranks(d, tol=cfg.rank)

    if n_rank < d.dim_a or m_rank < d.dim_b:
        iso_a, iso_b = support_isometries(d, tol=cfg.rank)
        reduced = project_to_support(d, tol=cfg.rank)
        log.append(CriterionResult(
            "support-projection", True, 0.0,
            f"reduced {d.dim_a}x{d.dim_b} -> {n_rank}x{m_rank}"))
        if n_rank == 1 or m_rank == 1:
            dec = embed_isometries(_trivial_factor_decomposition(reduced),
                                   iso_a, iso_b)
            verdict = _verified(dec, d, log, cfg, "trivial-factor")
            if verdict is not None:
                return verdict
            return Verdict(status=Status.INCONCLUSIVE, criteria=tuple(log))
        sub = _analyze_decomposed(reduced, cfg=cfg, seed=seed)
        log.extend(sub.criteria)
        if sub.status is Status.SEPARABLE and sub.decomposition is not None:
            dec = embed_isometries(sub.decomposition, iso_a, iso_b)
            verdict = _verified(dec, d, log, cfg, "embedded")
            if verdict is not None:
                return verdict
            return Verdict(status=Status.INCONCLUSIVE, criteria=tuple(log))
        return Verdict(status=sub.status, criteria=tuple(log))

    if (d.dim_a, d.dim_b) == (2, 2):
        return two_qubit_decide(d, cfg=cfg)

    ppt = ppt_check(d, tol=cfg.psd)
    log.append(CriterionResult("ppt", ppt.passed, max(0.0, -ppt.min_eigenvalue),
                               f"min eigenvalue {ppt.min_eigenvalue:.3e}"))
    if not ppt.passed:
        return Verdict(status=Status.ENTANGLED, criteria=tuple(log))

    nf = normal_form(d, max_iter=cfg.normal_max_iter, tol=cfg.normal_tol,
                     rank_tol=cfg.rank)
    marg = float(max(np.linalg.norm(nf.state.a), np.linalg.norm(nf.state.b)))
    if marg >= 1e-8:
        # Normal form reached only in the limit: the norm bound still holds
        # for every separable state, so apply it to the unfiltered correlation
        log.append(CriterionResult("normal-form", False, marg,
                                   f"not converged in {nf.iterations} sweeps"))
        nk = _kyfan_necessary(d, cfg.kyfan_slack)
        log.append(CriterionResult("kyfan-necessary", nk.passed, nk.margin,
                                   "norm bound on the unfiltered correlation"))
        status = Status.INCONCLUSIVE if nk.passed else Status.ENTANGLED
        return Verdict(status=status, criteria=tuple(log))

    tilde = nf.state
    nk = kyfan_necessary_check(tilde, slack=cfg.kyfan_slack)
    log.append(CriterionResult("kyfan-necessary", nk.passed, nk.margin,
                               "norm bound on the filtered correlation"))
    if not nk.passed:
        return Verdict(status=Status.ENTANGLED, criteria=tuple(log))

    sk = kyfan_sufficient_check(tilde, slack=cfg.kyfan_slack)
    if sk.status is Status.SEPARABLE and sk.decomposition is not None:
        dec = pull_back_filters(sk.decomposition, nf.filter_a, nf.filter_b,
                                d.dim_a, d.dim_b)
        verdict = _verified(dec, d, log, cfg, "kyfan-sufficient")
        if verdict is not None:
            return verdict
    else:
        bound = sufficient_bound(d.dim_a, d.dim_b)
        excess = float(tilde.corr_svd[1].sum() - bound)
        log.append(CriterionResult("kyfan-sufficient", False, excess,
                                   f"filtered Ky Fan norm exceeds the constructive "
                                   f"bound {bound:.6g}"))

    verdict = _family_verdict(d, nf, log, cfg, seed)
    if verdict is not None:
        return verdict
    return Verdict(status=Status.INCONCLUSIVE, criteria=tuple(log))
