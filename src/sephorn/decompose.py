"""Constructive separable decompositions.

Builds explicit convex decompositions ``rho = sum_i p_i rho_i^A x rho_i^B``
in Bloch form: the factor-pair scaffolding for a general correlation matrix,
the fixed-point construction that succeeds whenever the Ky Fan norm fits the
inscribed-ball budget, the pure-state simplex built from a Weyl-Heisenberg
SIC, the closed-form Werner / isotropic decompositions and Wootters'
four-component product decomposition of two-qubit states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares, minimize

from .bipartite import BipartiteDecomposed, compose_state
from .bloch import from_bloch, to_bloch, transpose_flip
from .errors import (
    BoundExceeded,
    DimensionMismatch,
    FactorConstraintViolated,
    FixedPointDiverged,
    OutOfPositivityRange,
    SearchFailed,
)
from .linalg import svd
from .states import werner_coefficient
from .su import generator_basis


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
    def marginal_a(self) -> np.ndarray:
        return self.probs @ self.r_vectors

    @property
    def marginal_b(self) -> np.ndarray:
        return self.probs @ self.s_vectors

    @property
    def correlation(self) -> np.ndarray:
        return (self.r_vectors * self.probs[:, None]).T @ self.s_vectors


class DecompositionOutcome(enum.Enum):
    """Non-constructive outcomes of the closed-form decomposition routines."""

    ENTANGLED = "entangled"
    NOT_DECOMPOSED_HERE = "not-decomposed-here"


ENTANGLED = DecompositionOutcome.ENTANGLED
NOT_DECOMPOSED_HERE = DecompositionOutcome.NOT_DECOMPOSED_HERE


# ---------------------------------------------------------------------------
# factorization frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationFrame:
    """Singular frame of a correlation matrix, padded to L columns.

    ``corr = left_basis @ diag(taus) @ right_basis.T``; columns beyond the
    available singular vectors are zero (their singular values vanish), which
    lets L exceed the ambient Bloch dimensions.
    """

    left_basis: np.ndarray    # (Ka, L)
    right_basis: np.ndarray   # (Kb, L)
    taus: np.ndarray          # (L,), descending, zero-padded

    @property
    def size(self) -> int:
        return len(self.taus)

    @property
    def rank(self) -> int:
        if len(self.taus) == 0 or self.taus[0] <= 0.0:
            return 0
        return int(np.sum(self.taus > 1e-12 * self.taus[0]))


def factorization_frame(corr: np.ndarray, size: int | None = None) -> FactorizationFrame:
    """SVD frame of ``corr`` with ``size`` columns (default rank + 1)."""
    corr = np.asarray(corr, dtype=float)
    ka, kb = corr.shape
    fac = svd(corr)
    rank = int(np.sum(fac.singulars > 1e-12 * fac.singulars[0])) if fac.singulars.size else 0
    length = rank + 1 if size is None else size
    if length < rank:
        raise DimensionMismatch(f"size {length} below rank {rank}")
    left = np.zeros((ka, length))
    right = np.zeros((kb, length))
    taus = np.zeros(length)
    avail_l = min(length, ka)
    avail_r = min(length, kb)
    left[:, :avail_l] = fac.left[:, :avail_l]
    right[:, :avail_r] = fac.right[:, :avail_r]
    taus[:min(length, len(fac.singulars))] = fac.singulars[:min(length, len(fac.singulars))]
    return FactorizationFrame(left_basis=left, right_basis=right, taus=taus)


def assemble_factor_pair(frame: FactorizationFrame, x, y, q1, q2, alpha, beta,
                         *, tol: float = 1e-8):
    """Assemble the two factor matrices from rotations and singular values.

    Requires the diagonal constraint
    ``x @ diag(alpha) @ q1 @ q2.T @ diag(beta) @ y.T == diag(taus)``;
    the returned pair ``(m_rp, m_sp)`` then reconstructs the correlation
    matrix as ``m_rp @ m_sp.T``.
    """
    x, y, q1, q2 = (np.asarray(m, dtype=float) for m in (x, y, q1, q2))
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    length = frame.size
    for name, m in (("x", x), ("y", y), ("q1", q1), ("q2", q2)):
        if m.shape != (length, length):
            raise DimensionMismatch(f"{name} must be {length} x {length}, got {m.shape}")
    middle = (x * alpha) @ q1 @ q2.T @ (np.diag(beta) @ y.T)
    target = np.diag(frame.taus)
    scale = max(1.0, float(np.abs(target).max()))
    residual = float(np.abs(middle - target).max())
    if residual > tol * scale:
        got = np.linalg.svd(middle, compute_uv=False)
        mismatch = float(np.abs(got - frame.taus).max())
        raise FactorConstraintViolated(
            f"constraint residual {residual:.3e} (singular-value mismatch {mismatch:.3e})"
        )
    m_rp = frame.left_basis @ (x * alpha) @ q1
    m_sp = frame.right_basis @ (y * beta) @ q2
    return m_rp, m_sp


# ---------------------------------------------------------------------------
# fixed-point construction within the Ky Fan budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexFrame:
    """Rotation with prescribed last row sqrt(p) plus factor singular values.

    Intermediate of :func:`kyfan_bound_decomposition`: ``q`` is orthogonal
    with determinant +1 and last row ``sqrt(probs)``; ``alpha`` and ``beta``
    are the factor singular values attached to its leading rows.
    """

    q: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    probs: np.ndarray


def _reflector_rotation(p: np.ndarray) -> np.ndarray:
    """Rotation with determinant +1 whose last row is sqrt(p).

    The Householder reflector H = I - 2 v v^T / v^T v with v = e_K - sqrt(p)
    maps e_K to sqrt(p); it is symmetric, so its last row is sqrt(p) too.
    Negating row 0 turns the reflection into a rotation.  v_K is formed as
    (1 - p_K) / (1 + sqrt(p_K)), which avoids the cancellation in
    1 - sqrt(p_K) when p is close to e_K, and v = 0 gives the identity.
    """
    v = -np.sqrt(p)
    v[-1] = p[:-1].sum() / (1.0 + np.sqrt(p[-1]))
    norm2 = float(v @ v)
    q = np.eye(len(p))
    if norm2 == 0.0:
        return q
    q -= (2.0 / norm2) * np.outer(v, v)
    q[0] = -q[0]
    return q


def _probability_rotation(kappa: np.ndarray, *, tol: float = 1e-12,
                          rel_tol: float = 1e-10, max_iter: int = 10_000):
    """Self-consistent rotation: last row sqrt(p), p_j = sum_i kappa_i Q_ij^2 / K.

    Damped fixed-point iteration from the uniform distribution; the rotation
    is rebuilt by a Householder reflector from sqrt(p) each sweep, so the
    emitted probabilities are the squared last row.
    """
    count = len(kappa) + 1
    total = float(kappa.sum())
    p = np.full(count, 1.0 / count)
    prev_delta = np.inf
    damping = False
    for _ in range(max_iter):
        q = _reflector_rotation(p)
        p_new = (kappa @ (q[:-1, :] ** 2)) / total
        delta = float(np.abs(p_new - p).max())
        rel = float((np.abs(p_new - p) / np.maximum(p, 1e-9)).max())
        if delta < tol and rel < rel_tol:
            return q, p
        if delta >= prev_delta:
            damping = True
        prev_delta = delta
        p = 0.5 * (p_new + p) if damping else p_new
    raise FixedPointDiverged(
        f"probability fixed point not within tolerance after {max_iter} sweeps"
    )


def simplex_frame(frame: FactorizationFrame, dim_a: int, dim_b: int,
                  *, slack: float = 1e-9) -> SimplexFrame:
    """Solve the rotation fixed point for the inscribed-ball construction.

    With kappa_i = tau_i * sqrt(N(N-1)M(M-1))/2 and K = sum kappa_i <= 1 the
    factor singular values are alpha_i = sqrt(2 kappa_i / (N(N-1))) and
    beta_i likewise with M; the rotation's last row is sqrt(p) with the
    self-consistent weights p_j = sum_i kappa_i Q_ij^2 / K.
    """
    rank = frame.rank
    if rank == 0:
        raise BoundExceeded("zero correlation needs no rotation frame")
    weight = np.sqrt(dim_a * (dim_a - 1.0) * dim_b * (dim_b - 1.0)) / 2.0
    kappa = frame.taus[:rank] * weight
    budget = float(kappa.sum())
    if budget > 1.0 + slack:
        raise BoundExceeded(
            f"scaled Ky Fan norm {budget:.12f} exceeds the constructive bound 1"
        )
    alpha = np.sqrt(2.0 * kappa / (dim_a * (dim_a - 1.0)))
    beta = np.sqrt(2.0 * kappa / (dim_b * (dim_b - 1.0)))
    q, probs = _probability_rotation(kappa)
    return SimplexFrame(q=q, alpha=alpha, beta=beta, probs=probs)


def kyfan_bound_decomposition(frame: FactorizationFrame, dim_a: int, dim_b: int,
                              *, slack: float = 1e-9) -> SeparableDecomposition:
    """Explicit decomposition when the correlation fits the inscribed ball.

    Reads the local Bloch vectors off the columns of the rotation built by
    :func:`simplex_frame`.  Every emitted vector has squared norm
    2K/(N(N-1)) (resp. M with K = sum kappa_i), inside the inscribed ball,
    hence automatically physical.
    """
    ka = frame.left_basis.shape[0]
    kb = frame.right_basis.shape[0]
    if frame.rank == 0:
        return SeparableDecomposition(probs=np.array([1.0]),
                                      r_vectors=np.zeros((1, ka)),
                                      s_vectors=np.zeros((1, kb)))
    sf = simplex_frame(frame, dim_a, dim_b, slack=slack)
    rank = frame.rank
    head = sf.q[:rank, :]
    keep = sf.probs > 1e-13
    probs_kept = sf.probs[keep] / sf.probs[keep].sum()
    r_cols = frame.left_basis[:, :rank] @ (sf.alpha[:, None] * head[:, keep])
    s_cols = frame.right_basis[:, :rank] @ (sf.beta[:, None] * head[:, keep])
    scale = 1.0 / np.sqrt(sf.probs[keep])
    return SeparableDecomposition(probs=probs_kept,
                                  r_vectors=(r_cols * scale).T,
                                  s_vectors=(s_cols * scale).T)


# ---------------------------------------------------------------------------
# pure-state simplex from a Weyl-Heisenberg SIC
# ---------------------------------------------------------------------------

SIC_ATTEMPTS = 20
SIC_RESIDUAL = 1e-12


def _displacements(dim: int) -> np.ndarray:
    """The N^2 Weyl-Heisenberg operators X^a Z^b, stacked at index a N + b."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return np.array([np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                     for a in range(dim) for b in range(dim)])


def _frame_potential(v: np.ndarray, disp: np.ndarray):
    """sum_k |<psi|D_k|psi>|^4 / <psi|psi>^4 and its gradient in (Re psi, Im psi).

    The minimum 2N/(N+1) is reached exactly by SIC fiducials.
    """
    dim = disp.shape[1]
    psi = v[:dim] + 1j * v[dim:]
    norm = float(np.vdot(psi, psi).real)
    d_psi = disp @ psi
    dag_psi = np.einsum("kji,j->ki", disp.conj(), psi)
    overlaps = d_psi @ psi.conj()
    mod2 = np.abs(overlaps) ** 2
    total = float(mod2 @ mod2)
    # Wirtinger derivative d/d(conj psi); the real gradient is twice it
    grad = 2.0 * mod2 @ (overlaps.conj()[:, None] * d_psi + overlaps[:, None] * dag_psi)
    grad = grad / norm ** 4 - 4.0 * total * psi / norm ** 5
    return total / norm ** 4, 2.0 * np.concatenate([grad.real, grad.imag])


def _overlap_residuals(v: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """|<psi|D_k|psi>|^2 - 1/(N+1) for k != 0, then <psi|psi> - 1."""
    dim = disp.shape[1]
    psi = v[:dim] + 1j * v[dim:]
    overlaps = (disp[1:] @ psi) @ psi.conj()
    return np.append(np.abs(overlaps) ** 2 - 1.0 / (dim + 1.0),
                     np.vdot(psi, psi).real - 1.0)


@lru_cache(maxsize=None)
def _sic_simplex(dim: int, seed: int) -> np.ndarray:
    disp = _displacements(dim)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(SIC_ATTEMPTS):
        start = minimize(_frame_potential, rng.normal(size=2 * dim), args=(disp,),
                         jac=True, method="L-BFGS-B",
                         options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
        polished = least_squares(_overlap_residuals, start.x / np.linalg.norm(start.x),
                                 args=(disp,), method="lm",
                                 xtol=1e-15, ftol=1e-15, gtol=1e-15)
        best = min(best, float(np.abs(polished.fun).max()))
        if best <= SIC_RESIDUAL:
            break
    else:
        raise SearchFailed(
            f"no SIC fiducial for dim {dim} in {SIC_ATTEMPTS} attempts; "
            f"best overlap residual {best:.3e}",
            residual=best,
        )
    psi = polished.x[:dim] + 1j * polished.x[dim:]
    kets = disp @ (psi / np.linalg.norm(psi))
    out = np.array([to_bloch(np.outer(ket, ket.conj())) for ket in kets])
    out.setflags(write=False)
    return out


def pure_state_simplex(dim: int, seed: int = 0) -> np.ndarray:
    """N^2 pure-state Bloch vectors forming a regular simplex.

    Rows of the returned read-only (N^2, N^2-1) array have squared norm
    2(N-1)/N and pairwise cosine -1/(N^2-1).  That is the condition
    |<psi_i|psi_j>|^2 = 1/(N+1) on the pure states, so the rows are a
    SIC-POVM.  It is built as the Weyl-Heisenberg orbit D_k|psi> of one
    fiducial psi in C^N: the frame potential sum_k |<psi|D_k|psi>|^4 is
    minimized from a point drawn with ``seed``, and the minimizer is
    polished by least squares on the overlap equations.  Each of
    ``SIC_ATTEMPTS`` draws is accepted when every overlap equation holds
    within ``SIC_RESIDUAL``; SearchFailed carries the best residual when
    none does.
    """
    return _sic_simplex(dim, int(seed))


# ---------------------------------------------------------------------------
# Werner / isotropic families
# ---------------------------------------------------------------------------

def werner_decompose(dim: int, phi: float,
                     seed: int = 0) -> SeparableDecomposition | DecompositionOutcome:
    """Closed-form decomposition of the Werner family.

    phi >= 1/N: uniform mixture of scaled pure-simplex product states
    r_i = s_i = t * v_i with t = sqrt(c N(N+1)/2) <= 1 (convex shrinkage
    toward the maximally mixed state, saturating at phi = 1).
    0 <= phi < 1/N: paired simplexes r_i = -N alpha q_i (inscribed ball),
    s_i = N beta q_i (pure), with alpha beta = |c| and beta held at the
    pure bound.  phi < 0 is entangled.  ``seed`` picks the
    :func:`pure_state_simplex` fiducial.
    """
    if not -1.0 - 1e-12 <= phi <= 1.0 + 1e-12:
        raise OutOfPositivityRange(f"Werner parameter phi={phi} outside [-1, 1]")
    if phi < 0.0:
        return ENTANGLED
    c = werner_coefficient(dim, phi)
    vertices = pure_state_simplex(dim, seed)  # (N^2, K)
    count = dim * dim
    probs = np.full(count, 1.0 / count)
    if c >= 0.0:
        t = np.sqrt(c * dim * (dim + 1.0) / 2.0)
        scaled = t * vertices
        return SeparableDecomposition(probs=probs, r_vectors=scaled.copy(),
                                      s_vectors=scaled.copy())
    beta = np.sqrt(2.0 / (dim * (dim + 1.0)))
    alpha = abs(c) / beta
    inner_cap = 2.0 / (dim * (dim - 1.0) * (dim * dim - 1.0))
    if alpha * alpha > inner_cap * (1.0 + 1e-12):
        return NOT_DECOMPOSED_HERE
    unit = vertices / np.sqrt(2.0 * dim / (dim + 1.0))  # rotation columns q_i
    return SeparableDecomposition(probs=probs,
                                  r_vectors=-dim * alpha * unit,
                                  s_vectors=dim * beta * unit)


def isotropic_threshold(dim: int) -> float:
    """Entanglement threshold 1/(N+1) of the isotropic family."""
    return 1.0 / (dim + 1.0)


def isotropic_decompose(dim: int, p: float,
                        seed: int = 0) -> SeparableDecomposition | DecompositionOutcome:
    """Decompose the isotropic family via its Werner partner.

    Maps p to the Werner parameter phi = (p (N^2-1) + 1)/N, decomposes the
    Werner state and transpose-flips every B-side vector.  p > 1/(N+1) is
    entangled; p outside the PSD range raises OutOfPositivityRange.  Both
    comparisons allow 1e-12 of round-off, so a parameter recovered from a
    state at the threshold still decomposes.
    """
    low = -1.0 / (dim * dim - 1.0)
    if not low - 1e-12 <= p <= 1.0 + 1e-12:
        raise OutOfPositivityRange(
            f"isotropic parameter p={p} outside [{low:.6f}, 1]"
        )
    if p > isotropic_threshold(dim) + 1e-12:
        return ENTANGLED
    p = min(p, isotropic_threshold(dim))
    phi = (p * (dim * dim - 1.0) + 1.0) / dim
    partner = werner_decompose(dim, phi, seed)
    if isinstance(partner, DecompositionOutcome):
        return partner
    flipped = np.array([transpose_flip(s) for s in partner.s_vectors])
    return SeparableDecomposition(probs=partner.probs,
                                  r_vectors=partner.r_vectors,
                                  s_vectors=flipped)


# ---------------------------------------------------------------------------
# two-qubit product decomposition (Wootters)
# ---------------------------------------------------------------------------

_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
_HADAMARD = 0.5 * np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])


@dataclass(frozen=True)
class WoottersFrame:
    """rho = x x^dag and x^T (sigma_y x sigma_y) x = diag(lam), zero-padded to 4."""

    x: np.ndarray     # (4, 4) complex
    lam: np.ndarray   # (4,), descending

    @property
    def concurrence_margin(self) -> float:
        """lam_1 - lam_2 - lam_3 - lam_4: the concurrence when positive."""
        return float(self.lam[0] - self.lam[1:].sum())


def wootters_frame(d: BipartiteDecomposed) -> WoottersFrame:
    """Wootters' frame of a 2 x 2 state.

    rho = V V^dag over the subnormalised eigenvectors of its positive
    eigenvalues, and tau = V^T (sigma_y x sigma_y) V is complex symmetric.
    The real symmetric embedding [[Re tau, Im tau], [Im tau, -Re tau]] has
    eigenpairs (lam, [Re u; Im u]) and (-lam, [-Im u; Re u]), so its top
    eigenvectors give the Takagi factorisation tau = U diag(lam) U^T, exact
    also for degenerate lam > 0.  The null block holds pairs u, i u; QR
    orthonormalises it as complex vectors and only flips signs elsewhere.
    """
    if (d.dim_a, d.dim_b) != (2, 2):
        raise DimensionMismatch(f"Wootters' frame needs 2 x 2, got {d.dim_a} x {d.dim_b}")
    w, vecs = np.linalg.eigh(compose_state(d))
    v = vecs[:, w > 0.0] * np.sqrt(w[w > 0.0])
    rank = v.shape[1]
    tau = v.T @ _SIGMA_YY @ v
    lam, emb = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    top = emb[:, ::-1][:, :rank]
    x = np.zeros((4, 4), dtype=complex)
    x[:, :rank] = v @ np.linalg.qr(top[:rank] + 1j * top[rank:])[0].conj()
    padded = np.zeros(4)
    padded[:rank] = np.maximum(lam[::-1][:rank], 0.0)
    return WoottersFrame(x=x, lam=padded)


def wootters_decomposition(d: BipartiteDecomposed,
                           frame: WoottersFrame | None = None) -> SeparableDecomposition:
    """At most four pure product states for a 2 x 2 state of zero concurrence.

    Wootters (quant-ph/9709029): once sum_j lam_j e^{i theta_j} = 0, every
    z_i = sum_j H_ji e^{i theta_j / 2} x_j (H the real +-1/2 Hadamard
    matrix) has z_i^T (sigma_y x sigma_y) z_i = 0, so it is a product
    vector, and z z^dag = rho.  The quadrilateral closes along the diagonal
    max(lam_1 - lam_2, lam_3 - lam_4) as two triangles; half-angle formulas
    on the semi-perimeter excesses and the angle sum keep their angles exact
    for flat triangles and a zero diagonal.  Weights are |z_i|^2, and the
    local kets are the top singular vectors of z_i as a 2 x 2 matrix.
    ``frame`` defaults to :func:`wootters_frame` of ``d``.
    """
    frame = wootters_frame(d) if frame is None else frame
    lam = frame.lam
    diag = max(lam[0] - lam[1], lam[2] - lam[3])
    a, b = lam[0::2], lam[1::2]
    ex_a, ex_b, ex_d = np.maximum(0.0, [b + diag - a, a + diag - b, a + b - diag]) / 2.0
    semi = ex_a + ex_b + ex_d
    at_a = 2.0 * np.arctan2(np.sqrt(ex_a * ex_d), np.sqrt(semi * ex_b))
    at_b = np.pi - at_a - 2.0 * np.arctan2(np.sqrt(ex_a * ex_b), np.sqrt(semi * ex_d))
    theta = np.array([at_a[0], -at_b[0], np.pi + at_a[1], np.pi - at_b[1]])
    z = (frame.x * np.exp(0.5j * theta)) @ _HADAMARD
    probs = np.sum(np.abs(z) ** 2, axis=0)
    u, _, vh = np.linalg.svd(z.T.reshape(4, 2, 2))
    kets = np.stack([u[:, :, 0], vh[:, 0, :]])
    bloch = np.einsum("ski,mij,skj->skm", kets.conj(), generator_basis(2).matrices,
                      kets).real
    return SeparableDecomposition(probs=probs / probs.sum(),
                                  r_vectors=bloch[0], s_vectors=bloch[1])


# ---------------------------------------------------------------------------
# transporting decompositions between equivalent states
# ---------------------------------------------------------------------------

def _transform_components(dec: SeparableDecomposition, map_a, map_b,
                          dim_a_in: int, dim_b_in: int):
    """Apply rho -> M rho M^dag (+ renormalize) to every component pair."""
    probs = []
    r_out = []
    s_out = []
    for p, r, s in dec.entries():
        rho_a = map_a @ from_bloch(r, dim_a_in) @ map_a.conj().T
        rho_b = map_b @ from_bloch(s, dim_b_in) @ map_b.conj().T
        ta = float(np.real(np.trace(rho_a)))
        tb = float(np.real(np.trace(rho_b)))
        probs.append(p * ta * tb)
        r_out.append(to_bloch(rho_a / ta, tol=np.inf))
        s_out.append(to_bloch(rho_b / tb, tol=np.inf))
    probs = np.asarray(probs)
    probs /= probs.sum()
    return SeparableDecomposition(probs=probs,
                                  r_vectors=np.asarray(r_out),
                                  s_vectors=np.asarray(s_out))


def pull_back_filters(dec: SeparableDecomposition, filter_a: np.ndarray,
                      filter_b: np.ndarray, dim_a: int, dim_b: int) -> SeparableDecomposition:
    """Transport a decomposition of the filtered state back to the original.

    Inverts the local filters: each component is conjugated by the filter
    inverses and the weights are re-normalized, which preserves positivity
    and reproduces the pre-filter state exactly.
    """
    inv_a = np.linalg.inv(filter_a)
    inv_b = np.linalg.inv(filter_b)
    return _transform_components(dec, inv_a, inv_b, dim_a, dim_b)


def embed_isometries(dec: SeparableDecomposition, iso_a: np.ndarray,
                     iso_b: np.ndarray) -> SeparableDecomposition:
    """Lift a decomposition through support isometries to the ambient dims."""
    dim_a_in = iso_a.shape[1]
    dim_b_in = iso_b.shape[1]
    return _transform_components(dec, iso_a, iso_b, dim_a_in, dim_b_in)
