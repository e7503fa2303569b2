"""Shared test helpers."""

from functools import lru_cache
from itertools import combinations
from math import atan2, pi, sqrt

import numpy as np

from sephorn import linalg
from sephorn.bipartite import NormalFormResult, _filtered
from sephorn.bloch import _gen_stack, from_bloch
from sephorn.config import MAX_ITER, NORMAL_TOL, TAKAGI_ORTHO
from sephorn.decompose import SeparableDecomposition, WoottersFrame
from sephorn.errors import OutOfPositivityRange
from sephorn.horn import subset_table

CHUNK = 8192  # sample rows per vectorized block


def lapack_kernels() -> set[str]:
    """The names of the LAPACK kernels of :mod:`sephorn.linalg`: its public
    functions but ``certify_psd``, which calls them."""
    return {name for name, value in vars(linalg).items()
            if callable(value) and getattr(value, "__module__", None) == linalg.__name__
            and not name.startswith("_")} - {"certify_psd"}


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_orthogonal(dim: int, seed) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR with sign-fixed R diagonal).

    Like every sampler here, deterministic: ``seed`` is an integer seed or
    a caller-owned :class:`numpy.random.Generator`."""
    rng = _as_generator(seed)
    g = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary matrix (complex Ginibre + QR)."""
    rng = _as_generator(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    phase = d / np.abs(d)
    return q * phase


def random_density(dim: int, rank: int, seed) -> np.ndarray:
    """Random density matrix G G^dag / Tr[G G^dag] with G of width ``rank``."""
    if not 1 <= rank <= dim:
        raise OutOfPositivityRange(f"rank must lie in 1..{dim}, got {rank}")
    rng = _as_generator(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def noisy(rho: np.ndarray, eps: float) -> np.ndarray:
    """(1 - eps) rho + eps I/d."""
    return (1.0 - eps) * rho + eps * np.eye(rho.shape[0]) / rho.shape[0]


def products(weights, n: int, m: int, seed) -> np.ndarray:
    """sum_i w_i |a_i b_i><a_i b_i| over random pure products on n x m."""
    rng = _as_generator(seed)
    return sum(w * np.kron(random_density(n, 1, rng), random_density(m, 1, rng))
               for w in weights)


def tiles_state() -> np.ndarray:
    """The 3 x 3 PPT entangled state from the tiles unextendible product basis."""
    e = np.eye(3)
    tiles = [(e[0], e[0] - e[1]), (e[0] - e[1], e[2]), (e[2], e[1] - e[2]),
             (e[1] - e[2], e[0]), (e[0] + e[1] + e[2], e[0] + e[1] + e[2])]
    kets = [np.kron(x, y) / np.linalg.norm(np.kron(x, y)) for x, y in tiles]
    return (np.eye(9) - sum(np.outer(k, k) for k in kets)).astype(complex) / 4.0


def horodecki_3x3(a: float) -> np.ndarray:
    """P. Horodecki's 3 x 3 PPT entangled state for 0 < a < 1 (quant-ph/9703004)."""
    rho = np.diag([a] * 6 + [(1 + a) / 2, a, (1 + a) / 2])
    for i, j in ((0, 4), (0, 8), (4, 8)):
        rho[i, j] = rho[j, i] = a
    rho[6, 8] = rho[8, 6] = np.sqrt(1 - a * a) / 2
    return rho.astype(complex) / (8 * a + 1)


def horodecki_2x4(b: float) -> np.ndarray:
    """P. Horodecki's 2 x 4 PPT entangled state for 0 < b < 1 (quant-ph/9703004)."""
    rho = np.diag([b] * 4 + [(1 + b) / 2, b, b, (1 + b) / 2])
    for i in range(3):
        rho[i, i + 5] = rho[i + 5, i] = b
    rho[4, 7] = rho[7, 4] = np.sqrt(1 - b * b) / 2
    return rho.astype(complex) / (7 * b + 1)


def ill_conditioned_product(frame: int) -> np.ndarray:
    """A 3 x 3 product state whose marginals have an eigenvalue 1.2e-9,
    just above the rank cutoff and outside the inscribed ball."""
    u, v = random_unitary(3, 1 + frame), random_unitary(3, 101 + frame)
    rho_a = (u * [1.2e-9, 0.49, 0.51 - 1.2e-9]) @ u.conj().T
    rho_b = (v * [1.2e-9, 0.48, 0.52 - 1.2e-9]) @ v.conj().T
    return np.kron(rho_a, rho_b)


def nested_support(seed, eps=0.6e-9):
    """(1 - 2 eps) times two products on the {0,1} x {0,1} block, plus
    eps |22><22| and eps |20><20|, at 3x3.  B's weight eps on |2> lies
    below the rank cutoff and A's 2 eps above it; once B is projected, A
    keeps eps on |2> and is projected in turn."""
    rng = _as_generator(seed)
    block = sum(w * np.kron(np.pad(random_density(2, 1, rng), (0, 1)),
                            np.pad(random_density(2, 1, rng), (0, 1)))
                for w in (0.4, 0.6))
    tail = np.zeros(9)
    tail[[8, 6]] = eps
    return (1.0 - 2.0 * eps) * block + np.diag(tail)


def projected_filtered(seed):
    """0.05 R + 0.95 I/6 at 2x3, R a random state, under the local filters
    diag(1, 0.25) U x diag(1, 0.5, 0.2) W, U and W random unitaries, then
    placed in 3x3 by a random isometry on A."""
    rng = _as_generator(seed)
    rho = noisy(random_density(6, 6, rng), 0.95)
    f = np.kron(np.diag([1.0, 0.25]) @ random_unitary(2, rng),
                np.diag([1.0, 0.5, 0.2]) @ random_unitary(3, rng))
    iso = np.kron(random_unitary(3, rng)[:, :2], np.eye(3))
    rho = iso @ f @ rho @ f.conj().T @ iso.conj().T
    return rho / np.trace(rho).real


def weakly_entangled(delta: float, embedded: bool = False) -> np.ndarray:
    """sqrt(1 - delta)|00> + sqrt(delta)|11> at 2 x 2, or, ``embedded``,
    half of it plus half |22><22| at 3 x 3.  Its partial transpose has the
    eigenvalue -sqrt(delta(1 - delta)) (halved when embedded), while a
    marginal eigenvalue delta (delta/2) at or below the rank cutoff drops
    the coherence that carries it from the support."""
    psi = np.zeros(9 if embedded else 4)
    psi[0], psi[4 if embedded else 3] = sqrt(1.0 - delta), sqrt(delta)
    rho = np.outer(psi, psi).astype(complex)
    if embedded:
        rho[8, 8] = 1.0
        rho /= 2.0
    return rho


def in_frame(rho, n, m, frame, rng):
    """rho under random local unitaries ("rotated") or random local filters
    ("filtered"), renormalised; "plain" leaves the frame as it is."""
    if frame != "plain":
        parts = [rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for k in (n, m)]
        if frame == "rotated":
            parts = [np.linalg.qr(p)[0] for p in parts]
        f = np.kron(*parts)
        rho = f @ rho @ f.conj().T
    return 0.5 * (rho + rho.conj().T) / np.trace(rho).real


def lowest_pt_eigenvalue(rho: np.ndarray, n: int, m: int) -> float:
    """Lowest eigenvalue of the partial transpose on the second factor."""
    rho_pt = rho.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
    return float(np.linalg.eigvalsh(rho_pt)[0])


# noise-weight shifts off the PPT boundary: the negative ones are entangled
BOUNDARY_SHIFTS = (-1e-9, -1e-10, 0.0, 1e-10, 1e-9, 1e-6)


def ppt_boundary(rank: int, seed, steps: int = 80) -> tuple[np.ndarray, float]:
    """A Ginibre 2 x 2 state of ``rank``, redrawn until it is NPT, and the
    noise weight t at which (1 - t) rho + t I/4 reaches the PPT boundary:
    the PPT end of the bracket after ``steps`` bisection steps, so that its
    lowest partial-transpose eigenvalue lies within rounding above 0."""
    rng = _as_generator(seed)
    rho = random_density(4, rank, rng)
    while lowest_pt_eigenvalue(rho, 2, 2) >= 0.0:
        rho = random_density(4, rank, rng)
    npt, ppt = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (npt + ppt)
        if lowest_pt_eigenvalue(noisy(rho, mid), 2, 2) < 0.0:
            npt = mid
        else:
            ppt = mid
    return rho, ppt


def rank_one_rung_state(eps: float) -> np.ndarray:
    """Half |a,0><a,0| plus half |a',1><a',1| at 2 x 2, with a = (1, eps)
    and a' = (1, -eps) normalised: a separable state whose A marginal has
    the eigenvalue eps^2 / (1 + eps^2), and which the product of its
    marginals misses by about 2 eps."""
    a, a_prime = np.array([[1.0, eps], [1.0, -eps]]) / np.hypot(1.0, eps)
    kets = np.kron(a, [1.0, 0.0]), np.kron(a_prime, [0.0, 1.0])
    return 0.5 * sum(np.outer(k, k) for k in kets).astype(complex)


def local_filter(condition: float, rng) -> np.ndarray:
    """A random 2 x 2 filter U diag(1, s) W, U and W Haar unitaries, whose
    condition number 1/s is drawn log-uniformly from [1, ``condition``]."""
    s = 10.0 ** -rng.uniform(0.0, np.log10(condition))
    return (random_unitary(2, rng) * [1.0, s]) @ random_unitary(2, rng)


def filtered_product_mixture(condition: float, seed) -> np.ndarray:
    """A separable 2 x 2 state: 2-4 random pure products, the first weight
    drawn log-uniformly down to 1e-14, half the time mixed with white noise
    at a weight down to 1e-12, all under random local filters of condition
    up to ``condition`` (:func:`local_filter`).  Each filtered product is
    formed as one product vector and normalised, so every term is an exact
    product up to the rounding of its entries."""
    rng = _as_generator(seed)
    fa, fb = local_filter(condition, rng), local_filter(condition, rng)
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    weights[0] = 10.0 ** rng.uniform(-14.0, 0.0)
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        psi = np.kron(fa @ random_unitary(2, rng)[:, 0], fb @ random_unitary(2, rng)[:, 0])
        rho += w / np.vdot(psi, psi).real * np.outer(psi, psi.conj())
    rho /= np.trace(rho).real
    if rng.random() < 0.5:
        eps = 10.0 ** rng.uniform(-12.0, -1.0)
        noise = np.kron(fa @ fa.conj().T, fb @ fb.conj().T)
        rho = (1.0 - eps) * rho + eps * noise / np.trace(noise).real
    return rho


def off_ball_product(n: int, m: int, seed) -> np.ndarray:
    """rho_A x rho_B in a random local frame, each factor of full rank with
    its largest eigenvalue above 0.6, which puts it outside the inscribed
    ball Tr rho^2 < 1/(N - 1) at N >= 3 (every full-rank qubit lies inside)."""
    rng = _as_generator(seed)
    factors = []
    for k in (n, m):
        w = 0.2 * rng.dirichlet(np.ones(k)) + 0.2 / k
        w[0] += 0.6
        u = random_unitary(k, rng)
        factors.append((u * w) @ u.conj().T)
    return np.kron(*factors)


def reference_projection(rho, va, vb) -> np.ndarray:
    """Reference for the support projection that ``analyze`` applies: the
    matrix-level V^dag rho V over its trace, V = kron(va, vb)."""
    iso = np.kron(va, vb)
    out = iso.conj().T @ rho @ iso
    return out / np.real(np.trace(out))


def filter_products(d, max_iter: int = MAX_ITER, tol: float = NORMAL_TOL) -> NormalFormResult:
    """Reference for ``bipartite.normal_form``: operator scaling on the
    filters themselves, one ``eigh`` per half-step.

    Alternately multiplies F_A by (N rho_A)^{-1/2} and F_B by
    (M rho_B)^{-1/2}, the reduced matrices F_A (R vec(G_B^T)) F_A^dag and
    F_B (vec(G_A^T)^T R) F_B^dag of the iterate, with G = F^T F* and R the
    realigned matrix, and the eigenvalues scaled to sum to N (M).  After a
    sweep rho_B is I/M, and the eigenvalues of N rho_A give |a| and the
    next A-side filter.  A sweep stops at a reduced matrix with a
    non-positive or non-finite eigenvalue.
    """
    n, m = d.dim_a, d.dim_b
    r = d.realigned
    fa, fb = np.eye(n, dtype=complex), np.eye(m, dtype=complex)
    converged = max(np.linalg.norm(d.a), np.linalg.norm(d.b)) < tol
    w, v = np.linalg.eigh(from_bloch(d.a, n))
    w = n * w
    iterations = 0
    while not converged and iterations < max_iter:
        iterations += 1
        fa = (v / np.sqrt(w)) @ v.conj().T @ fa
        w, v = np.linalg.eigh(fb @ ((fa.T @ fa.conj()).reshape(-1) @ r).reshape(m, m)
                              @ fb.conj().T)
        if not (w[0] > 0.0 and w[-1] < np.inf):
            break
        w *= m / w.sum()
        fb = (v / np.sqrt(w)) @ v.conj().T @ fb
        w, v = np.linalg.eigh(fa @ (r @ (fb.T @ fb.conj()).reshape(-1)).reshape(n, n)
                              @ fa.conj().T)
        if not (w[0] > 0.0 and w[-1] < np.inf):
            break
        w *= n / w.sum()
        dev = w - 1.0
        converged = np.sqrt(2.0 * (dev @ dev)) < n * tol
    if not iterations:
        return NormalFormResult(state=d, filter_a=fa, filter_b=fb,
                                converged=bool(converged), iterations=0)
    state = _filtered(d, fa, fb)
    converged = max(np.linalg.norm(state.a), np.linalg.norm(state.b)) < tol
    return NormalFormResult(state=state, filter_a=fa, filter_b=fb,
                            converged=bool(converged), iterations=iterations)


SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
_HADAMARD = 0.5 * np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
_GRAM_MOMENTS = np.concatenate([np.eye(4)[None], np.kron(_gen_stack(2), np.eye(2)),
                                np.kron(np.eye(2), _gen_stack(2))])


def reference_wootters_frame(d) -> WoottersFrame:
    """Reference for ``decompose.wootters_frame``: the positive eigenvalues
    of rho picked by a boolean mask, the block embedding
    [[Re tau, Im tau], [Im tau, -Re tau]], the Takagi Gram matrix checked
    at every rank and the frame zero-padded to 4 at every rank."""
    w, vecs = d.spectrum
    positive = w > 16.0 * np.finfo(float).eps * w[-1]
    v = vecs[:, positive] * np.sqrt(w[positive])
    rank = v.shape[1]
    tau = v.T @ SIGMA_YY @ v
    re, im = tau.real, tau.imag
    embedding = np.empty((2 * rank, 2 * rank))
    embedding[:rank, :rank] = re
    embedding[rank:, rank:] = -re
    embedding[:rank, rank:] = embedding[rank:, :rank] = im
    lam, emb = np.linalg.eigh(embedding)
    top = emb[:, ::-1][:, :rank]
    takagi = top[:rank] + 1j * top[rank:]
    if np.abs(takagi.conj().T @ takagi - np.eye(rank)).max() > TAKAGI_ORTHO:
        takagi = np.linalg.qr(takagi)[0]
    x = np.zeros((4, 4), dtype=complex)
    x[:, :rank] = v @ takagi.conj()
    padded = np.zeros(4)
    padded[:rank] = np.maximum(lam[::-1][:rank], 0.0)
    return WoottersFrame(x=x, lam=padded)


def _reference_triangle_angles(a: float, b: float, diag: float) -> tuple[float, float]:
    ex_a = max(0.0, b + diag - a) / 2.0
    ex_b = max(0.0, a + diag - b) / 2.0
    ex_d = max(0.0, a + b - diag) / 2.0
    semi = ex_a + ex_b + ex_d
    at_a = 2.0 * atan2(sqrt(ex_a * ex_d), sqrt(semi * ex_b))
    at_b = pi - at_a - 2.0 * atan2(sqrt(ex_a * ex_b), sqrt(semi * ex_d))
    return at_a, at_b


def reference_wootters_decomposition(d) -> SeparableDecomposition:
    """Reference for ``decompose.wootters_decomposition`` on
    :func:`reference_wootters_frame`: the seven Gram moments of every
    component as one batched (7, 4, 4) product."""
    frame = reference_wootters_frame(d)
    lam = frame.lam.tolist()
    diag = max(lam[0] - lam[1], lam[2] - lam[3])
    at_a0, at_b0 = _reference_triangle_angles(lam[0], lam[1], diag)
    at_a1, at_b1 = _reference_triangle_angles(lam[2], lam[3], diag)
    theta = np.array([at_a0, -at_b0, pi + at_a1, pi - at_b1])
    z = (frame.x * np.exp(0.5j * theta)) @ _HADAMARD
    moments = (z.conj() * (_GRAM_MOMENTS @ z)).sum(axis=1).real
    bloch = moments[1:].T.reshape(4, 2, 3)
    bloch /= np.sqrt((bloch * bloch).sum(axis=-1, keepdims=True))
    return SeparableDecomposition(probs=moments[0] / moments[0].sum(),
                                  r_vectors=bloch[:, 0], s_vectors=bloch[:, 1])


def is_physical(r, tol: float = 1e-9) -> bool:
    """True when the matrix of Bloch vector ``r`` is PSD within ``tol``."""
    rho = from_bloch(np.asarray(r, dtype=float))
    return rho.shape[0] == 1 or float(np.linalg.eigvalsh(rho)[0]) >= -tol


def batch_min_margin(a, b, c) -> np.ndarray:
    """Worst inequality margin per sample row.

    a, b, c: (S, n) finite descending value rows.  Returns the (S,) array
    of min over every admissible triple of sum a[I] + sum b[J] - sum c[K];
    a negative entry flags a violated inequality.  Each side is one
    (S, 2^n) product with the subset table, then one gather by position.
    """
    members, positions, _ = subset_table(a.shape[1])
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], CHUNK):
        hi = min(lo + CHUNK, a.shape[0])
        sums = (np.stack([a[lo:hi], b[lo:hi], c[lo:hi]], axis=1) @ members).reshape(hi - lo, -1)
        a_i, b_j, c_k = sums[:, positions].transpose(1, 0, 2)
        out[lo:hi] = (a_i + b_j - c_k).min(axis=1)
    return out


@lru_cache(maxsize=None)
def loop_triple_set(n: int, r: int) -> tuple:
    """Reference for ``horn.triple_set(n, r).triples``: every candidate
    (I, J, K) with the total-sum identity, tested one lower inequality at a
    time against this function's own sets of every p < r in 1..r."""
    if r == 1:
        return tuple(sorted(((i,), (j,), (i + j - 1,))
                            for i in range(1, n + 1)
                            for j in range(1, n + 1)
                            if i + j - 1 <= n))
    lower = [loop_triple_set(r, p) for p in range(1, r)]
    subsets = list(combinations(range(1, n + 1), r))
    shift = r * (r + 1) // 2
    out = []
    for I in subsets:
        for J in subsets:
            for K in subsets:
                if sum(I) + sum(J) == sum(K) + shift and _admissible(I, J, K, lower):
                    out.append((I, J, K))
    return tuple(sorted(out))


def _admissible(I, J, K, lower) -> bool:
    for p0, tsets in enumerate(lower):
        shift = (p0 + 1) * (p0 + 2) // 2
        for F, G, H in tsets:
            lhs = sum(I[f - 1] for f in F) + sum(J[g - 1] for g in G)
            if lhs > sum(K[h - 1] for h in H) + shift:
                return False
    return True
