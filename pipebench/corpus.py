"""Seeded input corpora for the four benchmark workloads.

Everything here is plain numpy: the library under test only ever sees the
generated matrices (or singular-value sequences on ``horn``).  The same
``seed`` always yields the same corpus, and ``digest`` hashes it.

The states themselves come from a stream fixed per workload; the seed
draws the local frame each one is presented in, a conjugation by local
unitaries U x V.  Separability, the verdict and every cost the pipeline
pays are invariant under local unitaries, so a new seed gives new input
matrices of the same difficulty, and run-to-run spreads measure the program
rather than the draw.  The ``plain`` family states stay in their canonical
frame, since that is what the closed-form family path recognises.  Each known slow or failing path
(the 4x4 inconclusive diagnostic, the N = 7 simplex search, the n = 9
triple enumeration) appears exactly once per corpus, so its per-call
budget is paid once per set-up and the count of failures does not depend on
the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from pipebench import WORKLOADS

SEPARABLE = "separable"
ENTANGLED = "entangled"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Case:
    """One benchmark input.

    ``op`` is ``analyze`` (rho with dims), ``battery`` (tau, alpha, beta) or
    ``triples`` (n).  ``expect`` is the oracle's reference answer: a verdict
    label for ``analyze``, ``"feasible"``/``"infeasible"`` for ``battery``.
    ``timed`` cases are repeated in the timed passes; the others run once,
    in the warm-up pass.
    """

    id: str
    op: str
    expect: str = UNKNOWN
    timed: bool = True
    rho: np.ndarray | None = field(default=None, repr=False)
    dims: tuple[int, int] = (0, 0)
    singulars: tuple[np.ndarray, ...] = field(default=(), repr=False)
    n: int = 0


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def random_state(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_filter(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Invertible filter U diag(s) V^dag with singular values in [0.5, 1.5]."""
    s = rng.uniform(0.5, 1.5, size=dim)
    return (haar_unitary(dim, rng) * s) @ haar_unitary(dim, rng).conj().T


def conjugate(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    big = np.kron(a, b)
    out = big @ rho @ big.conj().T
    out = 0.5 * (out + out.conj().T)
    return out / np.trace(out).real


def local_unitary(rho, n, m, rng):
    return conjugate(rho, haar_unitary(n, rng), haar_unitary(m, rng))


def filtered(rho, n, m, rng):
    return conjugate(rho, local_filter(n, rng), local_filter(m, rng))


def swap(dim: int) -> np.ndarray:
    f = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            f[i * dim + j, j * dim + i] = 1.0
    return f


def werner_state(dim: int, phi: float) -> np.ndarray:
    """((N - phi) I + (N phi - 1) F) / (N (N^2 - 1)); phi = <F>, entangled iff phi < 0."""
    eye = np.eye(dim * dim)
    rho = ((dim - phi) * eye + (dim * phi - 1.0) * swap(dim)) / (dim * (dim * dim - 1.0))
    return rho.astype(complex)


def isotropic_state(dim: int, p: float) -> np.ndarray:
    """p |Phi+><Phi+| + (1 - p) I / N^2; entangled iff p > 1 / (N + 1)."""
    phi = np.eye(dim).reshape(-1) / np.sqrt(dim)
    rho = p * np.outer(phi, phi) + (1.0 - p) * np.eye(dim * dim) / dim ** 2
    return rho.astype(complex)


def mixed_with_identity(rho: np.ndarray, weight: float) -> np.ndarray:
    dim = rho.shape[0]
    return (1.0 - weight) * rho + weight * np.eye(dim) / dim


def stall_state(eps: float) -> np.ndarray:
    """(1 - eps) |00><00| + eps I / 4: separable, full rank, slow to filter."""
    return mixed_with_identity(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), eps)


def p_zero_state(p: float) -> np.ndarray:
    """p |psi+><psi+| + (1 - p) |00><00|, psi+ = (|01> + |10>)/sqrt(2)."""
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    return (p * np.outer(psi, psi) + (1.0 - p) * np.diag([1.0, 0.0, 0.0, 0.0])).astype(complex)


def pure_product(n: int, m: int, rng) -> np.ndarray:
    """|a><a| x sigma_B: local rank one on side A."""
    a = random_state(n, 1, rng)
    return np.kron(a, random_state(m, m, rng))


def embedded_two_qubit(n: int, m: int, rng) -> np.ndarray:
    """A random 2x2 state placed on random 2-dimensional local supports."""
    va = haar_unitary(n, rng)[:, :2]
    vb = haar_unitary(m, rng)[:, :2]
    iso = np.kron(va, vb)
    rho = iso @ random_state(4, 4, rng) @ iso.conj().T
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _analyze(cid, rho, n, m, expect=UNKNOWN) -> Case:
    return Case(id=cid, op="analyze", expect=expect,
                rho=np.ascontiguousarray(rho, dtype=complex), dims=(n, m))


def qubit_cases(fixed, frame, smoke=False) -> list[Case]:
    raw, mixed = (4, 3) if smoke else (48, 36)
    states = []
    for i in range(raw):
        states.append((f"qubit/raw/{i:02d}", random_state(4, 4, fixed), UNKNOWN))
    for i in range(mixed):
        states.append((f"qubit/mixed/{i:02d}",
                       mixed_with_identity(random_state(4, 4, fixed), 0.5), UNKNOWN))
    # both run filtering to its 500-sweep budget, about ten times the cost
    # of a random state
    for eps in ((1e-4,) if smoke else (1e-4, 3e-5, 1e-5, 3e-6)):
        states.append((f"qubit/stall/{eps:.0e}", stall_state(eps), SEPARABLE))
    for p in ((0.5,) if smoke else (0.1, 0.3, 0.5, 0.9)):
        states.append((f"qubit/p_zero/{p:.1f}", p_zero_state(p), ENTANGLED))
    for i in range(1 if smoke else 4):
        states.append((f"qubit/low_rank/{i}", pure_product(2, 2, fixed), SEPARABLE))
    return [_analyze(cid, local_unitary(rho, 2, 2, frame), 2, 2, expect)
            for cid, rho, expect in states]


QUDIT_DIMS = ((2, 3), (3, 3), (3, 4), (4, 4))
# identity weights with a seed-independent outcome (checked on 60 draws
# each): SEP_WEIGHT states are filtered and decomposed, INC_WEIGHT states
# are PPT but beyond the constructive bound, so they come back inconclusive
SEP_WEIGHT = {(2, 3): 0.8, (3, 3): 0.95, (3, 4): 0.95, (4, 4): 0.95}
INC_WEIGHT = 0.7
# enough inconclusive 3x3 and 3x4 cases that the median case falls inside
# their cluster rather than in the gap below it
INC_COUNT = {(2, 3): 0, (3, 3): 6, (3, 4): 6, (4, 4): 1}


def qudit_cases(fixed, frame, smoke=False) -> list[Case]:
    cases = []
    for n, m in QUDIT_DIMS:
        d = n * m
        tag = f"qudit/{n}x{m}"
        states = []
        for i in range(1 if smoke else 4):
            states.append((f"{tag}/raw/{i}", random_state(d, d, fixed), UNKNOWN))
        for i in range(1 if smoke else 4):
            states.append((f"{tag}/mixed_sep/{i}",
                           mixed_with_identity(random_state(d, d, fixed), SEP_WEIGHT[(n, m)]),
                           UNKNOWN))
        # the 4x4 one hangs in the n = 15 triple enumeration: not in smoke
        inc = 0 if smoke and (n, m) == (4, 4) else INC_COUNT[(n, m)]
        for i in range(min(inc, 1) if smoke else inc):
            states.append((f"{tag}/mixed_inc/{i}",
                           mixed_with_identity(random_state(d, d, fixed), INC_WEIGHT), UNKNOWN))
        for rank in (1, 2):
            states.append((f"{tag}/rank{rank}", random_state(d, rank, fixed), UNKNOWN))
        states.append((f"{tag}/pure_product", pure_product(n, m, fixed), SEPARABLE))
        states.append((f"{tag}/two_qubit_support", embedded_two_qubit(n, m, fixed), UNKNOWN))
        cases += [_analyze(cid, local_unitary(rho, n, m, frame), n, m, expect)
                  for cid, rho, expect in states]
    return cases


def werner_kyfan_phi(dim: int) -> float:
    """A separable Werner parameter inside the constructive Ky Fan interval
    [(N-2)/(N(N-1)), 1/(N-1)], between its centre 1/N and its upper end."""
    return 0.5 * (1.0 / dim + 1.0 / (dim - 1.0))


def isotropic_kyfan_p(dim: int) -> float:
    """A separable isotropic parameter below the constructive bound
    1/((N-1)(N^2-1))."""
    return 0.5 / ((dim - 1.0) * (dim * dim - 1.0))


FAMILY_DIMS = (2, 3, 4, 5, 6, 7)


def families_cases(fixed, frame, smoke=False) -> list[Case]:
    cases = []
    dims = (2, 3, 5) if smoke else FAMILY_DIMS
    variants = (("plain", lambda r, n: r),
                ("unitary", lambda r, n: local_unitary(r, n, n, frame)),
                ("filtered", lambda r, n: local_unitary(filtered(r, n, n, fixed), n, n, frame)))
    for n in dims:
        threshold = 1.0 / (n + 1.0)
        states = (
            ("werner/entangled", werner_state(n, -0.5), ENTANGLED),
            ("werner/kyfan", werner_state(n, werner_kyfan_phi(n)), SEPARABLE),
            ("isotropic/entangled", isotropic_state(n, 0.5 * (1.0 + threshold)), ENTANGLED),
            ("isotropic/kyfan", isotropic_state(n, isotropic_kyfan_p(n)), SEPARABLE),
        )
        for label, rho, expect in states:
            for vname, vary in variants:
                cases.append(_analyze(f"families/{n}/{label}/{vname}", vary(rho, n), n, n,
                                      expect=expect))
        # the closed-form family path, which needs the pure-state simplex;
        # the N = 7 search outlives the per-call budget, and so would N = 6
        # (17 s) and isotropic, which shares Werner's simplex: one timeout
        # per corpus shows the defect, more would only lengthen set-up
        if n != 6 and not (smoke and n > 3):
            cases.append(_analyze(f"families/{n}/werner/simplex/plain",
                                  werner_state(n, 1.0), n, n, expect=SEPARABLE))
        # just inside the threshold: at exactly p = 1/(N+1) the recovered
        # parameter can round above it, and the state goes inconclusive
        if n <= 5 and not smoke:
            cases.append(_analyze(f"families/{n}/isotropic/simplex/plain",
                                  isotropic_state(n, 0.9 * threshold), n, n,
                                  expect=SEPARABLE))
        # rotated families leave the closed forms and reach the inconclusive
        # path: 3x3 enumerates n = 8 triples, 5x5 and above exceed the cap.
        # 4x4 would hang in the n = 15 enumeration that qudit already shows.
        if n != 4 and n >= 3 and not (smoke and n == 3):
            cases.append(_analyze(f"families/{n}/isotropic/rotated",
                                  local_unitary(isotropic_state(n, threshold), n, n, frame),
                                  n, n, expect=SEPARABLE))
        if n <= 3 and not smoke:
            cases.append(_analyze(f"families/{n}/werner/rotated",
                                  local_unitary(werner_state(n, 1.0), n, n, frame),
                                  n, n, expect=SEPARABLE))
            cases.append(_analyze(f"families/{n}/werner/filtered_simplex",
                                  local_unitary(filtered(werner_state(n, 1.0), n, n, fixed),
                                                n, n, frame),
                                  n, n, expect=SEPARABLE))
    return cases


def _descending(rng, length):
    return np.sort(rng.uniform(0.2, 1.5, size=length))[::-1].copy()


def horn_cases(fixed, frame, smoke=False) -> list[Case]:
    """The battery's cost does not depend on the values, so the seed draws
    them outright."""
    cases = []
    top = 6 if smoke else 8
    # cold enumeration, ascending, then one n past what a run can afford
    for n in range(2, top + 1):
        cases.append(Case(id=f"horn/triples/{n}", op="triples", n=n, timed=False))
    if not smoke:
        cases.append(Case(id="horn/triples/9", op="triples", n=9, timed=False))
    per_n = 2 if smoke else 6
    for n in range(4, top + 1):
        for i in range(per_n):
            alpha, beta = _descending(frame, n), _descending(frame, n)
            q = np.linalg.qr(frame.normal(size=(n, n)))[0]
            tau = np.linalg.svd((alpha[:, None] * q) * beta[None, :], compute_uv=False)
            cases.append(Case(id=f"horn/battery/{n}/product/{i}", op="battery",
                              expect="feasible", singulars=(tau, alpha, beta), n=n))
            # lifting tau_1 above alpha_1 beta_1 breaks the r = 1 inequality
            bad = tau.copy()
            bad[0] = 1.05 * alpha[0] * beta[0]
            cases.append(Case(id=f"horn/battery/{n}/perturbed/{i}", op="battery",
                              expect="infeasible", singulars=(bad, alpha, beta), n=n))
    return cases


BUILDERS = {"qubit": qubit_cases, "qudit": qudit_cases,
            "families": families_cases, "horn": horn_cases}


def build(workload: str, seed: int, smoke: bool = False) -> list[Case]:
    index = WORKLOADS.index(workload)
    fixed = np.random.default_rng([index, 2016])
    frame = np.random.default_rng([seed, index])
    return BUILDERS[workload](fixed, frame, smoke=smoke)


def digest(cases: list[Case]) -> str:
    """SHA-256 over every case id and input array."""
    h = hashlib.sha256()
    for case in cases:
        h.update(f"{case.id}|{case.op}|{case.dims}|{case.n}|{case.timed}".encode())
        for arr in ((case.rho,) if case.rho is not None else ()) + tuple(case.singulars):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
