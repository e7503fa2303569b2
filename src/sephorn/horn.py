"""Inductive index-triple sets and the multiplicative inequality battery.

A triple (I, J, K) of r-element increasing index sets in 1..n is admissible
when the partitions it maps to occur as eigenvalues of r x r Hermitian
matrices (A, B, A + B).  The admissible sets characterize which descending
singular-value sequences (alpha, beta, tau) can arise from a matrix product:
an orthogonal Q with singulars(D_alpha Q D_beta) = tau exists exactly when

    prod_{k in K} tau_k <= prod_{i in I} alpha_i * prod_{j in J} beta_j

holds over every admissible triple of every cardinality r < L.  Inequality
arithmetic runs in the log domain with log 0 = -inf, so zero singular
values are handled one-sidedly; for strictly positive alpha and beta the
product equality prod tau = prod alpha_i beta_i is additionally required.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BadCardinality, LengthMismatch, NotSorted, TripleCapExceeded

# the largest n whose cold all_triples(n) runs within a minute: n = 12 gives
# 5.2 million triples, and n = 13 about 28 million
MAX_N = 12

# int16 entries per block of candidates tested at once in ``triple_set``
_BLOCK_ENTRIES = 1 << 16

Triple = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def partition_of(indices) -> tuple[int, ...]:
    """Weakly decreasing partition (i_r - r, ..., i_1 - 1) of an index set."""
    seq = tuple(indices)
    r = len(seq)
    return tuple(seq[r - 1 - q] - (r - q) for q in range(r))


@dataclass(frozen=True)
class TripleSet:
    n: int
    r: int
    triples: tuple[Triple, ...]

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)


@lru_cache(maxsize=None)
def triple_set(n: int, r: int) -> TripleSet:
    """Admissible triples of cardinality r in 1..n, lexicographically ordered.

    Base case r = 1 accepts ({i},{j},{k}) exactly when i + j = k + 1.  For
    r >= 2 a candidate must satisfy the total-sum identity
    sum(I) + sum(J) = sum(K) + r(r+1)/2 and, for every p < r and every
    admissible (F, G, H) of cardinality p in 1..r, the position-selected
    inequality sum_{f in F} i_f + sum_{g in G} j_g <= sum_{h in H} k_h
    + p(p+1)/2.  All inequalities of one candidate are tested at once, in
    blocks of candidates of bounded size.  The number of triples, and with
    it time and memory, grows about fivefold per step of n, so n is capped
    at ``MAX_N``.
    """
    if n > MAX_N:
        raise TripleCapExceeded(f"triple enumeration capped at n <= {MAX_N}, got {n}")
    if not 1 <= r < n:
        raise BadCardinality(f"need 1 <= r < n, got r={r}, n={n}")
    if r == 1:
        base = [((i,), (j,), (i + j - 1,))
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i + j - 1 <= n]
        return TripleSet(n=n, r=r, triples=tuple(sorted(base)))

    subsets = list(combinations(range(1, n + 1), r))
    rows = np.array(subsets, dtype=np.int16)
    sel_i, sel_j, sel_k, bound = _selectors(r)
    # partial sums of every lower inequality, per subset; entries are at most
    # r * MAX_N, so int16 holds them and their differences
    part_i, part_j, part_k = rows @ sel_i, rows @ sel_j, rows @ sel_k
    sums = rows.sum(axis=1, dtype=np.int64)
    # K candidates by sum; the stable sort keeps equal sums in lexicographic order
    by_sum = np.argsort(sums, kind="stable")
    sorted_sums = sums[by_sum]
    shift = r * (r + 1) // 2
    block = max(1, _BLOCK_ENTRIES // len(bound))
    out = []
    for a in range(len(subsets)):
        target = sums[a] + sums - shift
        lo = np.searchsorted(sorted_sums, target, side="left")
        count = np.searchsorted(sorted_sums, target, side="right") - lo
        b_all = np.repeat(np.arange(len(subsets)), count)
        # position of each candidate within its (a, b) run of equal-sum K
        offset = np.arange(len(b_all)) - np.repeat(np.cumsum(count) - count, count)
        c_all = by_sum[np.repeat(lo, count) + offset]
        slack = bound - part_i[a]
        for lo_c in range(0, len(b_all), block):
            b, c = b_all[lo_c:lo_c + block], c_all[lo_c:lo_c + block]
            ok = (part_j[b] - part_k[c] <= slack).all(axis=1)
            out.extend((subsets[a], subsets[j], subsets[k])
                       for j, k in zip(b[ok].tolist(), c[ok].tolist()))
    # a ascending, then b ascending, then K lexicographic within one sum
    return TripleSet(n=n, r=r, triples=tuple(out))


@lru_cache(maxsize=None)
def _selectors(r: int):
    """The admissible (F, G, H) of every cardinality p < r in 1..r as 0/1
    position selectors ``sel_i``, ``sel_j``, ``sel_k`` of shape (r, T), one
    column per triple, and the bound p(p+1)/2 of each column."""
    sets = [triple_set(r, p).triples for p in range(1, r)]
    total = sum(len(ts) for ts in sets)
    sel = np.zeros((3, r, total), dtype=np.int16)
    bound = np.empty(total, dtype=np.int16)
    col = 0
    for p, ts in enumerate(sets, start=1):
        idx = np.asarray(ts, dtype=np.intp) - 1       # (T_p, 3, p)
        cols = np.arange(col, col + len(ts))[:, None]
        for side in range(3):
            sel[side, idx[:, side, :], cols] = 1
        bound[col:col + len(ts)] = p * (p + 1) // 2
        col += len(ts)
    return sel[0], sel[1], sel[2], bound


def all_triples(n: int) -> tuple[TripleSet, ...]:
    """Triple sets of every cardinality 1 <= r < n."""
    if n < 2:
        raise BadCardinality(f"need n >= 2, got {n}")
    return tuple(triple_set(n, r) for r in range(1, n))


@lru_cache(maxsize=None)
def flat_index_arrays(n: int):
    """All triples for 1 <= r < n flattened to CSR index arrays.

    Returns ``(ii, jj, kk, offsets, triples)`` with 0-based indices; segment
    t of the flat arrays holds the indices of ``triples[t]``.
    """
    triples: list[Triple] = []
    for ts in all_triples(n):
        triples.extend(ts.triples)
    ii, jj, kk, offs = [], [], [], [0]
    for I, J, K in triples:
        ii.extend(x - 1 for x in I)
        jj.extend(x - 1 for x in J)
        kk.extend(x - 1 for x in K)
        offs.append(len(ii))
    return (np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64),
            np.asarray(kk, dtype=np.int64), np.asarray(offs, dtype=np.int64),
            tuple(triples))


@dataclass(frozen=True)
class HornReport:
    """Outcome of the inequality battery for one (tau, alpha, beta) triple.

    ``worst_margin`` is the smallest log-domain slack ``rhs - lhs`` over all
    inequalities (+inf when no inequality applies or the left side vanishes,
    -inf when a zero right side faces a nonzero left side).
    ``product_equality`` reports the determinant identity
    prod tau = prod alpha * prod beta, evaluated only when all three
    sequences are strictly positive (None otherwise).
    """

    feasible: bool
    worst_margin: float
    violated: tuple[Triple, ...]
    product_equality: bool | None


def _validated(name: str, values, length: int | None) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise LengthMismatch(f"{name} must be one-dimensional")
    if length is not None and len(arr) != length:
        raise LengthMismatch(f"{name} has length {len(arr)}, expected {length}")
    if len(arr) and (arr < 0).any():
        raise NotSorted(f"{name} contains negative entries")
    if len(arr) > 1 and (np.diff(arr) > 1e-12).any():
        raise NotSorted(f"{name} is not descending")
    return arr


def _log_with_inf(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(values)


def check_product_inequalities(tau, alpha, beta, *, slack: float = 1e-9) -> HornReport:
    """Evaluate every multiplicative inequality for the given singular values.

    All three sequences must be descending, non-negative and of one common
    length L.  Inequalities are compared in the log domain with a relative
    slack; equalities count as satisfied.
    """
    tau = _validated("tau", tau, None)
    alpha = _validated("alpha", alpha, len(tau))
    beta = _validated("beta", beta, len(tau))
    length = len(tau)
    if length <= 1:
        eq = _product_equality(tau, alpha, beta, slack=slack)
        return HornReport(feasible=True, worst_margin=np.inf, violated=(),
                          product_equality=eq)

    ii, jj, kk, offs, triples = flat_index_arrays(length)
    # per-triple log sums; a -inf (zero value) propagates through its sum
    starts = offs[:-1]
    rhs = (np.add.reduceat(_log_with_inf(alpha)[ii], starts)
           + np.add.reduceat(_log_with_inf(beta)[jj], starts))
    lhs = np.add.reduceat(_log_with_inf(tau)[kk], starts)

    log_slack = np.log1p(slack)
    with np.errstate(invalid="ignore"):
        margins = np.where(np.isneginf(lhs), np.inf,
                           np.where(np.isneginf(rhs), -np.inf, rhs - lhs))
    bad = margins < -log_slack
    violated = tuple(t for t, flag in zip(triples, bad) if flag)
    worst = float(margins.min())
    eq = _product_equality(tau, alpha, beta, slack=slack)
    return HornReport(feasible=not bad.any(), worst_margin=worst,
                      violated=violated, product_equality=eq)


def _product_equality(tau, alpha, beta, *, slack: float = 1e-9) -> bool | None:
    if len(tau) == 0:
        return True
    if min(tau.min(), alpha.min(), beta.min()) <= 0.0:
        return None
    lhs = np.log(tau).sum()
    rhs = np.log(alpha).sum() + np.log(beta).sum()
    return bool(abs(lhs - rhs) <= slack * max(1.0, abs(lhs), abs(rhs)))


def product_singulars_feasible(tau, alpha, beta, *, slack: float = 1e-9) -> bool:
    """Whether tau can be the singular values of D_alpha Q D_beta.

    True when every multiplicative inequality holds and, for strictly
    positive alpha and beta, the product equality
    prod tau = prod alpha * prod beta holds as well (a zero in tau then
    rules the triple out).  Zeros in alpha or beta fall back to the
    one-sided inequality bounds.
    """
    report = check_product_inequalities(tau, alpha, beta, slack=slack)
    if not report.feasible:
        return False
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if len(alpha) == 0 or alpha.min() <= 0.0 or beta.min() <= 0.0:
        return True
    log_rhs = np.log(alpha).sum() + np.log(beta).sum()
    if (tau <= 0.0).any():
        return False
    log_lhs = np.log(tau).sum()
    return bool(abs(log_lhs - log_rhs) <= slack * max(1.0, abs(log_lhs), abs(log_rhs)))
