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

Each side of an inequality is a subset sum of logs, and there are only 2^L
subsets against T triples (T = 8 752 at L = 8), so the battery takes every
subset's log-sum with one matrix product and reads each inequality from
that table by the bitmasks of I, J and K, cached per L in ``subset_table``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .config import HORN_SLACK
from .errors import BadCardinality, LengthMismatch, NotSorted, TripleCapExceeded

# the largest n whose cold all_triples(n) runs within a minute: n = 12 gives
# 5.2 million triples, and n = 13 about 28 million
MAX_N = 12

# candidates per block tested at once in ``triple_set``: enough for 2^16
# int16 entries, and never fewer than _MIN_BLOCK, so a block of T lower
# inequalities holds at most max(2^16, 64 T) entries.  At n <= MAX_N one
# block also holds no more than one I's candidates; the largest block is at
# n = 12, r = 10 (64 x 191 353 entries, 24 MB per int16 temporary)
_BLOCK_ENTRIES = 1 << 16
_MIN_BLOCK = 64

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
    + p(p+1)/2.  Candidates are tested in blocks of bounded size: first
    against the inequalities of p <= 2, which reject most failing
    candidates, then the block's survivors against all of them.  The
    number of triples, and with it time and memory, grows about fivefold
    per step of n, so n is capped at ``MAX_N``.
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
    block = max(_MIN_BLOCK, _BLOCK_ENTRIES // len(bound))
    head = sum(len(triple_set(r, p)) for p in range(1, min(r, 3)))   # columns of p <= 2
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
            ok = (part_j[b, :head] - part_k[c, :head] <= slack[:head]).all(axis=1)
            b, c = b[ok], c[ok]
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
def subset_table(n: int):
    """Subset-sum table of every triple for 1 <= r < n.

    Returns ``(members, positions, triples)``.  ``members`` is the (n, 2^n)
    0/1 matrix whose column m marks the indices in bitmask m (index i is
    bit i - 1), so for a stack ``x`` of three length-n rows, ``x @ members``
    holds every subset sum of each row.  ``positions`` is the (3, T) array
    of s * 2^n + (bitmask of side s of triple t): the places of I, J and K
    of ``triples[t]`` in that (3, 2^n) table, flattened.  ``triples`` is
    the flat tuple of ``all_triples(n)`` in order.
    """
    sets = all_triples(n)
    masks = np.concatenate([(1 << (np.asarray(ts.triples, dtype=np.intp) - 1)).sum(axis=-1)
                            for ts in sets])                    # (T, 3)
    positions = masks.T + (np.arange(3)[:, None] << n)
    members = ((np.arange(1 << n) >> np.arange(n)[:, None]) & 1).astype(float)
    triples = tuple(t for ts in sets for t in ts.triples)
    return members, positions, triples


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


_NAMES = ("alpha", "beta", "tau")


def _validated(tau, alpha, beta) -> np.ndarray:
    """alpha, beta and tau as the rows of one (3, L) array, each check run
    once on the stack; an error names the first row that fails it."""
    rows = [np.asarray(v, dtype=float) for v in (alpha, beta, tau)]
    for name, row in zip(_NAMES, rows):
        if row.ndim != 1:
            raise LengthMismatch(f"{name} must be one-dimensional")
        if len(row) != len(rows[0]):
            raise LengthMismatch(f"{name} has length {len(row)}, alpha has {len(rows[0])}")
    x = np.array(rows)
    if not np.isfinite(x).all():
        raise NotSorted(f"{_first_row(~np.isfinite(x))} contains non-finite entries")
    if (x < 0).any():
        raise NotSorted(f"{_first_row(x < 0)} contains negative entries")
    rising = x[:, 1:] - x[:, :-1] > 1e-12
    if rising.any():
        raise NotSorted(f"{_first_row(rising)} is not descending")
    return x


def _first_row(mask: np.ndarray) -> str:
    return _NAMES[int(np.argmax(mask.any(axis=1)))]


def check_product_inequalities(tau, alpha, beta, *, slack: float = HORN_SLACK) -> HornReport:
    """Evaluate every multiplicative inequality for the given singular values.

    All three sequences must be finite, descending, non-negative and of one
    common length L.  Inequalities are compared in the log domain with a
    relative slack; equalities count as satisfied.  One product with the cached
    ``subset_table(L)`` gives the log-sum of every subset of alpha, beta and
    tau, with -inf for a subset that holds a zero, and one gather by
    position reads both sides of all T inequalities, so a call costs
    O(L 2^L + T) and holds no Python loop over the triples.  ``violated``
    lists the failing triples in the order of ``all_triples(L)``.
    """
    values = _validated(tau, alpha, beta)
    length = values.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(values)                                 # log 0 = -inf
        zero = np.isneginf(logs)
        eq = _product_equality(logs, zero, slack=slack)
        if length <= 1:
            return HornReport(feasible=True, worst_margin=np.inf, violated=(),
                              product_equality=eq)

        members, positions, triples = subset_table(length)
        # every subset's log-sum, -inf for a subset holding a zero value
        sums = np.where(zero, 0.0, logs) @ members
        sums[zero @ members > 0] = -np.inf
        alpha_i, beta_j, tau_k = sums.ravel().take(positions)
        margins = alpha_i + beta_j - tau_k
    # nan is -inf - -inf: the left side vanishes, so the inequality holds
    margins[np.isnan(margins)] = np.inf
    bad = np.flatnonzero(margins < -np.log1p(slack))
    violated = tuple(map(triples.__getitem__, bad.tolist()))
    return HornReport(feasible=not violated, worst_margin=float(margins.min()),
                      violated=violated, product_equality=eq)


def _product_equality(logs, zero, *, slack: float) -> bool | None:
    """The determinant identity on the (3, L) logs of alpha, beta and tau,
    None when ``zero`` flags a vanishing value."""
    if logs.shape[1] == 0:
        return True
    if zero.any():
        return None
    rhs = logs[0].sum() + logs[1].sum()
    lhs = logs[2].sum()
    return bool(abs(lhs - rhs) <= slack * max(1.0, abs(lhs), abs(rhs)))


def product_singulars_feasible(tau, alpha, beta, *, slack: float = HORN_SLACK) -> bool:
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
    if report.product_equality is not None:
        return report.product_equality
    # some value is zero: in alpha or beta only the inequalities apply
    return bool(min(np.min(alpha), np.min(beta)) <= 0.0)
