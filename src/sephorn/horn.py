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

Each set is searched only where 2r <= n, and there only for J >= I: it is
closed under swapping I and J, and the sets of cardinality r and n - r are
images of each other under S -> S* = {n + 1 - x : x not in S}.  It is
cached once as an array of subset indices, which the public tuples and the
battery's table read.  The search of cardinality r takes its lower
inequalities, those of every cardinality p < r in 1..r, from the battery's
table at length r, so ``subset_table`` is the one place that lays them out.

Each side of an inequality is a subset sum of logs, and there are only 2^L
subsets against T triples (T = 8 752 at L = 8), so the battery takes every
subset's log-sum with one matrix product and reads each inequality from
that table by the bitmasks of I, J and K, cached per L in ``subset_table``.
A call validates its three sequences once, as one (3, L) stack, and only an
input holding a zero takes the masking that sets such subsets to -inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, log1p

import numpy as np

from .config import DESCENDING_TOL, HORN_SLACK
from .errors import BadCardinality, LengthMismatch, NotSorted, TripleCapExceeded

# the largest n whose cold all_triples(n) stays near half a gigabyte: n = 12
# gives 5.2 million triples, and n = 13 about 28 million, each held as a
# Python tuple
MAX_N = 12

# int16 entries per temporary in ``_search``: a stage testing c columns takes
# 2^16 // c candidates a block.  At n <= MAX_N the widest table of lower
# inequalities is r = 6's (T = 522, 147 of p <= 2): 445 candidates a
# first-stage block, 174 a second-stage one, 128 KB per temporary
_BLOCK_ENTRIES = 1 << 16

Triple = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


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

    A triple (I, J, K) must satisfy the total-sum identity
    sum(I) + sum(J) = sum(K) + r(r+1)/2 and, for every p < r and every
    admissible (F, G, H) of cardinality p in 1..r, the position-selected
    inequality sum_{f in F} i_f + sum_{g in G} j_g <= sum_{h in H} k_h
    + p(p+1)/2.  At r = 1 there is no lower inequality, and the identity
    alone gives i + j = k + 1.  The set is built once, as an index array
    (``_index_triples``), from its two symmetries: it is closed under
    swapping I and J, and it is the image of the set of cardinality n - r
    under S -> S* = {n + 1 - x : x not in S} on each side (Fulton,
    math/9908012).  So only 2r <= n is searched, and only for J >= I.  The
    triples share their index-set tuples.  The number of triples, and with
    it time and memory, grows about fivefold per step of n, so n is capped
    at ``MAX_N``.
    """
    if n > MAX_N:
        raise TripleCapExceeded(f"triple enumeration capped at n <= {MAX_N}, got {n}")
    if not 1 <= r < n:
        raise BadCardinality(f"need 1 <= r < n, got r={r}, n={n}")
    sides = _subsets(n, r)[0][_index_triples(n, r).T]
    return TripleSet(n=n, r=r, triples=tuple(zip(*sides.tolist())))


@lru_cache(maxsize=None)
def _subsets(n: int, r: int):
    """The r-subsets of 1..n in lexicographic order, as an object array of
    tuples and as the rows of a (C, r) int16 array; a subset's index is its
    place in both."""
    count = comb(n, r)
    subsets = np.fromiter(combinations(range(1, n + 1), r), dtype=object, count=count)
    rows = np.array(subsets.tolist(), dtype=np.int16).reshape(count, r)
    subsets.flags.writeable = rows.flags.writeable = False
    return subsets, rows


def _masks(rows: np.ndarray) -> np.ndarray:
    """The bitmask of each row of subsets, index i as bit i - 1."""
    return (1 << (rows.astype(np.intp) - 1)).sum(axis=1)


@lru_cache(maxsize=None)
def _index_triples(n: int, r: int) -> np.ndarray:
    """Admissible triples of cardinality r in 1..n as a read-only (T, 3)
    int16 array, each row the indices of I, J and K in ``_subsets(n, r)``,
    rows in lexicographic order.

    For 2r > n this is the image of the set of cardinality n - r under
    S -> S*.  Otherwise ``_search`` gives the triples with J >= I and the
    rest are their mirrors."""
    if 2 * r > n:
        index = _duals(n, n - r)[_index_triples(n, n - r)]
    else:
        index = _search(n, r)
        mirror = index[index[:, 0] != index[:, 1]][:, [1, 0, 2]]
        index = np.concatenate([index, mirror])
    index = index[np.lexsort(index.T[::-1])]
    index.flags.writeable = False
    return index


def _duals(n: int, p: int) -> np.ndarray:
    """For each p-subset S of 1..n, the index of S* = {n + 1 - x : x not in S}
    among the (n - p)-subsets: x in S clears bit n - x of the full mask."""
    rows = _subsets(n, p)[1]
    place = np.empty(1 << n, dtype=np.int16)
    place[_masks(_subsets(n, n - p)[1])] = np.arange(comb(n, p))
    return place[((1 << n) - 1) ^ (1 << (n - rows.astype(np.intp))).sum(axis=1)]


def _search(n: int, r: int) -> np.ndarray:
    """The admissible triples of cardinality r in 1..n with J >= I, as
    (T, 3) int16 subset indices.

    The candidates are every pair I <= J with each K of the sum the identity
    asks, numbered pair by pair.  The lower inequalities are the columns of
    the battery's ``subset_table(r)``, in its order: cardinality p ascending.
    The first stage tests the candidates in blocks of consecutive numbers
    against the columns of p <= 2, which reject most failing candidates, and
    the second the pooled survivors against the rest, each in blocks sized
    by the columns it tests.
    """
    rows = _subsets(n, r)[1]
    sums = rows.sum(axis=1, dtype=np.intp)
    # K by sum; the stable sort keeps equal sums in lexicographic order
    by_sum = np.argsort(sums, kind="stable")
    sorted_sums = sums[by_sum]
    pair_i, pair_j = np.triu_indices(len(rows))
    target = sums[pair_i] + sums[pair_j] - r * (r + 1) // 2
    lo = np.searchsorted(sorted_sums, target, side="left")
    ends = np.cumsum(np.searchsorted(sorted_sums, target, side="right") - lo)
    # candidate t of pair q is K = by_sum[t + offset[q]], for ends[q - 1] <= t < ends[q]
    offset = lo - np.concatenate([[0], ends[:-1]])
    total = int(ends[-1])

    def candidates(t):
        q = np.searchsorted(ends, t, side="right")
        return pair_i[q], pair_j[q], by_sum[t + offset[q]]
    if r == 1:                                                    # no lower inequality
        return np.stack(candidates(np.arange(total)), axis=1).astype(np.int16)

    members, positions, _ = subset_table(r)
    masks = positions & ((1 << r) - 1)                            # (3, T) bitmasks of F, G, H
    # partial sums of every lower inequality, per subset; entries are at most
    # r * MAX_N, so int16 holds them, their sums and their differences
    table = rows @ members.astype(np.int16)
    # take keeps the rows C-ordered, where table[:, side] would not, which
    # made the row gathers below half as fast
    part_i, part_j, part_k = (table.take(side, axis=1) for side in masks)
    p = members.sum(axis=0, dtype=np.int16)[masks[0]]             # each column's cardinality p
    bound = p * (p + 1) // 2
    head = np.searchsorted(bound, 3, side="right")                # columns of p <= 2
    # a flag per candidate, so that the survivors pool in one array; their
    # numbers fit int32 (total is 3.7 million at n = 12, r = 6)
    first = np.empty(total, dtype=bool)
    block = _BLOCK_ENTRIES // head
    for start in range(0, total, block):
        i, j, k = candidates(np.arange(start, min(start + block, total)))
        first[start:start + block] = (part_i[i, :head] + part_j[j, :head] - part_k[k, :head]
                                      <= bound[:head]).all(axis=1)
    survivors = np.flatnonzero(first).astype(np.int32)
    rest = np.empty(len(survivors), dtype=bool)
    block = _BLOCK_ENTRIES // max(len(bound) - head, 1)
    for start in range(0, len(survivors), block):
        i, j, k = candidates(survivors[start:start + block])
        rest[start:start + block] = (part_i[i, head:] + part_j[j, head:] - part_k[k, head:]
                                     <= bound[head:]).all(axis=1)
    return np.stack(candidates(survivors[rest]), axis=1).astype(np.int16)


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
    the flat tuple of ``all_triples(n)`` in order.  The columns run by
    cardinality, then lexicographically; ``_search`` of cardinality n reads
    them as its lower inequalities.
    """
    sets = all_triples(n)
    masks = np.concatenate([_masks(_subsets(n, r)[1])[_index_triples(n, r)]
                            for r in range(1, n)])                 # (T, 3)
    # C-ordered, as ``take`` wants its indices: it copies any other order on
    # every call
    positions = np.ascontiguousarray(masks.T) + (np.arange(3)[:, None] << n)
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

# the smallest log-domain margin that passes: the relative slack HORN_SLACK
_MARGIN_FLOOR = -log1p(HORN_SLACK)


def _validated(tau, alpha, beta) -> tuple[np.ndarray, bool]:
    """alpha, beta and tau as the rows of one (3, L) array, and whether a value
    is zero.  One test passes every valid stack; a failing input is diagnosed
    by shape, then by fault, naming the first row with it."""
    try:
        x = np.array((alpha, beta, tau), dtype=float)
    except (TypeError, ValueError):                      # ragged, or not numbers
        x = None
    if x is None or x.ndim != 2:
        rows = [np.asarray(v, dtype=float) for v in (alpha, beta, tau)]
        for name, row in zip(_NAMES, rows):
            if row.ndim != 1:
                raise LengthMismatch(f"{name} must be one-dimensional")
            if len(row) != len(rows[0]):
                raise LengthMismatch(f"{name} has length {len(row)}, alpha has {len(rows[0])}")
        x = np.array(rows)
    # min and max are nan if any entry is, and initial= lets L <= 1 through
    low = x.min(initial=np.inf)
    if (low >= 0.0 and x.max(initial=0.0) < np.inf
            and (x[:, 1:] - x[:, :-1]).max(initial=-np.inf) <= DESCENDING_TOL):
        return x, low == 0.0
    if not np.isfinite(x).all():
        raise NotSorted(f"{_first_row(~np.isfinite(x))} contains non-finite entries")
    if (x < 0).any():
        raise NotSorted(f"{_first_row(x < 0)} contains negative entries")
    raise NotSorted(f"{_first_row(x[:, 1:] - x[:, :-1] > DESCENDING_TOL)} is not descending")


def _first_row(mask: np.ndarray) -> str:
    return _NAMES[int(np.argmax(mask.any(axis=1)))]


def check_product_inequalities(tau, alpha, beta) -> HornReport:
    """Evaluate every multiplicative inequality for the given singular values.

    All three sequences must be finite, descending, non-negative and of one
    common length L, which one test on their (3, L) stack checks.
    Inequalities are compared in the log domain with the relative slack
    ``HORN_SLACK``; equalities count as satisfied.  One product with the cached
    ``subset_table(L)`` gives the log-sum of every subset of alpha, beta and
    tau, -inf for one holding a zero (masked only when a value is zero), and
    one gather by position reads both sides of all T inequalities, so a call
    costs O(L 2^L + T) and holds no Python loop over the triples.
    ``violated`` lists the failing triples in the order of ``all_triples(L)``.
    """
    values, has_zero = _validated(tau, alpha, beta)
    length = values.shape[1]
    if has_zero:
        zero = values == 0.0                               # -0.0 too
        values = np.where(zero, 1.0, values)               # log 1 = 0, then masked
    logs = np.log(values)
    eq = _product_equality(logs, has_zero)
    if length <= 1:
        return HornReport(feasible=True, worst_margin=np.inf, violated=(), product_equality=eq)

    members, positions, triples = subset_table(length)
    sums = logs @ members
    if has_zero:
        sums[zero @ members > 0] = -np.inf                 # a subset holding a zero
    margins, beta_j, tau_k = sums.ravel().take(positions)  # alpha_i, beta_j, tau_k
    margins += beta_j
    # an errstate on every call would add 1.3-2.2 us, 8-13% of a plain call at L = 4
    if has_zero:
        with np.errstate(invalid="ignore"):
            margins -= tau_k                               # nan is -inf - -inf: the left
        margins[np.isnan(margins)] = np.inf                # side vanishes, so it holds
    else:
        margins -= tau_k
    bad = (margins < _MARGIN_FLOOR).nonzero()[0]
    violated = tuple(map(triples.__getitem__, bad.tolist()))
    return HornReport(feasible=not violated, worst_margin=float(margins.min()),
                      violated=violated, product_equality=eq)


def _product_equality(logs, has_zero: bool) -> bool | None:
    """The determinant identity on the (3, L) logs of alpha, beta and tau,
    None when a value vanishes."""
    if logs.shape[1] == 0:
        return True
    if has_zero:
        return None
    log_alpha, log_beta, lhs = logs.sum(axis=1).tolist()
    rhs = log_alpha + log_beta
    return abs(lhs - rhs) <= HORN_SLACK * max(1.0, abs(lhs), abs(rhs))


def product_singulars_feasible(tau, alpha, beta) -> bool:
    """Whether tau can be the singular values of D_alpha Q D_beta.

    True when every multiplicative inequality holds and, for strictly
    positive alpha and beta, the product equality
    prod tau = prod alpha * prod beta holds as well (a zero in tau then
    rules the triple out).  Zeros in alpha or beta fall back to the
    one-sided inequality bounds.
    """
    report = check_product_inequalities(tau, alpha, beta)
    if not report.feasible:
        return False
    if report.product_equality is not None:
        return report.product_equality
    # some value is zero: in alpha or beta only the inequalities apply
    return bool(min(np.min(alpha), np.min(beta)) <= 0.0)
