import hashlib
import itertools

import numpy as np
import pytest

from helpers import batch_min_margin, loop_triple_set, random_orthogonal
from sephorn.config import HORN_SLACK
from sephorn.errors import (BadCardinality, LengthMismatch, NotSorted, SepHornError,
                            TripleCapExceeded)
from sephorn.horn import (
    MAX_N,
    HornReport,
    all_triples,
    check_product_inequalities,
    product_singulars_feasible,
    triple_set,
    _index_triples,
)

# hand-enumerated from the base rule i + j = k + 1
T_1_2 = (((1,), (1,), (1,)), ((1,), (2,), (2,)), ((2,), (1,), (2,)))

# frozen output of the inductive procedure, cross-validated below by the
# random-Hermitian eigenvalue oracle
T_2_3 = (
    ((1, 2), (1, 2), (1, 2)),
    ((1, 2), (1, 3), (1, 3)),
    ((1, 2), (2, 3), (2, 3)),
    ((1, 3), (1, 2), (1, 3)),
    ((1, 3), (1, 3), (2, 3)),
    ((2, 3), (1, 2), (2, 3)),
)


# SHA-256 of the index arrays of ``_index_triples(11, r)`` for r = 1..10, in
# order, recorded from the search that sized every block by all lower
# inequalities
INDEX_11_SHA256 = "52db331c30aade69782e342cfce3e3cf7ad815cbd72e37987ac0cd0db6ee550d"


class TestTripleSets:
    def test_base_case_n2(self):
        assert triple_set(2, 1).triples == T_1_2

    def test_base_case_n3(self):
        ts = triple_set(3, 1)
        assert len(ts) == 6
        assert ((2,), (2,), (3,)) in ts.triples

    def test_inductive_n3(self):
        assert triple_set(3, 2).triples == T_2_3

    def test_known_counts(self):
        # totals 12 / 41 / 142 for n = 3 / 4 / 5 match the classical tables
        assert [len(t) for t in all_triples(3)] == [6, 6]
        assert [len(t) for t in all_triples(4)] == [10, 21, 10]
        assert [len(t) for t in all_triples(5)] == [15, 56, 56, 15]

    def test_all_triples_n2(self):
        sets = all_triples(2)
        assert len(sets) == 1 and sets[0].triples == T_1_2

    def test_revalidation(self):
        # every emitted triple satisfies the defining constraints
        for r in (1, 2, 3):
            for I, J, K in triple_set(4, r):
                assert sum(I) + sum(J) == sum(K) + r * (r + 1) // 2
                for p in range(1, r):
                    for F, G, H in triple_set(r, p):
                        lhs = sum(I[f - 1] for f in F) + sum(J[g - 1] for g in G)
                        assert lhs <= sum(K[h - 1] for h in H) + p * (p + 1) // 2

    def test_bad_cardinality(self):
        with pytest.raises(BadCardinality):
            triple_set(3, 0)
        with pytest.raises(BadCardinality):
            triple_set(3, 3)

    def test_cap(self):
        with pytest.raises(TripleCapExceeded):
            triple_set(17, 1)

    def test_cap_starts_above_max_n(self):
        with pytest.raises(TripleCapExceeded):
            triple_set(MAX_N + 1, 1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_loop_reference(self, n):
        for r in range(1, n):
            assert triple_set(n, r).triples == loop_triple_set(n, r)

    def test_n11_matches_recorded_digest(self):
        # one step past the CLI digests' n <= 10
        digest = hashlib.sha256()
        for r in range(1, 11):
            digest.update(_index_triples(11, r).tobytes())
        assert digest.hexdigest() == INDEX_11_SHA256

    @pytest.mark.parametrize("n", range(2, 7))
    def test_loop_reference_is_closed_under_swapping_i_and_j(self, n):
        for r in range(1, n):
            triples = loop_triple_set(n, r)
            assert {(J, I, K) for I, J, K in triples} == set(triples)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_loop_reference_of_n_minus_r_is_the_dual_image(self, n):
        # S* = {n + 1 - x : x not in S}, on each of I, J and K
        def dual(s):
            return tuple(n + 1 - x for x in range(n, 0, -1) if x not in s)

        for r in range(1, n):
            image = sorted(tuple(map(dual, t)) for t in loop_triple_set(n, r))
            assert tuple(image) == loop_triple_set(n, n - r)

    def test_additive_oracle_sample(self):
        # eigenvalues of (A, B, A+B) never violate the emitted inequalities
        rng = np.random.default_rng(2024)
        for n in (3, 4):
            trips = [t for ts in all_triples(n) for t in ts]
            for _ in range(500):
                g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                a = (g + g.conj().T) / 2
                g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                b = (g + g.conj().T) / 2
                ea = np.sort(np.linalg.eigvalsh(a))[::-1]
                eb = np.sort(np.linalg.eigvalsh(b))[::-1]
                ec = np.sort(np.linalg.eigvalsh(a + b))[::-1]
                for I, J, K in trips:
                    lhs = sum(ec[k - 1] for k in K)
                    rhs = sum(ea[i - 1] for i in I) + sum(eb[j - 1] for j in J)
                    assert lhs <= rhs + 1e-9


def test_multiplicative_product_oracle():
    # singular values of real products C = AB never violate the battery
    rng = np.random.default_rng(314)
    for n in (2, 3, 4):
        a = rng.normal(size=(10_000, n, n))
        b = rng.normal(size=(10_000, n, n))
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        sc = np.linalg.svd(a @ b, compute_uv=False)
        with np.errstate(divide="ignore"):
            margins = batch_min_margin(np.log(sa), np.log(sb), np.log(sc))
        assert float(margins.min()) >= -1e-9


def rejected_sum_candidates(n):
    """Sum-condition holders that fail the induction."""
    out = []
    for r in range(2, n):
        accepted = set(triple_set(n, r).triples)
        shift = r * (r + 1) // 2
        subsets = [tuple(c) for c in itertools.combinations(range(1, n + 1), r)]
        for I, J, K in itertools.product(subsets, repeat=3):
            if sum(I) + sum(J) == sum(K) + shift and (I, J, K) not in accepted:
                out.append((r, (I, J, K)))
    return out


def test_rejected_candidates_exist_for_n4():
    assert len(rejected_sum_candidates(4)) == 6


def battery_inputs(rng, length):
    """Singular values of D_alpha Q D_beta, the same with tau_1 lifted above
    alpha_1 beta_1, and zero-padded variants of both sides."""
    alpha, beta = (np.sort(rng.uniform(0.2, 1.5, size=length))[::-1] for _ in range(2))
    q = random_orthogonal(length, rng)
    tau = np.linalg.svd((alpha[:, None] * q) * beta[None, :], compute_uv=False)
    lifted = tau.copy()
    lifted[0] = 1.05 * alpha[0] * beta[0]
    cut = int(rng.integers(1, length))
    alpha_low, tau_low, beta_low = alpha.copy(), tau.copy(), beta.copy()
    alpha_low[cut:] = 0.0
    tau_low[cut:] = 0.0
    beta_low[cut:] = 0.0
    return [(tau, alpha, beta), (lifted, alpha, beta),
            (tau_low, alpha_low, beta), (tau_low, alpha, beta),
            (tau, alpha, beta_low)]


def digest_inputs():
    """The inputs of the battery digest: L = 0..8 with product, r = 1-perturbed,
    zero-padded and all-equal inputs, a zero in tau only and -0.0 values."""
    cases = [([], [], []), ([0.5], [1.0], [0.5]), ([2.0], [1.0], [1.0]),
             ([0.0], [1.0], [0.5]), ([-0.0], [1.0], [0.5]), ([0.5], [0.0], [1.0])]
    rng = np.random.default_rng(3737)
    for length in range(2, 9):
        for _ in range(2):
            product, *others = battery_inputs(rng, length)
            tau, alpha, beta = product
            tau_zero, tau_minus, alpha_minus = tau.copy(), tau.copy(), alpha.copy()
            tau_zero[-1] = 0.0
            tau_minus[-1] = alpha_minus[-1] = -0.0
            cases += [product, *others, (tau_zero, alpha, beta), (tau_minus, alpha, beta),
                      (tau_zero, alpha_minus, beta)]
        ones = np.ones(length)
        cases += [(ones, ones, ones), (0.49 * ones, 0.7 * ones, 0.7 * ones),
                  (0.5 * ones, 0.7 * ones, 0.7 * ones)]
    return cases


# SHA-256 of the reports over ``digest_inputs``, recorded from the battery
# that masked zeros on every input
BATTERY_SHA256 = "78fa87f884c5e4ca83a5fbd463de659ea24861ea5b834bfd2c92617d55d46400"

NAN, INF = float("nan"), float("inf")
# (tau, alpha, beta), the error and its message, recorded from the validation
# that checked each row apart
VALIDATION_FAILURES = [
    (([1.0], [1.0, 0.5], [1.0, 0.5]), LengthMismatch, "tau has length 1, alpha has 2"),
    (([1.0, 0.5], [1.0, 0.5], [1.0]), LengthMismatch, "beta has length 1, alpha has 2"),
    (([1.0, 0.5], [[1.0, 0.5]], [1.0, 0.5]), LengthMismatch, "alpha must be one-dimensional"),
    (([1.0, 0.5], [1.0, 0.5], [[1.0, 0.5]]), LengthMismatch, "beta must be one-dimensional"),
    (([[1.0, 0.5]], [[1.0, 0.5]], [[1.0, 0.5]]), LengthMismatch,
     "alpha must be one-dimensional"),
    ((1.0, 1.0, 1.0), LengthMismatch, "alpha must be one-dimensional"),
    ((1.0, [1.0], [1.0]), LengthMismatch, "tau must be one-dimensional"),
    (([1.0, NAN], [1.0, 0.5], [1.0, 0.5]), NotSorted, "tau contains non-finite entries"),
    (([1.0, 0.5], [1.0, 0.5], [INF, 0.5]), NotSorted, "beta contains non-finite entries"),
    (([1.0, 0.5], [1.0, -INF], [1.0, 0.5]), NotSorted, "alpha contains non-finite entries"),
    (([1.0, 0.5], [1.0, -0.5], [1.0, 0.5]), NotSorted, "alpha contains negative entries"),
    (([0.5, 1.0], [1.0, 0.5], [1.0, 0.5]), NotSorted, "tau is not descending"),
    (([1.0, 0.5], [1.0, 1.0 + 1e-12], [1.0, 0.5]), NotSorted, "alpha is not descending"),
    # two faults: the kind decides before the row does
    (([1.0, NAN], [1.0, -0.5], [1.0, 0.5]), NotSorted, "tau contains non-finite entries"),
    (([1.0, 0.5], [-0.5, INF], [1.0, 0.5]), NotSorted, "alpha contains non-finite entries"),
    (([-0.5, -1.0], [0.5, 1.0], [1.0, 0.5]), NotSorted, "tau contains negative entries"),
    (([0.5, 1.0], [1.0, 0.5], [1.0, -0.5]), NotSorted, "beta contains negative entries"),
    (([INF, 0.5], [0.5, 1.0], [1.0, 0.5]), NotSorted, "tau contains non-finite entries"),
    # two faults of one kind: alpha before beta before tau
    (([1.0, NAN], [1.0, 0.5], [NAN, 0.5]), NotSorted, "beta contains non-finite entries"),
    (([1.0, NAN], [1.0, 0.5], [1.0, INF]), NotSorted, "beta contains non-finite entries"),
    (([1.0, -0.5], [1.0, -0.5], [1.0, 0.5]), NotSorted, "alpha contains negative entries"),
    (([-1.0, -0.5], [1.0, 0.5], [1.0, -0.5]), NotSorted, "beta contains negative entries"),
    (([0.5, 1.0], [1.0, 0.5], [0.5, 1.0]), NotSorted, "beta is not descending"),
    (([0.5, 1.0], [0.5, 1.0], [0.5, 1.0]), NotSorted, "alpha is not descending"),
    # shape before values
    (([NAN], [1.0, 0.5], [1.0, 0.5]), LengthMismatch, "tau has length 1, alpha has 2"),
    (([1.0, 0.5], [[0.5, 1.0]], [-1.0, 0.5]), LengthMismatch, "alpha must be one-dimensional"),
]


def loop_report(tau, alpha, beta, slack=1e-9):
    """Reference for ``check_product_inequalities``: one triple at a time,
    in the order of ``all_triples``, with log 0 = -inf."""
    with np.errstate(divide="ignore"):
        lt, la, lb = (np.log(np.asarray(v, dtype=float)).tolist()
                      for v in (tau, alpha, beta))
    margins, violated = [], []
    for ts in all_triples(len(tau)):
        for I, J, K in ts:
            rhs = sum(la[i - 1] for i in I) + sum(lb[j - 1] for j in J)
            lhs = sum(lt[k - 1] for k in K)
            margin = np.inf if lhs == -np.inf else (-np.inf if rhs == -np.inf else rhs - lhs)
            margins.append(margin)
            if margin < -np.log1p(slack):
                violated.append((I, J, K))
    if -np.inf in lt + la + lb:
        equality = None
    else:
        lhs, rhs = sum(lt), sum(la) + sum(lb)
        equality = abs(lhs - rhs) <= slack * max(1.0, abs(lhs), abs(rhs))
    return HornReport(feasible=not violated, worst_margin=min(margins),
                      violated=tuple(violated), product_equality=equality)


class TestProductInequalities:
    def test_all_ones_boundary(self):
        report = check_product_inequalities([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        assert report.feasible
        assert abs(report.worst_margin) < 1e-12
        assert report.product_equality is True

    def test_bell_like_all_ones(self):
        report = check_product_inequalities([1.0] * 3, [1.0] * 3, [1.0] * 3)
        assert report.feasible and report.product_equality is True

    def test_numpy_inputs_give_plain_bools(self):
        seq = np.array([1.0, 0.5], dtype=np.float64)
        report = check_product_inequalities(seq, seq, np.ones(2))
        assert report.product_equality is True and report.feasible is True
        assert product_singulars_feasible(seq, seq, np.ones(2)) is True

    def test_slack_is_horn_slack(self):
        # tau_1 <= alpha_1 beta_1 and the determinant identity both hold up
        # to a relative HORN_SLACK, and fail beyond it
        for excess, holds in [(0.5, True), (2.0, False)]:
            tau = [1.0 + excess * HORN_SLACK, 1.0]
            report = check_product_inequalities(tau, [1.0, 1.0], [1.0, 1.0])
            assert report.feasible is holds and report.product_equality is holds
            assert ((((1,), (1,), (1,)) in report.violated) is not holds)
            assert product_singulars_feasible(tau, [1.0, 1.0], [1.0, 1.0]) is holds

    def test_top_singular_violation(self):
        report = check_product_inequalities([2.0, 0.5], [1.0, 1.0], [1.0, 1.0])
        assert not report.feasible
        assert ((1,), (1,), (1,)) in report.violated

    def test_zero_handling(self):
        report = check_product_inequalities([1.0, 0.0], [1.0, 1.0], [1.0, 0.0])
        assert report.feasible
        assert report.product_equality is None  # zeros present

    def test_zero_right_side_violation(self):
        report = check_product_inequalities([1.0, 1.0], [1.0, 1.0], [1.0, 0.0])
        assert not report.feasible
        assert report.worst_margin == -np.inf

    def test_zeros_match_loop_reference(self):
        # log 0 = -inf must propagate through every per-triple sum; compare
        # the vectorized battery with a plain loop over the triples
        rng = np.random.default_rng(1)
        tau, alpha, beta = (np.sort(rng.uniform(0.2, 1.5, size=4))[::-1] for _ in range(3))
        alpha[1:] = 0.0
        tau[-1] = 0.0
        with np.errstate(divide="ignore"):
            la, lb, lt = np.log(alpha), np.log(beta), np.log(tau)
        want_margins, want_violated = [], []
        for ts in all_triples(4):
            for I, J, K in ts:
                rhs = sum(la[i - 1] for i in I) + sum(lb[j - 1] for j in J)
                lhs = sum(lt[k - 1] for k in K)
                margin = np.inf if lhs == -np.inf else (-np.inf if rhs == -np.inf else rhs - lhs)
                want_margins.append(margin)
                if margin < -np.log1p(1e-9):
                    want_violated.append((I, J, K))
        report = check_product_inequalities(tau, alpha, beta)
        assert -np.inf in want_margins and np.inf in want_margins
        assert report.worst_margin == min(want_margins)
        assert set(report.violated) == set(want_violated)
        assert report.feasible == (not want_violated)

    @pytest.mark.parametrize("length", range(2, 9), ids=lambda n: f"L={n}")
    def test_matches_loop_reference(self, length):
        # product, r = 1-perturbed and zero-padded inputs against a plain
        # loop over the triples, in the battery's own triple order
        rng = np.random.default_rng(700 + length)
        for _ in range(2):
            for tau, alpha, beta in battery_inputs(rng, length):
                want = loop_report(tau, alpha, beta)
                report = check_product_inequalities(tau, alpha, beta)
                assert report.feasible == want.feasible
                assert report.violated == want.violated
                assert report.product_equality == want.product_equality
                if np.isinf(want.worst_margin):
                    assert report.worst_margin == want.worst_margin
                else:
                    assert abs(report.worst_margin - want.worst_margin) <= 1e-12

    def test_feasible_iff_no_violations(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = [np.sort(rng.uniform(0, 2, size=3))[::-1] for _ in range(3)]
            report = check_product_inequalities(*vals)
            assert report.feasible == (len(report.violated) == 0)

    def test_validation_errors(self):
        with pytest.raises(LengthMismatch):
            check_product_inequalities([1.0], [1.0, 0.5], [1.0, 0.5])
        with pytest.raises(NotSorted):
            check_product_inequalities([0.5, 1.0], [1.0, 0.5], [1.0, 0.5])
        with pytest.raises(NotSorted):
            check_product_inequalities([1.0, -0.5], [1.0, 0.5], [1.0, 0.5])


    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # a non-finite value has no subset sum to read the inequalities from
        with pytest.raises(NotSorted):
            check_product_inequalities([1.0, 0.5], [bad, 0.5], [1.0, 0.5])

    @pytest.mark.parametrize("args, error, message", VALIDATION_FAILURES,
                             ids=[f"{i}" for i in range(len(VALIDATION_FAILURES))])
    def test_validation_messages(self, args, error, message):
        # shape faults come first, row by row; then non-finite, negative and
        # rising values, in that order, each naming the first row with it
        with pytest.raises(SepHornError) as caught:
            check_product_inequalities(*args)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_rise_within_tolerance_passes(self):
        for length in (2, 5):
            alpha = np.linspace(1.0, 0.5, length)
            alpha[1] = alpha[0] + 3e-13
            report = check_product_inequalities(alpha * alpha, alpha, alpha)
            assert report.feasible and report.product_equality is True

    def test_float_conversion_errors_pass_through(self):
        for bad in ("ab", ["ab", 0.5]):
            with pytest.raises(ValueError, match="could not convert string to float"):
                check_product_inequalities([1.0, 0.5], bad, [1.0, 0.5])

    def test_reports_match_recorded_digest(self):
        # every report bit for bit, worst margin included, so that a changed
        # summation order shows
        digest = hashlib.sha256()
        for tau, alpha, beta in digest_inputs():
            report = check_product_inequalities(tau, alpha, beta)
            digest.update(repr((report.feasible, report.worst_margin.hex(), report.violated,
                                report.product_equality)).encode())
        assert digest.hexdigest() == BATTERY_SHA256


class TestFeasibility:
    def test_zero_padded_realizable(self):
        assert product_singulars_feasible([1.0, 0.0], [1.0, 1.0], [1.0, 0.0])

    def test_top_violation(self):
        assert not product_singulars_feasible([2.0, 1.0], [1.0, 1.0], [1.0, 1.0])

    def test_strictly_positive_needs_equality(self):
        # diag(1,1) Q diag(1,1) = Q always has singular values (1,1)
        assert not product_singulars_feasible([1.0, 0.0], [1.0, 1.0], [1.0, 1.0])
        assert not product_singulars_feasible([0.9, 0.9], [1.0, 1.0], [1.0, 1.0])
        assert product_singulars_feasible([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])

    def test_uniform_third(self):
        t = 1.0 / 3.0
        s = 1.0 / np.sqrt(3.0)
        assert product_singulars_feasible([t] * 3, [s] * 3, [s] * 3)

    def test_forward_sampling(self):
        # singular values of D_alpha Q D_beta are always feasible
        rng = np.random.default_rng(77)
        for _ in range(100):
            size = int(rng.integers(2, 6))
            alpha = np.sort(rng.uniform(0.05, 2.0, size=size))[::-1]
            beta = np.sort(rng.uniform(0.05, 2.0, size=size))[::-1]
            q = random_orthogonal(size, rng)
            taus = np.linalg.svd((alpha[:, None] * q) * beta[None, :],
                                 compute_uv=False)
            assert product_singulars_feasible(taus, alpha, beta)

    def test_exponential_bridge(self):
        # additive feasibility of eigenvalue triples of (A, B, A+B) maps to
        # multiplicative feasibility of the exponentiated sequences
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            g = rng.normal(size=(n, n))
            a = (g + g.T) / 2
            g = rng.normal(size=(n, n))
            b = (g + g.T) / 2
            ea = np.sort(np.linalg.eigvalsh(a))[::-1]
            eb = np.sort(np.linalg.eigvalsh(b))[::-1]
            ec = np.sort(np.linalg.eigvalsh(a + b))[::-1]
            assert product_singulars_feasible(
                np.exp(ec - ec[0]),
                np.exp(ea - ec[0] / 2.0),
                np.exp(eb - ec[0] / 2.0))
