import numpy as np
import pytest

from sephorn import criteria
from sephorn.bipartite import compose_state, decompose_state, partial_transpose
from sephorn.criteria import (
    Status,
    analyze,
    kyfan_necessary_check,
    kyfan_norm,
    kyfan_sufficient_check,
    ppt_check,
    two_qubit_decide,
    verify_decomposition,
)
from sephorn.decompose import SeparableDecomposition, werner_decompose
from sephorn.errors import DimensionMismatch, NotNormalForm
from sephorn.horn import check_product_inequalities
from sephorn.linalg import random_unitary
from sephorn.states import bell, isotropic, p_zero, random_density, werner


def random_two_qubit(rng, rank=4):
    rho = random_density(4, rank, rng)
    return decompose_state(rho, 2, 2)


class TestKyFanNorm:
    def test_bell_is_three(self):
        assert abs(kyfan_norm(bell().corr) - 3.0) < 1e-12

    def test_zero(self):
        assert kyfan_norm(np.zeros((3, 3))) == 0.0

    def test_saturated_werner(self):
        assert abs(kyfan_norm(werner(2, 1.0).corr) - 1.0) < 1e-12


class TestNecessary:
    def test_bell_fails_with_margin_two(self):
        check = kyfan_necessary_check(bell())
        assert not check.passed
        assert abs(check.margin - 2.0) < 1e-12

    def test_maximally_mixed_passes(self):
        d = decompose_state(np.eye(4) / 4, 2, 2)
        assert kyfan_necessary_check(d).passed

    def test_qutrit_werner_boundary(self):
        check = kyfan_necessary_check(werner(3, 1.0))
        assert check.passed
        assert abs(check.margin) < 1e-12

    def test_requires_normal_form(self):
        d = decompose_state(compose_state(p_zero(0.3)), 2, 2)
        with pytest.raises(NotNormalForm):
            kyfan_necessary_check(d)


class TestSufficient:
    def test_small_two_qubit_ball(self):
        corr = np.diag([0.3, 0.3, 0.3])
        d = decompose_state(np.eye(4) / 4, 2, 2)
        d = type(d)(dim_a=2, dim_b=2, a=d.a, b=d.b, corr=corr)
        verdict = kyfan_sufficient_check(d)
        assert verdict.status is Status.SEPARABLE
        assert verify_decomposition(verdict.decomposition, d).valid

    def test_saturated_werner_boundary(self):
        verdict = kyfan_sufficient_check(werner(2, 1.0))
        assert verdict.status is Status.SEPARABLE
        assert verify_decomposition(verdict.decomposition, werner(2, 1.0)).valid

    def test_bell_inconclusive(self):
        assert kyfan_sufficient_check(bell()).status is Status.INCONCLUSIVE


class TestPpt:
    def test_bell_fails(self):
        check = ppt_check(bell())
        assert not check.passed
        assert abs(check.min_eigenvalue + 0.5) < 1e-12

    def test_product_passes(self):
        rng = np.random.default_rng(1)
        rho = np.kron(random_density(2, 2, rng), random_density(3, 3, rng))
        assert ppt_check(decompose_state(rho, 2, 3)).passed

    def test_isotropic_above_threshold_fails(self):
        assert not ppt_check(isotropic(3, 0.3)).passed
        assert ppt_check(isotropic(3, 0.2)).passed


class TestTwoQubit:
    def test_bell_entangled(self):
        assert two_qubit_decide(bell()).status is Status.ENTANGLED

    def test_half_werner_separable(self):
        verdict = two_qubit_decide(werner(2, 0.5))
        assert verdict.status is Status.SEPARABLE
        assert verify_decomposition(verdict.decomposition, werner(2, 0.5)).valid

    def test_agrees_with_ppt(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = random_two_qubit(rng)
            verdict = two_qubit_decide(d)
            want = Status.SEPARABLE if ppt_check(d).passed else Status.ENTANGLED
            assert verdict.status is want

    def test_rejects_wrong_dims(self):
        rng = np.random.default_rng(2)
        d = decompose_state(random_density(6, 6, rng), 2, 3)
        with pytest.raises(DimensionMismatch):
            two_qubit_decide(d)

    @pytest.mark.parametrize("state", [p_zero(0.5), bell()], ids=["p_zero", "bell"])
    def test_npt_decided_without_filtering(self, state, monkeypatch):
        def no_filtering(*args, **kwargs):
            raise AssertionError("NPT state was filtered")

        monkeypatch.setattr(criteria, "normal_form", no_filtering)
        verdict = two_qubit_decide(state)
        assert verdict.status is Status.ENTANGLED
        assert [c.name for c in verdict.criteria] == ["ppt"]
        assert not verdict.criteria[0].passed
        assert verdict.criteria[0].margin > 0.0

    def test_separable_logs_ppt_then_boundary(self):
        verdict = two_qubit_decide(werner(2, 0.5))
        assert verdict.status is Status.SEPARABLE
        names = [c.name for c in verdict.criteria]
        assert names[:2] == ["ppt", "two-qubit-boundary"]
        assert verdict.criteria[0].passed and verdict.criteria[1].passed


class TestVerify:
    def test_constructed_valid(self):
        dec = werner_decompose(2, 1.0)
        assert verify_decomposition(dec, werner(2, 1.0)).valid

    def test_oversized_vector_invalid(self):
        dec = werner_decompose(2, 1.0)
        bad = SeparableDecomposition(probs=dec.probs,
                                     r_vectors=1.5 * dec.r_vectors,
                                     s_vectors=dec.s_vectors)
        report = verify_decomposition(bad, werner(2, 1.0))
        assert not report.valid

    def test_bad_probabilities_invalid(self):
        dec = werner_decompose(2, 1.0)
        bad = SeparableDecomposition(probs=dec.probs * 0.9,
                                     r_vectors=dec.r_vectors,
                                     s_vectors=dec.s_vectors)
        assert not verify_decomposition(bad, werner(2, 1.0)).valid


class TestAnalyze:
    def test_pure_product_trivial_factors(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        verdict = analyze(rho, 2, 2)
        assert verdict.status is Status.SEPARABLE
        d = decompose_state(rho, 2, 2)
        assert verify_decomposition(verdict.decomposition, d).valid

    def test_bell_entangled(self):
        assert analyze(compose_state(bell()), 2, 2).status is Status.ENTANGLED

    def test_qutrit_werner_simplex(self):
        verdict = analyze(compose_state(werner(3, 1.0)), 3, 3)
        assert verdict.status is Status.SEPARABLE
        assert len(verdict.decomposition) == 9
        assert verify_decomposition(verdict.decomposition, werner(3, 1.0)).valid

    def test_isotropic_sides_of_threshold(self):
        assert analyze(compose_state(isotropic(3, 0.26)), 3, 3).status is Status.ENTANGLED
        verdict = analyze(compose_state(isotropic(3, 0.24)), 3, 3)
        assert verdict.status is Status.SEPARABLE

    def test_p_zero_entangled(self):
        assert analyze(compose_state(p_zero(0.5)), 2, 2).status is Status.ENTANGLED

    def test_embedded_werner_support_path(self):
        rng = np.random.default_rng(23)
        va = random_unitary(3, rng)[:, :2]
        vb = random_unitary(3, rng)[:, :2]
        iso = np.kron(va, vb)
        rho = iso @ compose_state(werner(2, 0.6)) @ iso.conj().T
        verdict = analyze(rho, 3, 3)
        assert verdict.status is Status.SEPARABLE
        d = decompose_state(rho, 3, 3)
        assert verify_decomposition(verdict.decomposition, d).valid

    def test_mixed_separable_gets_decomposition(self):
        rng = np.random.default_rng(8)
        # convex mixture of product states, spread enough to stay full rank
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(8):
            rho_a = random_density(2, 2, rng)
            rho_b = random_density(2, 2, rng)
            rho += np.kron(rho_a, rho_b) / 8.0
        verdict = analyze(rho, 2, 2)
        assert verdict.status is Status.SEPARABLE
        d = decompose_state(rho, 2, 2)
        assert verify_decomposition(verdict.decomposition, d).valid

    def test_inconclusive_carries_diagnostic(self):
        # qutrit isotropic just below threshold but above the sufficient
        # bound is decided by the family path; break the pattern so the
        # battery has nothing left
        rng = np.random.default_rng(31)
        base = compose_state(isotropic(3, 0.22))
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
        rho = u @ base @ u.conj().T
        verdict = analyze(rho, 3, 3)
        assert verdict.status is Status.INCONCLUSIVE
        envelope = verdict.criteria[-1]
        assert envelope.name == "horn-envelope"
        # the closed form agrees with the full battery against the uniform
        # pure-state envelope alpha = beta = R_+(3)
        taus = np.linalg.svd(decompose_state(rho, 3, 3).corr, compute_uv=False)
        radius = np.full(len(taus), np.sqrt(4.0 / 3.0))
        battery = check_product_inequalities(taus, radius, radius)
        assert envelope.passed and battery.feasible
        assert abs(envelope.margin - np.log(taus[0] / (4.0 / 3.0))) < 1e-9
        assert abs(envelope.margin + battery.worst_margin) < 1e-9

    def test_threshold_isotropic_is_separable(self):
        # p = 1/(N+1) is recovered from the state a few ulps above the
        # threshold; it must still decompose
        for dim in (2, 3, 4, 5):
            p = 1.0 / (dim + 1.0)
            verdict = analyze(compose_state(isotropic(dim, p)), dim, dim)
            assert verdict.status is Status.SEPARABLE, (dim, verdict.criteria)
            assert verify_decomposition(verdict.decomposition, isotropic(dim, p)).valid

    def test_separable_corpus_stays_ppt_after_transpose(self):
        # partial transposition preserves separability on the corpus
        corpus = [werner(2, 0.7), werner(3, 0.9), isotropic(3, 0.1)]
        for d in corpus:
            assert ppt_check(partial_transpose(d)).passed

    def test_soundness_on_2x3_states(self):
        # verdicts never contradict the partial-transposition criterion,
        # which is exact for 2x3 systems
        rng = np.random.default_rng(55)
        seen = {Status.SEPARABLE: 0, Status.ENTANGLED: 0, Status.INCONCLUSIVE: 0}
        for _ in range(60):
            d = decompose_state(random_density(6, 6, rng), 2, 3)
            verdict = analyze(compose_state(d), 2, 3)
            seen[verdict.status] += 1
            ppt_ok = ppt_check(d).passed
            if verdict.status is Status.ENTANGLED:
                assert not ppt_ok
            if verdict.status is Status.SEPARABLE:
                assert ppt_ok
                assert verify_decomposition(verdict.decomposition, d).valid
        assert seen[Status.ENTANGLED] > 0
