import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sephorn import criteria
from sephorn.bipartite import compose_state, decompose_state, normal_form, partial_transpose
from sephorn.bloch import from_bloch
from sephorn.config import DEFAULT
from sephorn.criteria import (
    Status,
    analyze,
    kyfan_necessary_check,
    kyfan_sufficient_check,
    ppt_check,
    sufficient_bound,
    two_qubit_decide,
    verify_decomposition,
)
from sephorn.decompose import SeparableDecomposition, werner_decompose
from sephorn.errors import DimensionMismatch, NotNormalForm, NotPSD, SepHornError
from sephorn.linalg import random_unitary
from sephorn.states import bell, isotropic, p_zero, random_density, werner


def tiles_state():
    """The 3 x 3 PPT entangled state from the tiles unextendible product basis."""
    e = np.eye(3)
    tiles = [(e[0], e[0] - e[1]), (e[0] - e[1], e[2]), (e[2], e[1] - e[2]),
             (e[1] - e[2], e[0]), (e[0] + e[1] + e[2], e[0] + e[1] + e[2])]
    kets = [np.kron(x, y) / np.linalg.norm(np.kron(x, y)) for x, y in tiles]
    return (np.eye(9) - sum(np.outer(k, k) for k in kets)).astype(complex) / 4.0


def random_two_qubit(rng, rank=4):
    rho = random_density(4, rank, rng)
    return decompose_state(rho, 2, 2)


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

    def test_separable_logs_ppt_concurrence_decomposition(self):
        verdict = two_qubit_decide(werner(2, 0.5))
        assert verdict.status is Status.SEPARABLE
        names = [c.name for c in verdict.criteria]
        assert names == ["ppt", "concurrence", "decomposition[wootters]"]
        assert all(c.passed for c in verdict.criteria)

    def test_ppt_decided_without_filtering(self, monkeypatch):
        def no_filtering(*args, **kwargs):
            raise AssertionError("PPT 2 x 2 state was filtered")

        monkeypatch.setattr(criteria, "normal_form", no_filtering)
        verdict = two_qubit_decide(werner(2, 0.5))
        assert verdict.status is Status.SEPARABLE
        assert verify_decomposition(verdict.decomposition, werner(2, 0.5)).valid

    @pytest.mark.parametrize("eps", [1e-4, 3e-5, 1e-5, 3e-6, 1e-8])
    def test_near_pure_product_is_separable(self, eps):
        # (1 - eps)|00><00| + eps I/4 is full rank and PPT; filtering it to
        # normal form stalls at the sweep budget
        rho = (1.0 - eps) * np.diag([1.0, 0.0, 0.0, 0.0]) + eps * np.eye(4) / 4.0
        verdict = analyze(rho, 2, 2)
        assert verdict.status is Status.SEPARABLE, verdict.criteria
        report = verify_decomposition(verdict.decomposition, decompose_state(rho, 2, 2))
        assert report.valid and report.max_residual <= 1e-12

    def test_entangled_inside_ppt_tolerance_is_inconclusive(self):
        # p_zero(1e-5) has concurrence 1e-5, but its partial transpose has
        # lowest eigenvalue about -2.5e-11, inside the positivity tolerance
        verdict = analyze(compose_state(p_zero(1e-5)), 2, 2)
        assert verdict.status is Status.INCONCLUSIVE
        names = [c.name for c in verdict.criteria]
        assert names == ["ppt", "concurrence", "ppt-tolerance-band"]
        ppt, concurrence, band = verdict.criteria
        assert ppt.passed and not concurrence.passed
        assert abs(concurrence.margin - 1e-5) < 1e-9
        # the verdict names the band the lowest eigenvalue lies in
        assert not band.passed
        assert band.margin == ppt.margin and 0.0 < band.margin <= DEFAULT.psd
        assert "PPT tolerance band" in band.detail

    def test_rank_three_ppt_with_full_local_rank_is_separable(self):
        rho = np.diag([0.4, 0.3, 0.3, 0.0])
        verdict = analyze(rho, 2, 2)
        assert verdict.status is Status.SEPARABLE, verdict.criteria
        assert verify_decomposition(verdict.decomposition, decompose_state(rho, 2, 2)).valid


@st.composite
def two_qubit_states(draw):
    """Ginibre states of rank 1-4, products of local states of rank 1-2,
    Werner and isotropic states, optionally under random local filters,
    mixed with I/4 at weights down to 1e-10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ginibre", "product", "werner", "isotropic"]))
    if kind == "ginibre":
        rho = random_density(4, draw(st.integers(1, 4)), rng)
    elif kind == "product":
        rho = np.kron(random_density(2, draw(st.integers(1, 2)), rng),
                      random_density(2, draw(st.integers(1, 2)), rng))
    elif kind == "werner":
        rho = compose_state(werner(2, draw(st.floats(-1.0, 1.0))))
    else:
        rho = compose_state(isotropic(2, draw(st.floats(-1.0 / 3.0, 1.0))))
    if draw(st.booleans()):
        f = np.kron(*(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))))
        rho = f @ rho @ f.conj().T
    weight = draw(st.sampled_from([0.0, 1.0]) | st.floats(-10.0, 0.0).map(lambda e: 10.0 ** e))
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    return (1.0 - weight) * rho + weight * np.eye(4) / 4.0


class TestTwoQubitGate:
    @settings(max_examples=150, deadline=None)
    @given(two_qubit_states())
    def test_verdict_is_the_ppt_decision(self, rho):
        try:
            verdict = analyze(rho, 2, 2)
        except SepHornError:
            return
        low = ppt_check(decompose_state(rho, 2, 2)).min_eigenvalue
        if abs(low) <= DEFAULT.psd:
            # inside the positivity tolerance an entangled state passes PPT
            # with a concurrence that can exceed the slack (p_zero(p) has
            # concurrence p and lowest eigenvalue about -p^2/4), so only
            # ENTANGLED is ruled out there
            assert verdict.status is not Status.ENTANGLED, verdict.criteria
            return
        # the PPT decision, so no input, full-rank or not, is INCONCLUSIVE
        want = Status.SEPARABLE if low > 0.0 else Status.ENTANGLED
        assert verdict.status is want, verdict.criteria


def lowest_pt_eigenvalue(rho, n, m):
    """Lowest eigenvalue of the partial transpose on the second factor."""
    rho_pt = rho.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
    return float(np.linalg.eigvalsh(rho_pt)[0])


# wall-clock budget of one analyze call: a warm call takes about 2 ms at
# every size here, and the first simplex build of a square dimension adds
# a few milliseconds
GATE_DIMS = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]
CALL_BUDGET_S = 2.0


@st.composite
def qudit_states(draw):
    """States on 2x3 to 5x5: Ginibre states of any rank, products of local
    states of any rank, Werner and isotropic states on square dimensions,
    and random pure states mixed with I/(NM) near the weight where their
    partial transpose turns singular; each plain, under random local
    unitaries or under random local filters."""
    n, m = draw(st.sampled_from(GATE_DIMS))
    size = n * m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ginibre", "product", "boundary"]
                                + (["werner", "isotropic"] if n == m else [])))
    if kind == "ginibre":
        rho = random_density(size, draw(st.integers(1, size)), rng)
    elif kind == "product":
        rho = np.kron(random_density(n, draw(st.integers(1, n)), rng),
                      random_density(m, draw(st.integers(1, m)), rng))
    elif kind == "werner":
        rho = compose_state(werner(n, draw(st.floats(-1.0, 1.0))))
    elif kind == "isotropic":
        rho = compose_state(isotropic(n, draw(st.floats(-1.0 / (n * n - 1.0), 1.0))))
    else:
        pure = random_density(size, 1, rng)
        low = lowest_pt_eigenvalue(pure, n, m)
        weight = -low / (1.0 / size - low)
        offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -2.0))
        weight = min(max(weight + offset, 0.0), 1.0)
        rho = (1.0 - weight) * pure + weight * np.eye(size) / size
    frame = draw(st.sampled_from(["plain", "rotated", "filtered"]))
    return in_frame(rho, n, m, frame, rng), (n, m)


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


def family_cases():
    """Werner parameters and isotropic weights across the separable range
    of each family, for N = 3..5."""
    for dim in (3, 4, 5):
        for phi in (0.0, 1.0 / (2 * dim), 0.7, 1.0):
            yield pytest.param(dim, werner(dim, phi), id=f"{dim}-werner-{phi:.3g}")
        for p in (-1.0 / (dim * dim - 1), 1.0 / (2 * (dim + 1)), 1.0 / (dim + 1)):
            yield pytest.param(dim, isotropic(dim, p), id=f"{dim}-isotropic-{p:.3g}")


class TestFamiliesInAnyFrame:
    """Werner and isotropic states are decided under any local unitary and
    any local filter, not only in their canonical frame."""

    @pytest.mark.parametrize("frame", ["rotated", "filtered"])
    @pytest.mark.parametrize("dim, state", family_cases())
    def test_separable_and_verified(self, dim, state, frame):
        rng = np.random.default_rng(dim)
        rho = in_frame(compose_state(state), dim, dim, frame, rng)
        verdict = analyze(rho, dim, dim)
        assert verdict.status is Status.SEPARABLE, verdict.criteria
        assert verify_decomposition(verdict.decomposition,
                                    decompose_state(rho, dim, dim)).valid


class TestQuditGate:
    @settings(max_examples=150, deadline=None)
    @given(qudit_states())
    def test_verdict_agrees_with_ppt(self, case):
        rho, (n, m) = case
        start = time.perf_counter()
        try:
            verdict = analyze(rho, n, m)
        except SepHornError:
            verdict = None
        elapsed = time.perf_counter() - start
        assert elapsed <= CALL_BUDGET_S, (n, m, elapsed)
        if verdict is None:
            return
        low = lowest_pt_eigenvalue(rho, n, m)
        # PPT decides outside twice its tolerance: the support projection
        # moves the eigenvalues of rank-deficient input by round-off
        if low < -2.0 * DEFAULT.psd:
            assert verdict.status is Status.ENTANGLED, verdict.criteria
        if (n, m) == (2, 3) and low > 2.0 * DEFAULT.psd:
            # PPT is also sufficient at 2 x 3 (Horodecki, quant-ph/9605038)
            assert verdict.status is not Status.ENTANGLED, verdict.criteria
        if verdict.status is Status.ENTANGLED:
            assert any(not c.passed for c in verdict.criteria)
        if verdict.status is Status.SEPARABLE:
            d = decompose_state(rho, n, m)
            assert verify_decomposition(verdict.decomposition, d).valid


class TestSpectralCounts:
    """Each spectral quantity is computed once per verdict."""

    @staticmethod
    def record(monkeypatch):
        calls = []
        for name in ("svd", "eigh", "eigvalsh", "cholesky"):
            real = getattr(np.linalg, name)

            def spy(a, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, np.array(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_separable_qutrit_verdict(self, monkeypatch):
        rng = np.random.default_rng(41)
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
        rho = u @ (0.05 * random_density(9, 9, rng) + 0.95 * np.eye(9) / 9.0) @ u.conj().T
        calls = self.record(monkeypatch)
        verdict = analyze(rho, 3, 3)
        monkeypatch.undo()
        assert verdict.status is Status.SEPARABLE
        assert verdict.criteria[-1].name == "decomposition[kyfan-sufficient]"
        d = decompose_state(rho, 3, 3)
        tilde = normal_form(d).state
        # one SVD, of the filtered correlation
        svds = [a for name, a in calls if name == "svd"]
        assert len(svds) == 1
        np.testing.assert_allclose(svds[0], tilde.corr, atol=1e-12)
        # rho's positivity is certified by one Cholesky factorisation of
        # rho + psd I; the one 9 x 9 eigensolve is of its partial transpose
        rho_pt = rho.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        full = [(name, a) for name, a in calls if a.shape == (9, 9)]
        assert [name for name, _ in full] == ["cholesky", "eigvalsh"]
        np.testing.assert_allclose(full[0][1] - rho, DEFAULT.psd * np.eye(9), rtol=0, atol=1e-15)
        assert np.allclose(full[1][1], rho_pt)
        # the components of the decomposition are certified, one Cholesky
        # factorisation per side, and never eigensolved
        stacks = [name for name, a in calls if a.ndim == 3]
        assert stacks == ["cholesky", "cholesky"]
        # one eigendecomposition per input marginal, then two per filter
        # sweep: the B-side filter and the A-side marginal after it, whose
        # eigenvalues give the convergence test and the next A-side filter
        sweeps = normal_form(d).iterations
        assert sweeps > 0
        small = [a for name, a in calls if name == "eigh" and a.shape == (3, 3)]
        assert len(small) == 2 + 2 * sweeps
        r4 = rho.reshape(3, 3, 3, 3)
        for marginal in (np.einsum("ijkj->ik", r4), np.einsum("ijil->jl", r4)):
            same = [name for name, a in calls
                    if a.shape == (3, 3) and np.allclose(a / np.trace(a), marginal)]
            assert same == ["eigh"]
        # the memoized results are read-only and computed once
        memo = [d.matrix, *d.marginal_eigh[0], *d.marginal_eigh[1], *d.spectrum,
                *tilde.corr_svd]
        assert not any(a.flags.writeable for a in memo)
        assert d.corr_svd is d.corr_svd and tilde.marginal_eigh is tilde.marginal_eigh
        with pytest.raises(ValueError):
            tilde.corr_svd[1][0] = 0.0

    def test_two_qubit_verdict_shares_one_eigh(self, monkeypatch):
        # the PSD check and Wootters' frame read one eigendecomposition of rho
        rho = compose_state(werner(2, 0.5))
        calls = self.record(monkeypatch)
        verdict = analyze(rho, 2, 2)
        monkeypatch.undo()
        assert verdict.status is Status.SEPARABLE
        rho_pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        full = [(name, a) for name, a in calls if a.shape == (4, 4)]
        assert [name for name, _ in full] == ["eigh", "eigvalsh"]
        assert np.allclose(full[0][1], rho) and np.allclose(full[1][1], rho_pt)


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
        # the first oversized side-B vector in the middle of the stack is named
        s_vectors = dec.s_vectors.copy()
        s_vectors[2:] *= 1.5
        bad = SeparableDecomposition(probs=dec.probs, r_vectors=dec.r_vectors,
                                     s_vectors=s_vectors)
        report = verify_decomposition(bad, werner(2, 1.0))
        assert not report.valid
        assert "component 2 on side B unphysical" in report.detail
        assert "side A" not in report.detail
        # the failed certificate falls back to the exact lowest eigenvalue
        low = np.linalg.eigvalsh(from_bloch(s_vectors[2]))[0]
        assert f"(min eigenvalue {low:.3e})" in report.detail

    @pytest.mark.parametrize("probs, r_vectors, s_vectors, problem", [
        ([np.nan], np.zeros((1, 8)), np.zeros((1, 8)), "non-finite probability at component 0"),
        ([1.0], np.full((1, 8), np.nan), np.zeros((1, 8)),
         "non-finite vector on side A at component 0"),
        ([1.0], np.zeros((1, 8)), np.zeros((1, 3)), "side B vector width 3 does not match dim 3"),
        ([0.5, 0.5], np.zeros((1, 8)), np.zeros((2, 8)),
         "side A holds vectors of shape (1, 8) for 2 probabilities"),
    ])
    def test_malformed_input_invalid(self, monkeypatch, probs, r_vectors, s_vectors, problem):
        # malformed decompositions are rejected by name before any moment or
        # positivity certificate is computed
        def never(*args, **kwargs):
            raise AssertionError("positivity certified")

        d = decompose_state(np.eye(9) / 9.0, 3, 3)
        assert verify_decomposition(SeparableDecomposition(
            np.array([1.0]), np.zeros((1, 8)), np.zeros((1, 8))), d).valid
        monkeypatch.setattr(criteria, "certify_psd", never)
        bad = SeparableDecomposition(np.array(probs), r_vectors, s_vectors)
        report = verify_decomposition(bad, d)
        assert not report.valid
        assert problem in report.detail

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

    def test_input_positivity_threshold(self):
        # a 3x3 input whose lowest eigenvalue lies within psd of zero is
        # accepted; below that NotPSD carries the exact lowest eigenvalue
        rng = np.random.default_rng(61)
        u = random_unitary(9, rng)
        for low, accepted in ((-5e-10, True), (-2e-9, False)):
            w = rng.uniform(0.05, 0.2, 9)
            w[0] = low
            w[1:] *= (1.0 - low) / w[1:].sum()
            rho = (u * w) @ u.conj().T
            rho = (rho + rho.conj().T) / 2.0
            exact = np.linalg.eigvalsh(rho)[0]
            assert abs(exact - low) < 1e-15
            if accepted:
                analyze(rho, 3, 3)
                continue
            with pytest.raises(NotPSD) as exc:
                analyze(rho, 3, 3)
            assert f"input has minimum eigenvalue {exact:.3e}" in str(exc.value)

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
        # a PPT qutrit state outside the constructive ball whose filtered
        # singular values are unequal, so the family path does not apply
        rng = np.random.default_rng(31)
        rho = 0.3 * random_density(9, 9, rng) + 0.7 * np.eye(9) / 9.0
        verdict = analyze(rho, 3, 3)
        assert verdict.status is Status.INCONCLUSIVE
        names = [c.name for c in verdict.criteria]
        assert names == ["ppt", "kyfan-necessary", "kyfan-sufficient"]
        # the failed sufficient criterion: how far the filtered Ky Fan norm
        # lies outside the constructive ball
        sufficient = verdict.criteria[-1]
        tilde = normal_form(decompose_state(rho, 3, 3)).state
        norm = np.linalg.svd(tilde.corr, compute_uv=False).sum()
        assert not sufficient.passed
        assert abs(sufficient.margin - (norm - sufficient_bound(3, 3))) < 1e-9
        assert sufficient.margin > 0.1

    def test_unconverged_filtering_applies_the_unfiltered_bound(self):
        # the tiles state of Bennett et al. is PPT and entangled, and its
        # unfiltered correlation violates ||T||_KF <= R_+(3)^2 = 4/3; two
        # sweeps do not bring it to normal form
        rho = tiles_state()
        cfg = replace(DEFAULT, normal_max_iter=2)
        verdict = analyze(rho, 3, 3, cfg=cfg)
        assert verdict.status is Status.ENTANGLED
        names = [c.name for c in verdict.criteria]
        assert names == ["ppt", "normal-form", "kyfan-necessary"]
        norm = np.linalg.svd(decompose_state(rho, 3, 3).corr, compute_uv=False).sum()
        bound = verdict.criteria[-1]
        assert not bound.passed
        assert abs(bound.margin - (norm - 4.0 / 3.0)) < 1e-12
        # a separable state whose filtering is cut short passes the bound
        # and stays inconclusive
        rng = np.random.default_rng(32)
        rho = 0.5 * random_density(9, 9, rng) + 0.5 * np.eye(9) / 9.0
        verdict = analyze(rho, 3, 3, cfg=cfg)
        assert verdict.status is Status.INCONCLUSIVE
        assert [c.name for c in verdict.criteria] == names
        assert verdict.criteria[-1].passed and verdict.criteria[-1].margin < 0.0

    def test_threshold_isotropic_is_separable(self):
        # p = 1/(N+1) is recovered from the state a few ulps above the
        # threshold; it must still decompose
        for dim in (2, 3, 4, 5):
            p = 1.0 / (dim + 1.0)
            verdict = analyze(compose_state(isotropic(dim, p)), dim, dim)
            assert verdict.status is Status.SEPARABLE, (dim, verdict.criteria)
            assert verify_decomposition(verdict.decomposition, isotropic(dim, p)).valid

    def test_unequal_singular_values_skip_the_family_path(self, monkeypatch):
        # a filtered correlation whose singular values spread wider than the
        # verification residual is no rotated family: no decomposition is
        # built for it and no family criterion is logged
        def never(*args, **kwargs):
            raise AssertionError("family decomposition built")

        monkeypatch.setattr(criteria, "werner_decompose", never)
        rng = np.random.default_rng(33)
        rho = 0.3 * random_density(9, 9, rng) + 0.7 * np.eye(9) / 9.0
        taus = normal_form(decompose_state(rho, 3, 3)).state.corr_svd[1]
        assert taus[0] - taus[-1] > DEFAULT.residual
        verdict = analyze(rho, 3, 3)
        assert verdict.status is Status.INCONCLUSIVE
        assert not any("family" in c.name for c in verdict.criteria)

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
