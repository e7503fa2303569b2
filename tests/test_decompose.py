import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sephorn
from helpers import (SIGMA_YY, is_physical, random_density, random_unitary,
                     reference_wootters_decomposition, reference_wootters_frame)
from sephorn.bipartite import (
    BipartiteDecomposed,
    compose_state,
    decompose_state,
    partial_transpose_matrix,
)
from sephorn import criteria, decompose, linalg
from sephorn.bloch import from_bloch, to_bloch
from sephorn.config import HOLDER_ROUNDING, POSITIVITY_TOL, TAKAGI_ORTHO
from sephorn.criteria import Status, analyze, verify_decomposition
from sephorn.decompose import (
    SeparableDecomposition,
    kyfan_bound_decomposition,
    kyfan_fit,
    kyfan_floor,
    pure_state_simplex,
    transport,
    werner_decompose,
    wootters_decomposition,
    wootters_frame,
)
from sephorn.errors import (
    BoundExceeded,
    DimensionMismatch,
    OutOfPositivityRange,
    SearchFailed,
)
from sephorn.horn import product_singulars_feasible
from sephorn.states import isotropic, werner
from sephorn.su import generator_basis


def normal_form_state(corr, dim_a, dim_b):
    ka, kb = dim_a * dim_a - 1, dim_b * dim_b - 1
    return BipartiteDecomposed(dim_a=dim_a, dim_b=dim_b,
                               a=np.zeros(ka), b=np.zeros(kb),
                               corr=np.asarray(corr, dtype=float))


def padded_singulars(matrix, length):
    s = np.linalg.svd(matrix, compute_uv=False)
    out = np.zeros(length)
    out[:len(s)] = s[:length] if len(s) >= length else s
    return out


class TestKyfanBoundDecomposition:
    def test_zero_correlation(self):
        dec = kyfan_bound_decomposition(normal_form_state(np.zeros((3, 3)), 2, 2).corr_svd, 2, 2)
        assert len(dec) == 1
        assert dec.probs[0] == 1.0
        assert np.abs(dec.r_vectors).max() == 0.0

    def test_two_qubit_point_nine(self):
        state = normal_form_state(np.diag([0.3, 0.3, 0.3]), 2, 2)
        dec = kyfan_bound_decomposition(state.corr_svd, 2, 2)
        assert len(dec) == 6
        norms = np.sum(dec.r_vectors ** 2, axis=1)
        np.testing.assert_allclose(norms, 0.9, atol=1e-9)
        report = verify_decomposition(dec, state)
        assert report.valid and report.max_residual < 1e-8

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        corr = 0.5 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        state = normal_form_state(corr, 2, 2)
        dec = kyfan_bound_decomposition(state.corr_svd, 2, 2)
        assert len(dec) == 2
        report = verify_decomposition(dec, state)
        assert report.valid

    def test_bound_exceeded(self):
        corr = np.diag([0.5, 0.5, 0.5])
        with pytest.raises(BoundExceeded) as exc:
            kyfan_bound_decomposition(normal_form_state(corr, 2, 2).corr_svd, 2, 2)
        # the excess is the Ky Fan norm minus the bound 1
        assert abs(exc.value.excess - 0.5) < 1e-12

    def test_component_norm_formula(self):
        # |r_j|^2 = 2 K / (N(N-1)) for every component, K the scaled norm;
        # components come in +- pairs of equal weight, 2 per singular value
        rng = np.random.default_rng(9)
        cases = [(dims, None) for dims in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))]
        cases.append(((3, 4), 5))
        for (n, m), rank in cases:
            ka, kb = n * n - 1, m * m - 1
            if rank is None:
                raw = rng.normal(size=(ka, kb))
                rank = min(ka, kb)
            else:
                raw = rng.normal(size=(ka, rank)) @ rng.normal(size=(rank, kb))
            target = rng.uniform(0.3, 1.0)
            weight = np.sqrt(n * (n - 1) * m * (m - 1)) / 2.0
            raw *= target / (np.linalg.svd(raw, compute_uv=False).sum() * weight)
            state = normal_form_state(raw, n, m)
            dec = kyfan_bound_decomposition(state.corr_svd, n, m)
            assert len(dec) == 2 * rank
            assert (dec.probs[0::2] == dec.probs[1::2]).all()
            assert (dec.r_vectors[0::2] == -dec.r_vectors[1::2]).all()
            assert (dec.s_vectors[0::2] == -dec.s_vectors[1::2]).all()
            # the pairs cancel exactly; the weighted sum rounds only where a
            # fused multiply-add keeps the rounding error of the other term
            np.testing.assert_allclose(dec.moments[1:, 0], 0.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(dec.moments[0, 1:], 0.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(np.sum(dec.r_vectors ** 2, axis=1),
                                       2.0 * target / (n * (n - 1)), atol=1e-9)
            np.testing.assert_allclose(np.sum(dec.s_vectors ** 2, axis=1),
                                       2.0 * target / (m * (m - 1)), atol=1e-9)
            report = verify_decomposition(dec, state)
            assert report.valid and report.max_residual < 1e-8

    def test_horn_consistency(self):
        # singular values of the emitted factor pair against the target
        corr = np.diag([0.3, 0.3, 0.3])
        dec = kyfan_bound_decomposition(normal_form_state(corr, 2, 2).corr_svd, 2, 2)
        m_rp = (dec.r_vectors * np.sqrt(dec.probs[:, None])).T
        m_sp = (dec.s_vectors * np.sqrt(dec.probs[:, None])).T
        length = len(dec)
        assert product_singulars_feasible(padded_singulars(corr, length),
                                          padded_singulars(m_rp, length),
                                          padded_singulars(m_sp, length))


@st.composite
def correlation_like(draw):
    """A real matrix of 1..12 by 1..12: Gaussian, of lower rank, a flat
    spectrum tau O (O with orthonormal rows or columns), or zero, scaled
    over twelve decades."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "low-rank", "flat", "zero"]))
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "gaussian":
        c = rng.normal(size=(rows, cols))
    elif kind == "low-rank":
        rank = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        c = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    else:
        q = np.linalg.qr(rng.normal(size=(max(rows, cols), min(rows, cols))))[0]
        c = q if rows >= cols else q.T
    return c * 10.0 ** draw(st.floats(-8.0, 4.0))


class TestKyFanFloor:
    """Holder's floor L = ||C||_F^3 / ||C^T C||_F sits in the sandwich
    ||C||_F <= L <= ||C||_KF <= sqrt(k) ||C||_F, k = min(C.shape), within
    HOLDER_ROUNDING, and meets the Ky Fan norm on a flat spectrum."""

    @settings(max_examples=300, deadline=None)
    @given(correlation_like())
    def test_sandwich(self, c):
        fro = float(np.linalg.norm(c))
        floor = kyfan_floor(c, fro)
        kyfan = float(np.linalg.svd(c, compute_uv=False).sum())
        up = 1.0 + HOLDER_ROUNDING
        assert fro <= floor * up
        assert floor <= kyfan * up
        assert kyfan <= np.sqrt(min(c.shape)) * fro * up

    @pytest.mark.parametrize("shape", [(1, 1), (3, 8), (8, 8), (15, 8), (48, 48)])
    def test_flat_spectrum_meets_the_ky_fan_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        q = np.linalg.qr(rng.normal(size=(max(shape), min(shape))))[0]
        c = 0.3 * (q if shape[0] >= shape[1] else q.T)
        floor = kyfan_floor(c, float(np.linalg.norm(c)))
        assert abs(floor - 0.3 * min(shape)) <= HOLDER_ROUNDING * floor

    def test_zero_matrix(self):
        assert kyfan_floor(np.zeros((8, 15)), 0.0) == 0.0


class TestKyFanFit:
    def test_refusal_matches_the_construction(self):
        # the refusal read off the singular values alone is the one the
        # construction raises, text and excess
        svd = np.linalg.svd(np.diag([0.5, 0.5, 0.5]))
        zeros = np.zeros(3)
        with pytest.raises(BoundExceeded) as alone:
            kyfan_fit(svd[1], 2, 2, zeros, zeros)
        with pytest.raises(BoundExceeded) as built:
            kyfan_bound_decomposition(svd, 2, 2)
        assert str(alone.value) == str(built.value) == (
            "Ky Fan norm exceeds the constructive bound 1 by 5.000e-01")
        assert alone.value.excess == built.value.excess == 0.5

    def test_fit_returns_bound_and_shrinks(self):
        a = np.zeros(8)
        a[0] = 0.5 * np.sqrt(2.0 / 6.0)
        assert kyfan_fit(np.array([0.1, 0.0]), 3, 3, a, np.zeros(8)) == (
            pytest.approx(1.0 / 6.0), 0.5, 1.0)


class TestPureSimplex:
    def test_scipy_never_imported(self):
        # the package, its CLI, every simplex the families use and a Werner
        # verdict run on numpy alone
        src = str(Path(sephorn.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, sephorn, sephorn.cli\n"
                "for n in range(2, 8):\n"
                "    sephorn.pure_state_simplex(n)\n"
                "rho = sephorn.compose_state(sephorn.werner(3, 1.0))\n"
                "verdict = sephorn.analyze(rho, 3, 3)\n"
                "names = [c.name for c in verdict.criteria]\n"
                "assert verdict.status is sephorn.Status.SEPARABLE, names\n"
                "assert 'decomposition[family]' in names, names\n"
                "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_overlap_jacobian_matches_differences(self, dim):
        disp = decompose._displacements(dim)
        v = np.random.default_rng(dim).normal(size=2 * dim)
        _, jac = decompose._overlap_residuals(v, disp)
        step = 1e-6
        central = np.array([(decompose._overlap_residuals(v + step * e, disp)[0]
                             - decompose._overlap_residuals(v - step * e, disp)[0]) / (2 * step)
                            for e in np.eye(2 * dim)]).T
        np.testing.assert_allclose(jac, central, rtol=0, atol=1e-8 * np.abs(jac).max())

    def test_qubit_tetrahedron(self):
        vecs = pure_state_simplex(2)
        assert vecs.shape == (4, 3)
        gram = vecs @ vecs.T
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)
        off = gram[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 3.0, atol=1e-12)

    def test_qutrit_simplex(self):
        vecs = pure_state_simplex(3)
        assert vecs.shape == (9, 8)
        gram = vecs @ vecs.T
        np.testing.assert_allclose(np.diag(gram), 4.0 / 3.0, atol=1e-10)
        off = gram[~np.eye(9, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 6.0, atol=1e-10)
        for v in vecs:
            assert is_physical(v, tol=1e-8)

    def test_qutrit_components_are_pure(self):
        # spectrum (1, 0, 0): a rank-one projector
        for v in pure_state_simplex(3):
            np.testing.assert_allclose(np.linalg.eigvalsh(from_bloch(v)), [0.0, 0.0, 1.0],
                                       atol=1e-6)

    def test_deterministic_per_seed(self):
        # the starts come from one fixed stream: a rebuilt simplex is the
        # cached one bit for bit
        cached = pure_state_simplex(3)
        pure_state_simplex.cache_clear()
        assert (pure_state_simplex(3) == cached).all()

    def test_best_effort_dim_four(self):
        vecs = pure_state_simplex(4)
        assert vecs.shape == (16, 15)
        gram = vecs @ vecs.T
        np.testing.assert_allclose(np.diag(gram), 1.5, atol=1e-10)
        for v in vecs:
            assert is_physical(v, tol=1e-8)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_rows_are_a_sic(self, dim):
        rhos = np.array([from_bloch(v) for v in pure_state_simplex(dim)])
        overlaps = np.einsum("iab,jba->ij", rhos, rhos).real
        off = overlaps[~np.eye(dim * dim, dtype=bool)]
        np.testing.assert_allclose(off, 1.0 / (dim + 1.0), atol=1e-12)
        for rho in rhos:
            want = np.zeros(dim)
            want[-1] = 1.0
            np.testing.assert_allclose(np.linalg.eigvalsh(rho), want, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_werner_endpoints_verify(self, dim):
        for phi in (0.0, 1.0):
            report = verify_decomposition(werner_decompose(dim, phi), werner(dim, phi))
            assert report.valid and report.max_residual <= 1e-10, (phi, report)

    def test_exhausted_attempts_raise(self, monkeypatch):
        monkeypatch.setattr(decompose, "SIC_ATTEMPTS", 2)
        monkeypatch.setattr(decompose, "SIC_RESIDUAL", -1.0)
        # cleared before, so the search runs instead of a cached simplex
        # answering, and after, so the cache is left as a fresh process has it
        pure_state_simplex.cache_clear()
        try:
            with pytest.raises(SearchFailed) as exc:
                pure_state_simplex(3)
        finally:
            pure_state_simplex.cache_clear()
        assert 0.0 <= exc.value.residual < 1e-12

    def test_failed_search_runs_once(self, monkeypatch):
        # the starts are fixed, so a failed search is remembered, not rerun
        monkeypatch.setattr(decompose, "SIC_ATTEMPTS", 2)
        monkeypatch.setattr(decompose, "SIC_RESIDUAL", -1.0)
        solves, solve = [], decompose._levenberg_marquardt
        monkeypatch.setattr(decompose, "_levenberg_marquardt",
                            lambda *args: solves.append(args) or solve(*args))
        pure_state_simplex.cache_clear()
        decompose._sic_fiducial.cache_clear()
        try:
            residuals = []
            for _ in range(2):
                with pytest.raises(SearchFailed) as exc:
                    pure_state_simplex(3)
                residuals.append(exc.value.residual)
        finally:
            pure_state_simplex.cache_clear()
            decompose._sic_fiducial.cache_clear()
        assert len(solves) == 2 and residuals[0] == residuals[1]


class TestWernerDecompose:
    def test_qubit_saturated(self):
        dec = werner_decompose(2, 1.0)
        assert len(dec) == 4
        np.testing.assert_allclose(dec.probs, 0.25, atol=1e-15)
        report = verify_decomposition(dec, werner(2, 1.0))
        assert report.valid and report.max_residual < 1e-8

    def test_qutrit_zero_phi(self):
        dec = werner_decompose(3, 0.0)
        assert len(dec) == 9
        np.testing.assert_allclose(np.sum(dec.r_vectors ** 2, axis=1), 1.0 / 3.0,
                                   atol=1e-9)
        np.testing.assert_allclose(np.sum(dec.s_vectors ** 2, axis=1), 4.0 / 3.0,
                                   atol=1e-9)
        report = verify_decomposition(dec, werner(3, 0.0))
        assert report.valid and report.max_residual < 1e-8

    def test_qubit_zero_phi_antipodal(self):
        # at the qubit lower endpoint both simplexes are pure and opposite
        dec = werner_decompose(2, 0.0)
        np.testing.assert_allclose(dec.r_vectors, -dec.s_vectors, atol=1e-12)
        np.testing.assert_allclose(np.sum(dec.r_vectors ** 2, axis=1), 1.0,
                                   atol=1e-12)
        assert verify_decomposition(dec, werner(2, 0.0)).valid

    def test_mixed_point(self):
        dec = werner_decompose(3, 1.0 / 3.0)
        assert verify_decomposition(dec, werner(3, 1.0 / 3.0)).valid

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_interior_points(self, dim):
        # one formula on both sides of phi = 1/N: the pure simplex on B and
        # kappa = (N phi - 1)/(N - 1) times it on A
        vertices = pure_state_simplex(dim)
        for phi in sorted({*np.linspace(0.0, 1.0, 11), 1.0 / dim, 0.15, 0.85}):
            dec = werner_decompose(dim, phi)
            report = verify_decomposition(dec, werner(dim, phi))
            assert report.valid and report.max_residual <= 1e-10, (phi, report)
            kappa = (dim * phi - 1.0) / (dim - 1.0)
            assert (dec.s_vectors == vertices).all()
            np.testing.assert_allclose(dec.r_vectors, kappa * vertices, rtol=0, atol=1e-15)

    def test_negative_phi_out_of_range(self):
        # the entangled range phi < 0 is outside the construction's range
        for dim, phi in ((2, -0.3), (3, -0.01)):
            with pytest.raises(OutOfPositivityRange, match=r"separable range \[0, 1\]"):
                werner_decompose(dim, phi)

    def test_out_of_range(self):
        with pytest.raises(OutOfPositivityRange):
            werner_decompose(2, 1.5)

    def test_factor_balance(self):
        # product of the two factor scales matches the correlation strength,
        # with the B factor pure throughout
        for dim, phi in ((2, 1.0), (2, 0.7), (3, 0.0), (3, 0.2), (3, 0.8), (3, 1.0)):
            dec = werner_decompose(dim, phi)
            c = 2.0 * (dim * phi - 1.0) / (dim * (dim * dim - 1.0))
            ra = np.linalg.norm(dec.r_vectors[0]) / np.sqrt(dim * dim - 1.0)
            sb = np.linalg.norm(dec.s_vectors[0]) / np.sqrt(dim * dim - 1.0)
            assert abs(ra * sb - abs(c)) < 1e-10
            assert abs(sb * sb - 2.0 / (dim * (dim + 1.0))) < 1e-12

    def test_horn_consistency(self):
        for dim, phi in ((2, 1.0), (3, 1.0), (3, 0.0)):
            dec = werner_decompose(dim, phi)
            m_rp = (dec.r_vectors * np.sqrt(dec.probs[:, None])).T
            m_sp = (dec.s_vectors * np.sqrt(dec.probs[:, None])).T
            length = dim * dim
            corr = werner(dim, phi).corr
            assert product_singulars_feasible(padded_singulars(corr, length),
                                              padded_singulars(m_rp, length),
                                              padded_singulars(m_sp, length))


class TestIsotropicDecompose:
    """Isotropic states are decomposed by the family recogniser of
    ``analyze``, which rotates the closed-form Werner decomposition."""

    @staticmethod
    def separable_residual(dim, p, target_p=None):
        # analyze the state at p, verify against the state at target_p
        verdict = analyze(isotropic(dim, p).matrix, dim, dim)
        assert verdict.status is Status.SEPARABLE, (dim, p, verdict.criteria)
        target = isotropic(dim, p if target_p is None else target_p)
        report = verify_decomposition(verdict.decomposition, target)
        assert report.valid, (dim, p, report)
        return report.max_residual

    def test_qubit_image_of_saturated_werner(self):
        assert self.separable_residual(2, 1.0 / 3.0) < 1e-8

    def test_entangled_above_threshold(self):
        verdict = analyze(isotropic(3, 0.26).matrix, 3, 3)
        assert verdict.status is Status.ENTANGLED

    def test_round_off_above_threshold_decomposes(self):
        # the threshold state is decomposed; one 5e-13 above it fails ppt,
        # which is decided at rounding, and the family stage alone, asked
        # of it as round-off in a recovered parameter can give, still
        # decomposes it
        for dim in (3, 5):
            threshold = 1.0 / (dim + 1.0)
            assert self.separable_residual(dim, threshold) < 1e-10
            above = isotropic(dim, threshold + 5e-13)
            verdict = analyze(above.matrix, dim, dim)
            assert [(c.name, c.passed) for c in verdict.criteria] == [("ppt", False)]
            verdict = criteria._Call(above, POSITIVITY_TOL).run((criteria._family,))
            assert verdict.status is Status.SEPARABLE, verdict.criteria
            report = verify_decomposition(verdict.decomposition, isotropic(dim, threshold))
            assert report.valid and report.max_residual < 1e-10

    def test_lower_positivity_edge(self):
        for dim in (3, 5):
            assert self.separable_residual(dim, -1.0 / (dim * dim - 1.0)) < 1e-8

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_round_off_below_positivity_edge_decomposes(self, dim):
        # 5e-13 below the lower edge the state is still physical within the
        # positivity tolerance, and is decomposed
        low = -1.0 / (dim * dim - 1.0)
        assert self.separable_residual(dim, low - 5e-13, low) < 1e-10


def random_ppt_qubits(rng, rank, count, filtered=False):
    """``count`` random PPT 2 x 2 states of ``rank``, optionally under random
    local filters (which keep the rank and PPT)."""
    out = []
    while len(out) < count:
        rho = random_density(4, rank, rng)
        if filtered:
            f = np.kron(*(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))))
            rho = f @ rho @ f.conj().T
            rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
        if np.linalg.eigvalsh(partial_transpose_matrix(rho, 2, 2))[0] >= 0.0:
            out.append(decompose_state(rho, 2, 2))
    return out


def wootters_inputs():
    rng = np.random.default_rng(41)
    product = np.diag([0.5, 0.0, 0.0, 0.5])
    cases = [(f"werner-{phi}", werner(2, phi)) for phi in (0.0, 0.5, 1.0)]
    cases += [("isotropic-1/3", isotropic(2, 1.0 / 3.0)),
              ("mixed", decompose_state(np.eye(4) / 4.0, 2, 2)),
              ("00+11", decompose_state(product, 2, 2))]
    cases += [(f"rank3-{i}", d) for i, d in enumerate(random_ppt_qubits(rng, 3, 10))]
    # a pure local factor leaves tau = 0 on a rank-2 support: a null block
    # of two Takagi vectors
    for i in range(4):
        pure, mixed = random_density(2, 1, rng), random_density(2, 2, rng)
        pair = (pure, mixed) if i % 2 else (mixed, pure)
        cases.append((f"pure-factor-{i}", decompose_state(np.kron(*pair), 2, 2)))
    cases += [(f"filtered-{i}", d)
              for i, d in enumerate(random_ppt_qubits(rng, 4, 10, filtered=True))]
    return cases


def null_block_inputs():
    """States below rank four, whose tau can have a null block: 00+11
    (exact zero eigenvalues, tau nonsingular on its support), the
    pure-factor states, on whose rank-2 support tau vanishes, and random
    rank-1 and rank-2 states.  Which of them take Wootters' QR is the
    eigensolver's choice of basis in a null block."""
    cases = dict(wootters_inputs())
    out = [("00+11", cases["00+11"])]
    out += [(f"pure-factor-{i}", cases[f"pure-factor-{i}"]) for i in range(4)]
    rng = np.random.default_rng(53)
    for i in range(2):
        out.append((f"rank1-{i}", decompose_state(random_density(4, 1, rng), 2, 2)))
        product = np.kron(random_density(2, 1, rng), random_density(2, 1, rng))
        out.append((f"rank1-product-{i}", decompose_state(product, 2, 2)))
        out.append((f"rank2-{i}", decompose_state(random_density(4, 2, rng), 2, 2)))
    return out


def wootters_reference(d):
    """Weights and local Bloch vectors of Wootters' components from the top
    singular vectors of each z_i as a 2 x 2 matrix, with the angles taken
    in numpy, independently of the construction under test."""
    frame = wootters_frame(d)
    lam = frame.lam
    diag = max(lam[0] - lam[1], lam[2] - lam[3])
    a, b = lam[0::2], lam[1::2]
    ex_a, ex_b, ex_d = np.maximum(0.0, [b + diag - a, a + diag - b, a + b - diag]) / 2.0
    semi = ex_a + ex_b + ex_d
    at_a = 2.0 * np.arctan2(np.sqrt(ex_a * ex_d), np.sqrt(semi * ex_b))
    at_b = np.pi - at_a - 2.0 * np.arctan2(np.sqrt(ex_a * ex_b), np.sqrt(semi * ex_d))
    theta = np.array([at_a[0], -at_b[0], np.pi + at_a[1], np.pi - at_b[1]])
    hadamard = 0.5 * np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
    z = (frame.x * np.exp(0.5j * theta)) @ hadamard
    probs = np.sum(np.abs(z) ** 2, axis=0)
    u, _, vh = np.linalg.svd(z.T.reshape(4, 2, 2))
    blochs = [to_bloch(np.einsum("ki,kj->kij", ket, ket.conj()))
              for ket in (u[:, :, 0], vh[:, 0, :])]
    return probs / probs.sum(), blochs[0], blochs[1]


def separable_qubit_states():
    """Classical mixtures, I/4, Werner and isotropic states at their
    separability thresholds, and mixtures of 2 to 4 random pure products."""
    rng = np.random.default_rng(47)
    cases = [(f"classical-{i}", np.diag(rng.dirichlet(np.ones(4)))) for i in range(3)]
    cases += [("classical-00+11", np.diag([0.5, 0.0, 0.0, 0.5])),
              ("mixed", np.eye(4) / 4.0),
              ("werner-0", compose_state(werner(2, 0.0))),
              ("isotropic-1/3", compose_state(isotropic(2, 1.0 / 3.0)))]
    for count in (2, 3, 4):
        for i in range(3):
            weights = rng.dirichlet(np.ones(count))
            rho = sum(w * np.kron(random_density(2, 1, rng), random_density(2, 1, rng))
                      for w in weights)
            cases.append((f"products-{count}-{i}", rho))
    return cases


class TestWootters:
    CASES = wootters_inputs()
    SEPARABLE = separable_qubit_states()

    @pytest.mark.parametrize("d", [d for _, d in CASES], ids=[c for c, _ in CASES])
    def test_kets_are_the_top_singular_vectors(self, d):
        dec = wootters_decomposition(d)
        for got, want in zip((dec.probs, dec.r_vectors, dec.s_vectors), wootters_reference(d)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rho", [rho for _, rho in SEPARABLE], ids=[c for c, _ in SEPARABLE])
    def test_separable_states_decompose(self, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = analyze(rho, 2, 2)
        assert verdict.status is Status.SEPARABLE
        assert verdict.criteria[-1].name == "decomposition[wootters]"
        assert verdict.criteria[-1].passed

    @pytest.mark.parametrize("d", [d for _, d in CASES], ids=[c for c, _ in CASES])
    def test_pure_product_components_reproduce_state(self, d):
        dec = wootters_decomposition(d)
        assert 1 <= len(dec) <= 4
        assert dec.probs.min() > 0.0
        assert abs(dec.probs.sum() - 1.0) <= 1e-12
        for got, want in ((np.linalg.norm(dec.r_vectors, axis=1), 1.0),
                          (np.linalg.norm(dec.s_vectors, axis=1), 1.0),
                          (dec.moments[1:, 0], d.a), (dec.moments[0, 1:], d.b),
                          (dec.moments[1:, 1:], d.corr)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d, lam", [
        (werner(2, 0.5), [0.25, 0.25, 0.25, 0.25]),
        (werner(2, 0.0), [0.5, 1 / 6, 1 / 6, 1 / 6]),
        (decompose_state(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2), [0.5, 0.5, 0.0, 0.0]),
    ], ids=["werner-0.5", "werner-0", "00+11"])
    def test_frame_values(self, d, lam):
        frame = wootters_frame(d)
        np.testing.assert_allclose(frame.lam, lam, rtol=0, atol=1e-12)
        assert frame.concurrence_margin <= 1e-12

    NULL_BLOCK = [(c, d, False) for c, d in null_block_inputs()]
    NULL_BLOCK += [(f"{c}-planted", d, True) for c, d, _ in NULL_BLOCK
                   if c.startswith("pure-factor")]

    @pytest.mark.parametrize("d, plant", [case[1:] for case in NULL_BLOCK],
                             ids=[case[0] for case in NULL_BLOCK])
    def test_null_block_takes_the_qr(self, monkeypatch, d, plant):
        # the QR runs exactly when the embedding's top eigenvectors are not
        # complex-orthonormal, and either way rho = x x^dag and
        # x^T (sigma_y x sigma_y) x = diag(lam).  Whether the eigensolver
        # mixes a null block is its own choice, so on the pure-factor
        # states, where tau vanishes on a rank-2 support and any orthonormal
        # basis solves the 4 x 4 embedding, the planted cases return the
        # block's eigenvectors mixed as u = e_0 and i u: they take the QR
        _ = d.spectrum  # memoized first: the one eigh the frame calls is the embedding's
        calls = []
        eigh, real_qr = linalg.eigh, linalg.qr_q

        def spy_eigh(a):
            lam, emb = eigh(a)
            if plant:
                assert a.shape == (4, 4)
                # ascending columns; the top two read [u; 0] and [0; u]
                emb = np.eye(4)[:, [1, 3, 2, 0]]
            calls.append(("eigh", emb))
            return lam, emb

        def spy_qr(a):
            calls.append(("qr", a))
            return real_qr(a)

        monkeypatch.setattr(linalg, "eigh", spy_eigh)
        monkeypatch.setattr(linalg, "qr_q", spy_qr)
        frame = wootters_frame(d)
        monkeypatch.undo()
        [emb] = [out for name, out in calls if name == "eigh"]
        rank = emb.shape[0] // 2
        top = emb[:, ::-1][:, :rank]
        takagi = top[:rank] + 1j * top[rank:]
        mixed = bool(np.abs(takagi.conj().T @ takagi - np.eye(rank)).max() > TAKAGI_ORTHO)
        assert [name for name, _ in calls if name == "qr"] == (["qr"] if mixed else [])
        assert mixed or not plant
        # no Wootters value beyond the support of rho
        support = int((np.linalg.eigvalsh(d.matrix) > 1e-12).sum())
        assert (frame.lam[support:] < 1e-12).all(), frame.lam
        x = frame.x
        np.testing.assert_allclose(x @ x.conj().T, d.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.T @ SIGMA_YY @ x, np.diag(frame.lam),
                                   rtol=0, atol=1e-12)

    def test_skipped_check_passes_on_random_states(self, monkeypatch):
        # a full-rank frame with lam_4 >= 64 eps lam_1 / TAKAGI_ORTHO takes
        # no Gram check.  On states spread over lam_1 / lam_4 up to that gate
        # its frame is exact, and the Gram matrix it did not check departs
        # from I by at most 8 eps lam_1 / lam_4: the check would have passed
        # 8 times over.  The margin is the eigensolver's on these states,
        # not a bound.
        eps = np.finfo(float).eps
        gate = TAKAGI_ORTHO / (64.0 * eps)
        rng = np.random.default_rng(67)
        embeddings = []
        eigh = linalg.eigh

        def spy(a):
            out = eigh(a)
            if a.shape == (8, 8):
                embeddings.append(out)
            return out

        monkeypatch.setattr(linalg, "eigh", spy)
        ratios, worst = [], 0.0
        for i in range(300):
            # (1 - e) times a pure product plus e R, under local filters
            a, b = random_density(2, 1, rng), random_density(2, 1, rng)
            e = 10.0 ** rng.uniform(-3.5, 0.0)
            rho = (1.0 - e) * np.kron(a, b) + e * random_density(4, 4, rng)
            f = np.kron(*(np.eye(2) + 0.5 * (rng.normal(size=(2, 2, 2))
                                             + 1j * rng.normal(size=(2, 2, 2)))))
            rho = f @ rho @ f.conj().T
            rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
            frame = wootters_frame(decompose_state(rho, 2, 2))
            lam, emb = embeddings[-1]
            ratio = frame.lam[0] / frame.lam[3]
            if frame.lam[3] <= 0.0 or ratio > gate:
                continue
            np.testing.assert_allclose(frame.x @ frame.x.conj().T, rho, rtol=0, atol=1e-12)
            np.testing.assert_allclose(frame.x.T @ SIGMA_YY @ frame.x, np.diag(frame.lam),
                                       rtol=0, atol=1e-12)
            top = emb[:, ::-1][:, :4]
            takagi = top[:4] + 1j * top[4:]
            worst = max(worst, np.abs(takagi.conj().T @ takagi - np.eye(4)).max() / (eps * ratio))
            ratios.append(ratio)
        monkeypatch.undo()
        assert len(ratios) > 100 and max(ratios) > gate / 2.0
        assert worst <= 8.0, worst

    @pytest.mark.parametrize("seed", range(3))
    def test_ill_conditioned_full_rank_frame_takes_the_qr(self, seed, monkeypatch):
        # (1 - e)|00><00| + e I/4 at e = 1e-10 has full rank and
        # lam_1 / lam_4 = 2e5, far below the gate: the eigensolver mixes the
        # +-lam_4 eigenvectors by more than TAKAGI_ORTHO, so the Takagi
        # vectors are checked and orthonormalised
        u = np.kron(random_unitary(2, seed), random_unitary(2, 100 + seed))
        rho = u @ ((1.0 - 1e-10) * np.diag([1.0, 0.0, 0.0, 0.0]) + 1e-10 * np.eye(4) / 4.0) \
            @ u.conj().T
        d = decompose_state(rho, 2, 2)
        assert (d.spectrum[0] > 16.0 * np.finfo(float).eps).all()
        calls = []
        real_qr = linalg.qr_q

        def spy(a):
            calls.append(a)
            return real_qr(a)

        monkeypatch.setattr(linalg, "qr_q", spy)
        frame = wootters_frame(d)
        monkeypatch.undo()
        assert len(calls) == 1 and frame.lam[0] / frame.lam[3] > 1e5
        np.testing.assert_allclose(frame.x @ frame.x.conj().T, rho, rtol=0, atol=1e-12)
        np.testing.assert_allclose(frame.x.T @ SIGMA_YY @ frame.x, np.diag(frame.lam),
                                   rtol=0, atol=1e-12)

    def test_frame_of_entangled_state_has_positive_margin(self):
        # the Bell state has concurrence 1
        frame = wootters_frame(isotropic(2, 1.0))
        assert abs(frame.concurrence_margin - 1.0) < 1e-12

    def test_rejects_wrong_dims(self):
        d = decompose_state(np.eye(6) / 6.0, 2, 3)
        with pytest.raises(DimensionMismatch):
            wootters_frame(d)


def parity_inputs():
    """Ginibre states of rank 1 to 4, the Werner and isotropic states and
    I/4, the stall states (1 - eps)|00><00| + eps I/4, products with a pure
    factor and states under random local filters."""
    rng = np.random.default_rng(59)
    cases = [(f"ginibre-rank{rank}-{i}", random_density(4, rank, rng))
             for rank in (1, 2, 3, 4) for i in range(5)]
    cases += [(f"werner-{phi}", compose_state(werner(2, phi))) for phi in (0.0, 0.5, 1.0)]
    cases += [("isotropic-1/3", compose_state(isotropic(2, 1.0 / 3.0))), ("mixed", np.eye(4) / 4.0)]
    for eps in (1e-4, 3e-5, 1e-5, 3e-6):
        stall = (1.0 - eps) * np.diag([1.0, 0.0, 0.0, 0.0]) + eps * np.eye(4) / 4.0
        cases.append((f"stall-{eps:.0e}", stall))
    for i in range(4):
        pure, mixed = random_density(2, 1, rng), random_density(2, 2, rng)
        cases.append((f"pure-factor-{i}", np.kron(*((pure, mixed) if i % 2 else (mixed, pure)))))
    for i in range(6):
        f = np.kron(*(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))))
        rho = f @ random_density(4, 4 - i % 3, rng) @ f.conj().T
        cases.append((f"filtered-{i}", 0.5 * (rho + rho.conj().T) / np.trace(rho).real))
    return cases


def assert_same_components(got: SeparableDecomposition, want: SeparableDecomposition,
                           atol: float) -> None:
    """The rows (p, r, s) of ``got`` match those of ``want`` within ``atol``
    in some order: each row of ``got`` takes the nearest unmatched row."""
    rows = [np.column_stack([dec.probs, dec.r_vectors, dec.s_vectors]) for dec in (got, want)]
    assert rows[0].shape == rows[1].shape
    free = list(range(len(rows[1])))
    for row in rows[0]:
        dist = [np.abs(row - rows[1][j]).max() for j in free]
        best = int(np.argmin(dist))
        assert dist[best] <= atol, (row, rows[1])
        free.pop(best)


class TestWoottersParity:
    """The frame and the decomposition agree with the reference copies in
    ``helpers``, which pick the support by a boolean mask, check the Takagi
    Gram matrix at every rank, pad at every rank and form the seven Gram
    moments as one batched product."""

    CASES = parity_inputs()

    @pytest.mark.parametrize("rho", [rho for _, rho in CASES], ids=[c for c, _ in CASES])
    def test_matches_the_reference(self, rho):
        d = decompose_state(rho, 2, 2)
        frame, reference = wootters_frame(d), reference_wootters_frame(d)
        np.testing.assert_allclose(frame.lam, reference.lam, rtol=0, atol=1e-14)
        assert frame.lam.shape == (4,) and frame.x.shape == (4, 4)
        assert_same_components(wootters_decomposition(d), reference_wootters_decomposition(d),
                               atol=1e-12)


class TestTransport:
    def test_pull_back_filters(self):
        rng = np.random.default_rng(17)
        base = werner_decompose(2, 0.8)
        fa = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
        fb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
        from sephorn.bipartite import compose_state, decompose_state
        rho = compose_state(werner(2, 0.8))
        big = np.kron(fa, fb)
        filtered = big @ rho @ big.conj().T
        filtered /= np.trace(filtered).real
        # base decomposes rho; push it forward through the filters
        pushed = transport(base, fa, fb)
        report = verify_decomposition(pushed, decompose_state(filtered, 2, 2))
        assert report.valid

    def test_embed_isometries(self):
        from sephorn.bipartite import compose_state, decompose_state
        rng = np.random.default_rng(19)
        base = werner_decompose(2, 0.5)
        va = random_unitary(3, rng)[:, :2]
        vb = random_unitary(4, rng)[:, :2]
        big = np.kron(va, vb) @ compose_state(werner(2, 0.5)) @ np.kron(va, vb).conj().T
        lifted = transport(base, va, vb)
        report = verify_decomposition(lifted, decompose_state(big, 3, 4))
        assert report.valid

    @staticmethod
    def reference_transport(dec, map_a, map_b):
        """Per-component M rho M^dag with explicit generator sums and traces."""
        def to_matrix(vec, dim):
            gens = generator_basis(dim).matrices if dim > 1 else np.zeros((0, 1, 1))
            return np.eye(dim) / dim + 0.5 * sum(x * g for x, g in zip(vec, gens))

        def to_vector(rho):
            dim = rho.shape[0]
            gens = generator_basis(dim).matrices if dim > 1 else []
            return np.array([np.trace(rho @ g).real for g in gens])

        probs, r_out, s_out = [], [], []
        for p, r, s in dec.entries():
            rho_a = map_a @ to_matrix(r, map_a.shape[1]) @ map_a.conj().T
            rho_b = map_b @ to_matrix(s, map_b.shape[1]) @ map_b.conj().T
            ta, tb = np.trace(rho_a).real, np.trace(rho_b).real
            probs.append(p * ta * tb)
            r_out.append(to_vector(rho_a / ta))
            s_out.append(to_vector(rho_b / tb))
        probs = np.array(probs)
        return probs / probs.sum(), np.array(r_out), np.array(s_out)

    @staticmethod
    def random_decomposition(rng, dim_a, dim_b, count):
        def side(dim):
            if dim == 1:
                return np.zeros((count, 0))
            return to_bloch(np.array([random_density(dim, dim, rng) for _ in range(count)]))
        return SeparableDecomposition(probs=rng.dirichlet(np.ones(count)),
                                      r_vectors=side(dim_a), s_vectors=side(dim_b))

    def assert_matches_reference(self, got, dec, map_a, map_b):
        probs, r_vectors, s_vectors = self.reference_transport(dec, map_a, map_b)
        for have, want in ((got.probs, probs), (got.r_vectors, r_vectors),
                           (got.s_vectors, s_vectors)):
            assert have.shape == want.shape
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim_a, dim_b, cond", [
        pytest.param(n, m, cond, id=f"{n}-{m}" + ("" if cond is None else f"-cond{cond:.0e}"))
        for n, m in [(2, 2), (2, 3), (3, 3), (4, 5), (7, 7)] for cond in (None, 1e2, 1e4)])
    def test_stacked_transport_matches_component_loop(self, dim_a, dim_b, cond):
        """Inverse filters near I, or with singular values spread from 1 to
        cond; isometries; and an isometry times an inverse filter."""
        rng = np.random.default_rng(dim_a * 10 + dim_b)
        dec = self.random_decomposition(rng, dim_a, dim_b, 2 * dim_a * dim_b)
        if cond is None:
            fa, fb = (np.eye(n) + 0.3 * (rng.normal(size=(n, n))
                                         + 1j * rng.normal(size=(n, n)))
                      for n in (dim_a, dim_b))
        else:
            fa, fb = ((random_unitary(n, rng) * np.geomspace(1.0, 1.0 / cond, n))
                      @ random_unitary(n, rng) for n in (dim_a, dim_b))
        ia, ib = np.linalg.inv(fa), np.linalg.inv(fb)
        va = random_unitary(dim_a + 2, rng)[:, :dim_a]
        vb = random_unitary(dim_b + 1, rng)[:, :dim_b]
        for map_a, map_b in ((ia, ib), (va, vb), (va @ ia, vb @ ib)):
            self.assert_matches_reference(transport(dec, map_a, map_b), dec, map_a, map_b)

    def test_rank_one_factor_lifted(self):
        rng = np.random.default_rng(29)
        dec = self.random_decomposition(rng, 1, 2, 5)
        va = random_unitary(3, rng)[:, :1]
        vb = random_unitary(4, rng)[:, :2]
        lifted = transport(dec, va, vb)
        self.assert_matches_reference(lifted, dec, va, vb)
        # the dim-1 side lifts to the one pure state va va^dag
        np.testing.assert_allclose(from_bloch(lifted.r_vectors),
                                   np.broadcast_to(va @ va.conj().T, (5, 3, 3)),
                                   rtol=0, atol=1e-12)
