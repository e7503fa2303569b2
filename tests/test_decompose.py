import numpy as np
import pytest

from sephorn.bipartite import BipartiteDecomposed, decompose_state, partial_transpose_matrix
from sephorn import decompose
from sephorn.bloch import from_bloch, is_physical
from sephorn.criteria import verify_decomposition
from sephorn.decompose import (
    ENTANGLED,
    DecompositionOutcome,
    SeparableDecomposition,
    assemble_factor_pair,
    embed_isometries,
    factorization_frame,
    isotropic_decompose,
    kyfan_bound_decomposition,
    pull_back_filters,
    pure_state_simplex,
    simplex_frame,
    werner_decompose,
    wootters_decomposition,
    wootters_frame,
)
from sephorn.errors import (
    BoundExceeded,
    DimensionMismatch,
    FactorConstraintViolated,
    OutOfPositivityRange,
    SearchFailed,
)
from sephorn.horn import product_singulars_feasible
from sephorn.linalg import random_orthogonal
from sephorn.states import isotropic, random_density, werner
from sephorn.su import generator_basis, symmetric_structure_tensor


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


class TestFactorizationFrame:
    def test_reconstruction_and_padding(self):
        rng = np.random.default_rng(0)
        corr = rng.normal(size=(3, 3))
        frame = factorization_frame(corr)
        assert frame.size == frame.rank + 1 == 4
        approx = frame.left_basis @ np.diag(frame.taus) @ frame.right_basis.T
        np.testing.assert_allclose(approx, corr, atol=1e-12)

    def test_rank_deficient(self):
        corr = np.outer([1.0, 0.0, 0.0], [0.0, 0.5, 0.0])
        frame = factorization_frame(corr)
        assert frame.rank == 1 and frame.size == 2
        np.testing.assert_allclose(frame.taus, [0.5, 0.0], atol=1e-15)


class TestAssembleFactorPair:
    def test_diagonal_case(self):
        corr = np.diag([0.6, 0.3, 0.1])
        frame = factorization_frame(corr, size=3)
        eye = np.eye(3)
        alpha = np.sqrt(frame.taus)
        m_rp, m_sp = assemble_factor_pair(frame, eye, eye, eye, eye, alpha, alpha)
        np.testing.assert_allclose(m_rp @ m_sp.T, corr, atol=1e-12)

    def test_forward_round_trip(self):
        # sample an admissible (alpha, beta, Q), absorb the leftover rotations
        # of their product into x and y, and reassemble the correlation matrix
        rng = np.random.default_rng(5)
        for _ in range(20):
            size = int(rng.integers(2, 6))
            ka = size + int(rng.integers(0, 3))
            alpha = np.sort(rng.uniform(0.1, 1.5, size=size))[::-1]
            beta = np.sort(rng.uniform(0.1, 1.5, size=size))[::-1]
            q = random_orthogonal(size, rng)
            middle = (alpha[:, None] * q) * beta[None, :]
            u_mid, taus, vh_mid = np.linalg.svd(middle)
            basis_l = random_orthogonal(ka, rng)[:, :size]
            basis_r = random_orthogonal(ka, rng)[:, :size]
            corr = basis_l @ np.diag(taus) @ basis_r.T
            frame = factorization_frame(corr, size=size)
            m_rp, m_sp = assemble_factor_pair(frame, u_mid.T, vh_mid, q,
                                              np.eye(size), alpha, beta)
            assert np.abs(m_rp @ m_sp.T - corr).max() < 1e-9

    def test_constraint_violation(self):
        corr = np.diag([0.6, 0.3, 0.1])
        frame = factorization_frame(corr, size=3)
        eye = np.eye(3)
        with pytest.raises(FactorConstraintViolated):
            assemble_factor_pair(frame, eye, eye, eye, eye,
                                 np.array([1.0, 1.0, 1.0]),
                                 np.array([1.0, 1.0, 1.0]))


class TestSimplexFrame:
    def test_rotation_and_weights_consistent(self):
        rng = np.random.default_rng(14)
        corr = rng.normal(size=(3, 3))
        corr *= 0.8 / np.linalg.svd(corr, compute_uv=False).sum()
        frame = factorization_frame(corr)
        sf = simplex_frame(frame, 2, 2)
        count = frame.rank + 1
        np.testing.assert_allclose(sf.q @ sf.q.T, np.eye(count), atol=1e-10)
        np.testing.assert_allclose(sf.q[-1], np.sqrt(sf.probs), atol=1e-9)
        kappa = sf.alpha * sf.beta  # alpha_i beta_i = tau_i for two qubits
        np.testing.assert_allclose(kappa, frame.taus[:frame.rank], atol=1e-12)
        want = (kappa @ sf.q[:-1] ** 2) / kappa.sum()
        np.testing.assert_allclose(sf.probs, want, atol=1e-9)


class TestReflectorRotation:
    @staticmethod
    def distributions(count):
        rng = np.random.default_rng(count)
        yield np.full(count, 1.0 / count)
        yield np.eye(count)[-1]
        for _ in range(5):
            yield rng.dirichlet(np.ones(count))

    @pytest.mark.parametrize("count", range(2, 10))
    def test_rotation_with_last_row_sqrt_p(self, count):
        for p in self.distributions(count):
            q = decompose._reflector_rotation(p)
            np.testing.assert_allclose(q @ q.T, np.eye(count), rtol=0, atol=1e-12)
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(q[-1], np.sqrt(p), rtol=0, atol=1e-15)

    def test_point_mass_gives_identity(self):
        assert (decompose._reflector_rotation(np.eye(4)[-1]) == np.eye(4)).all()

    @pytest.mark.parametrize("count", range(2, 10))
    def test_simplex_frame_probs_are_squared_last_row(self, count):
        rng = np.random.default_rng(100 + count)
        rank = count - 1
        corr = rng.normal(size=(8, rank)) @ rng.normal(size=(rank, 8))
        corr *= 0.8 / (3.0 * np.linalg.svd(corr, compute_uv=False).sum())
        frame = factorization_frame(corr)
        assert frame.rank == rank
        sf = simplex_frame(frame, 3, 3)
        assert sf.q.shape == (count, count)
        np.testing.assert_allclose(sf.probs, sf.q[-1] ** 2, rtol=0, atol=1e-15)


class TestKyfanBoundDecomposition:
    def test_zero_correlation(self):
        frame = factorization_frame(np.zeros((3, 3)))
        dec = kyfan_bound_decomposition(frame, 2, 2)
        assert len(dec) == 1
        assert dec.probs[0] == 1.0
        assert np.abs(dec.r_vectors).max() == 0.0

    def test_two_qubit_point_nine(self):
        corr = np.diag([0.3, 0.3, 0.3])
        frame = factorization_frame(corr)
        dec = kyfan_bound_decomposition(frame, 2, 2)
        assert len(dec) == 4
        norms = np.sum(dec.r_vectors ** 2, axis=1)
        np.testing.assert_allclose(norms, 0.9, atol=1e-9)
        report = verify_decomposition(dec, normal_form_state(corr, 2, 2))
        assert report.valid and report.max_residual < 1e-8

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        corr = 0.5 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        frame = factorization_frame(corr)
        dec = kyfan_bound_decomposition(frame, 2, 2)
        assert len(dec) == 2
        report = verify_decomposition(dec, normal_form_state(corr, 2, 2))
        assert report.valid

    def test_bound_exceeded(self):
        frame = factorization_frame(np.diag([0.5, 0.5, 0.5]))
        with pytest.raises(BoundExceeded):
            kyfan_bound_decomposition(frame, 2, 2)

    def test_component_norm_formula(self):
        # |r_j|^2 = 2 K / (N(N-1)) for every component, K the scaled norm
        rng = np.random.default_rng(9)
        for dims in ((2, 2), (2, 3), (3, 3)):
            n, m = dims
            ka, kb = n * n - 1, m * m - 1
            raw = rng.normal(size=(ka, kb))
            target = rng.uniform(0.3, 1.0)
            weight = np.sqrt(n * (n - 1) * m * (m - 1)) / 2.0
            raw *= target / (np.linalg.svd(raw, compute_uv=False).sum() * weight)
            frame = factorization_frame(raw)
            dec = kyfan_bound_decomposition(frame, n, m)
            np.testing.assert_allclose(np.sum(dec.r_vectors ** 2, axis=1),
                                       2.0 * target / (n * (n - 1)), atol=1e-9)
            np.testing.assert_allclose(np.sum(dec.s_vectors ** 2, axis=1),
                                       2.0 * target / (m * (m - 1)), atol=1e-9)
            report = verify_decomposition(dec, normal_form_state(raw, n, m))
            assert report.valid and report.max_residual < 1e-8

    def test_horn_consistency(self):
        # singular values of the emitted factor pair against the target
        corr = np.diag([0.3, 0.3, 0.3])
        frame = factorization_frame(corr)
        dec = kyfan_bound_decomposition(frame, 2, 2)
        m_rp = (dec.r_vectors * np.sqrt(dec.probs[:, None])).T
        m_sp = (dec.s_vectors * np.sqrt(dec.probs[:, None])).T
        length = len(dec)
        assert product_singulars_feasible(padded_singulars(corr, length),
                                          padded_singulars(m_rp, length),
                                          padded_singulars(m_sp, length))


class TestPureSimplex:
    def test_qubit_tetrahedron(self):
        vecs = pure_state_simplex(2, seed=0)
        assert vecs.shape == (4, 3)
        gram = vecs @ vecs.T
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)
        off = gram[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 3.0, atol=1e-12)

    def test_qutrit_simplex(self):
        vecs = pure_state_simplex(3, seed=0)
        assert vecs.shape == (9, 8)
        gram = vecs @ vecs.T
        np.testing.assert_allclose(np.diag(gram), 4.0 / 3.0, atol=1e-10)
        off = gram[~np.eye(9, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 6.0, atol=1e-10)
        for v in vecs:
            assert is_physical(v, tol=1e-8)

    def test_qutrit_components_are_pure(self):
        # cubic structure-constant invariant of pure qutrit states
        tensor = symmetric_structure_tensor(generator_basis(3))
        for v in pure_state_simplex(3, seed=0):
            assert abs(tensor.contract(np.asarray(v)) - 8.0 / 9.0) < 1e-6

    def test_deterministic_per_seed(self):
        a = pure_state_simplex(3, seed=1)
        b = pure_state_simplex(3, seed=1)
        assert (a == b).all()

    def test_best_effort_dim_four(self):
        vecs = pure_state_simplex(4, seed=0)
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
        with pytest.raises(SearchFailed) as exc:
            pure_state_simplex(3, seed=987654)
        assert 0.0 <= exc.value.residual < 1e-12


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

    def test_interior_points(self):
        for dim, phi in ((2, 0.7), (2, 0.2), (3, 0.8), (3, 0.15)):
            dec = werner_decompose(dim, phi)
            assert not isinstance(dec, DecompositionOutcome)
            report = verify_decomposition(dec, werner(dim, phi))
            assert report.valid and report.max_residual < 1e-8

    def test_negative_phi_entangled(self):
        assert werner_decompose(2, -0.3) is ENTANGLED
        assert werner_decompose(3, -0.01) is ENTANGLED

    def test_out_of_range(self):
        with pytest.raises(OutOfPositivityRange):
            werner_decompose(2, 1.5)

    def test_factor_balance(self):
        # product of the two factor scales matches the correlation strength
        for dim, phi in ((2, 1.0), (3, 0.0), (3, 1.0)):
            dec = werner_decompose(dim, phi)
            c = 2.0 * (dim * phi - 1.0) / (dim * (dim * dim - 1.0))
            ra = np.linalg.norm(dec.r_vectors[0]) / np.sqrt(dim * dim - 1.0)
            sb = np.linalg.norm(dec.s_vectors[0]) / np.sqrt(dim * dim - 1.0)
            assert abs(ra * sb - abs(c)) < 1e-10

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
    def test_qubit_image_of_saturated_werner(self):
        dec = isotropic_decompose(2, 1.0 / 3.0)
        report = verify_decomposition(dec, isotropic(2, 1.0 / 3.0))
        assert report.valid and report.max_residual < 1e-8

    def test_entangled_above_threshold(self):
        assert isotropic_decompose(3, 0.26) is ENTANGLED

    def test_round_off_above_threshold_decomposes(self):
        # within the 1e-12 slack the threshold state is decomposed, even
        # where the Werner partner's phi would leave its own slack
        threshold = 1.0 / 6.0
        dec = isotropic_decompose(5, threshold + 5e-13)
        report = verify_decomposition(dec, isotropic(5, threshold))
        assert report.valid and report.max_residual < 1e-10

    def test_lower_positivity_edge(self):
        dec = isotropic_decompose(3, -1.0 / 8.0)
        report = verify_decomposition(dec, isotropic(3, -1.0 / 8.0))
        assert report.valid and report.max_residual < 1e-8

    def test_out_of_range(self):
        with pytest.raises(OutOfPositivityRange):
            isotropic_decompose(3, -0.2)
        with pytest.raises(OutOfPositivityRange):
            isotropic_decompose(3, 1.1)


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


class TestWootters:
    CASES = wootters_inputs()

    @pytest.mark.parametrize("d", [d for _, d in CASES], ids=[c for c, _ in CASES])
    def test_pure_product_components_reproduce_state(self, d):
        dec = wootters_decomposition(d)
        assert 1 <= len(dec) <= 4
        assert dec.probs.min() > 0.0
        assert abs(dec.probs.sum() - 1.0) <= 1e-12
        for got, want in ((np.linalg.norm(dec.r_vectors, axis=1), 1.0),
                          (np.linalg.norm(dec.s_vectors, axis=1), 1.0),
                          (dec.marginal_a, d.a), (dec.marginal_b, d.b),
                          (dec.correlation, d.corr)):
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

    def test_frame_of_entangled_state_has_positive_margin(self):
        # the Bell state has concurrence 1
        frame = wootters_frame(isotropic(2, 1.0))
        assert abs(frame.concurrence_margin - 1.0) < 1e-12

    def test_rejects_wrong_dims(self):
        d = decompose_state(np.eye(6) / 6.0, 2, 3)
        with pytest.raises(DimensionMismatch):
            wootters_frame(d)


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
        pushed = pull_back_filters(base, np.linalg.inv(fa), np.linalg.inv(fb), 2, 2)
        report = verify_decomposition(pushed, decompose_state(filtered, 2, 2))
        assert report.valid

    def test_embed_isometries(self):
        from sephorn.bipartite import compose_state, decompose_state
        from sephorn.linalg import random_unitary
        rng = np.random.default_rng(19)
        base = werner_decompose(2, 0.5)
        va = random_unitary(3, rng)[:, :2]
        vb = random_unitary(4, rng)[:, :2]
        big = np.kron(va, vb) @ compose_state(werner(2, 0.5)) @ np.kron(va, vb).conj().T
        lifted = embed_isometries(base, va, vb)
        report = verify_decomposition(lifted, decompose_state(big, 3, 4))
        assert report.valid
