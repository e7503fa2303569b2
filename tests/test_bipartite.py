import warnings

import numpy as np
import pytest

from sephorn.bipartite import (
    compose_state,
    decompose_state,
    local_ranks,
    normal_form,
    partial_transpose,
    partial_transpose_matrix,
    project_to_support,
    support_isometries,
)
from sephorn.bloch import _gen_stack, to_bloch
from sephorn.errors import DimensionMismatch, NotFullRank
from sephorn.states import bell, p_zero, random_density, werner


def random_bipartite(dim_a, dim_b, rng, rank=None):
    size = dim_a * dim_b
    rho = random_density(size, rank or size, rng)
    return decompose_state(rho, dim_a, dim_b)


class TestDecompose:
    def test_bell_correlation(self):
        d = decompose_state(compose_state(bell()), 2, 2)
        np.testing.assert_allclose(d.a, 0.0, atol=1e-14)
        np.testing.assert_allclose(d.b, 0.0, atol=1e-14)
        np.testing.assert_allclose(d.corr, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_product_state_rank_one_correlation(self):
        rng = np.random.default_rng(1)
        rho_a = random_density(2, 2, rng)
        rho_b = random_density(3, 3, rng)
        d = decompose_state(np.kron(rho_a, rho_b), 2, 3)
        np.testing.assert_allclose(d.corr, np.outer(to_bloch(rho_a), to_bloch(rho_b)),
                                   atol=1e-13)
        assert np.linalg.matrix_rank(d.corr, tol=1e-10) <= 1

    def test_maximally_mixed(self):
        d = decompose_state(np.eye(6) / 6, 2, 3)
        assert np.abs(d.a).max() < 1e-14
        assert np.abs(d.b).max() < 1e-14
        assert np.abs(d.corr).max() < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            decompose_state(np.eye(4) / 4, 2, 3)

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (2, 3), (3, 4)])
    def test_moments_match_explicit_traces(self, dims):
        # dimension-1 factors are what project_to_support hands back
        n, m = dims
        rho = random_density(n * m, n * m, np.random.default_rng(n * 10 + m))
        d = decompose_state(rho, n, m)
        gens_a, gens_b = _gen_stack(n), _gen_stack(m)
        eye_a, eye_b = np.eye(n), np.eye(m)
        a = [np.trace(rho @ np.kron(g, eye_b)).real for g in gens_a]
        b = [np.trace(rho @ np.kron(eye_a, h)).real for h in gens_b]
        corr = [[np.trace(rho @ np.kron(g, h)).real for h in gens_b] for g in gens_a]
        np.testing.assert_allclose(d.a, np.reshape(a, n * n - 1), rtol=0, atol=1e-13)
        np.testing.assert_allclose(d.b, np.reshape(b, m * m - 1), rtol=0, atol=1e-13)
        np.testing.assert_allclose(d.corr, np.reshape(corr, (n * n - 1, m * m - 1)),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_round_trip(self, dims):
        rng = np.random.default_rng(sum(dims))
        for _ in range(10):
            d = random_bipartite(*dims, rng)
            rho = compose_state(d)
            np.testing.assert_allclose(
                compose_state(decompose_state(rho, *dims)), rho, atol=1e-12)


class TestContractions:
    """The generator contractions against explicit einsum references."""

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 3), (7, 7)])
    def test_match_einsum_reference(self, dims):
        n, m = dims
        rng = np.random.default_rng(n * 10 + m)
        rho = random_density(n * m, n * m, rng)
        gens_a, gens_b = _gen_stack(n), _gen_stack(m)
        d = decompose_state(rho, n, m)
        corr = np.einsum("imjn,uji,vnm->uv", rho.reshape(n, m, n, m), gens_a, gens_b).real
        np.testing.assert_allclose(d.corr, corr, rtol=0, atol=1e-13)
        eye_a, eye_b = np.eye(n), np.eye(m)
        ref = (np.einsum("ij,kl->ikjl", eye_a, eye_b) / (n * m)
               + np.einsum("uij,u,kl->ikjl", gens_a, d.a, eye_b) / (2.0 * m)
               + np.einsum("ij,vkl,v->ikjl", eye_a, gens_b, d.b) / (2.0 * n)
               + 0.25 * np.einsum("uv,uij,vkl->ikjl", d.corr, gens_a, gens_b))
        np.testing.assert_allclose(compose_state(d), ref.reshape(n * m, n * m),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(compose_state(d), rho, rtol=0, atol=1e-13)


class TestPartialTranspose:
    def test_bell(self):
        d = partial_transpose(bell())
        np.testing.assert_allclose(d.corr, np.eye(3), atol=1e-14)
        low = np.linalg.eigvalsh(compose_state(d))[0]
        assert abs(low - (-0.5)) < 1e-12

    def test_matches_matrix_level(self):
        rng = np.random.default_rng(3)
        for dims in ((2, 2), (2, 3), (3, 2)):
            d = random_bipartite(*dims, rng)
            via_bloch = compose_state(partial_transpose(d))
            via_matrix = partial_transpose_matrix(compose_state(d), *dims)
            np.testing.assert_allclose(via_bloch, via_matrix, atol=1e-12)

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(4)
        rho = np.kron(random_density(2, 2, rng), random_density(2, 2, rng))
        d = partial_transpose(decompose_state(rho, 2, 2))
        assert np.linalg.eigvalsh(compose_state(d))[0] >= -1e-12

    def test_involution(self):
        d = random_bipartite(2, 3, np.random.default_rng(5))
        dd = partial_transpose(partial_transpose(d))
        np.testing.assert_array_equal(dd.corr, d.corr)
        np.testing.assert_array_equal(dd.b, d.b)

    def test_preserves_singular_values_in_normal_form(self):
        rng = np.random.default_rng(6)
        for dims in ((2, 2), (3, 3)):
            d = random_bipartite(*dims, rng)
            tilde = normal_form(d).state
            before = np.linalg.svd(tilde.corr, compute_uv=False)
            after = np.linalg.svd(partial_transpose(tilde).corr, compute_uv=False)
            np.testing.assert_allclose(before, after, atol=1e-10)

    def test_spectrum_commutes_with_compose(self):
        d = random_bipartite(2, 3, np.random.default_rng(7))
        ev_a = np.linalg.eigvalsh(compose_state(partial_transpose(d)))
        ev_b = np.linalg.eigvalsh(partial_transpose_matrix(compose_state(d), 2, 3))
        np.testing.assert_allclose(ev_a, ev_b, atol=1e-10)


class TestLocalRanks:
    def test_bell(self):
        assert local_ranks(bell()) == (2, 2)

    def test_pure_product(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert local_ranks(decompose_state(rho, 2, 2)) == (1, 1)

    def test_p_zero_half(self):
        # marginals are diag(3/4, 1/4) and diag(3/4, 1/4): full rank
        assert local_ranks(p_zero(0.5)) == (2, 2)


class TestSupportProjection:
    def test_pure_product_reduces_to_trivial(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        reduced = project_to_support(decompose_state(rho, 2, 2))
        assert (reduced.dim_a, reduced.dim_b) == (1, 1)
        assert reduced.corr.shape == (0, 0)

    def test_full_rank_is_identity(self):
        d = random_bipartite(2, 2, np.random.default_rng(8))
        assert project_to_support(d) is d

    def test_canonical_embedding_recovered_exactly(self):
        # pad a 2x2 Werner state into the first two levels of a 3x3 system;
        # support projection recovers the original matrix
        w = compose_state(werner(2, 0.7))
        pad = np.zeros((3, 2), dtype=complex)
        pad[:2, :2] = np.eye(2)
        big = np.kron(pad, pad) @ w @ np.kron(pad, pad).conj().T
        reduced = project_to_support(decompose_state(big, 3, 3))
        assert (reduced.dim_a, reduced.dim_b) == (2, 2)
        assert np.linalg.norm(compose_state(reduced) - w) < 1e-10

    def test_embedded_werner_recovered(self):
        w = werner(2, 0.7)
        rng = np.random.default_rng(9)
        from sephorn.linalg import random_unitary
        va = random_unitary(3, rng)[:, :2]
        vb = random_unitary(3, rng)[:, :2]
        big = np.kron(va, vb) @ compose_state(w) @ np.kron(va, vb).conj().T
        d = decompose_state(big, 3, 3)
        assert local_ranks(d) == (2, 2)
        reduced = project_to_support(d)
        assert (reduced.dim_a, reduced.dim_b) == (2, 2)
        # support eigenbasis may differ from the embedding by local unitaries,
        # which preserve the correlation singular values
        np.testing.assert_allclose(
            np.linalg.svd(reduced.corr, compute_uv=False),
            np.linalg.svd(w.corr, compute_uv=False), atol=1e-10)
        iso_a, iso_b = support_isometries(d)
        iso = np.kron(iso_a, iso_b)
        np.testing.assert_allclose(iso @ compose_state(reduced) @ iso.conj().T,
                                   big, atol=1e-10)


class TestNormalForm:
    def test_werner_already_normal(self):
        result = normal_form(werner(3, 0.8))
        assert result.converged and result.iterations == 0
        np.testing.assert_array_equal(result.filter_a, np.eye(3))

    def test_random_full_rank_converges(self):
        d = random_bipartite(2, 2, np.random.default_rng(11))
        result = normal_form(d)
        assert result.converged
        assert np.linalg.norm(result.state.a) < 1e-10
        assert np.linalg.norm(result.state.b) < 1e-10

    def test_filters_reproduce_state(self):
        d = random_bipartite(2, 3, np.random.default_rng(12))
        result = normal_form(d)
        big = np.kron(result.filter_a, result.filter_b)
        filtered = big @ compose_state(d) @ big.conj().T
        filtered /= np.trace(filtered).real
        np.testing.assert_allclose(filtered, compose_state(result.state), atol=1e-10)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_filters_reproduce_random_states(self, dims):
        rng = np.random.default_rng(13)
        tol = 1e-10
        for _ in range(20):
            d = random_bipartite(*dims, rng)
            result = normal_form(d, tol=tol)
            assert result.converged
            big = np.kron(result.filter_a, result.filter_b)
            filtered = big @ compose_state(d) @ big.conj().T
            # each filter step keeps the trace at one
            assert abs(np.trace(filtered) - 1.0) < 1e-12
            np.testing.assert_allclose(filtered, compose_state(result.state),
                                       rtol=0, atol=1e-10)
            assert np.linalg.norm(result.state.a) <= tol
            assert np.linalg.norm(result.state.b) <= tol

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
    def test_low_rank_plus_noise(self, dims):
        # low rank plus a little noise needs ill-conditioned filters; every
        # converged record is within tol and is the state its filters give
        rng = np.random.default_rng(sum(dims))
        size = dims[0] * dims[1]
        tol = 1e-10
        filtered_states = 0
        for rank in (1, 2, 3):
            for eps in (1e-3, 1e-6, 1e-9):
                rho = (1 - eps) * random_density(size, rank, rng) + eps * np.eye(size) / size
                d = decompose_state(rho, *dims)
                if local_ranks(d) != dims:
                    continue
                result = normal_form(d, tol=tol)
                if not result.converged:
                    continue
                filtered_states += 1
                assert np.linalg.norm(result.state.a) <= tol
                assert np.linalg.norm(result.state.b) <= tol
                big = np.kron(result.filter_a, result.filter_b)
                filtered = big @ rho @ big.conj().T
                filtered /= np.trace(filtered).real
                np.testing.assert_allclose(filtered, compose_state(result.state),
                                           rtol=0, atol=1e-10)
        assert filtered_states >= 3

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_stall_states_run_to_budget(self, dim, eps):
        # (1 - eps)|00><00| + eps I/d has its normal form only in the limit;
        # the filters diverge but stay finite, and no numpy warning is raised
        size = dim * dim
        rho = eps * np.eye(size) / size
        rho[0, 0] += 1 - eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = normal_form(decompose_state(rho, dim, dim), max_iter=500)
        assert result.iterations == 500 and not result.converged
        assert np.isfinite(result.filter_a).all() and np.isfinite(result.filter_b).all()

    def test_p_zero_limit_behavior(self):
        result = normal_form(p_zero(0.5), max_iter=500)
        assert not result.converged
        assert result.iterations == 500
        psi = np.zeros(4)
        psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
        fidelity = float(np.real(psi @ compose_state(result.state) @ psi))
        assert fidelity > 0.99

    def test_requires_full_local_ranks(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        with pytest.raises(NotFullRank):
            normal_form(decompose_state(rho, 2, 2))
