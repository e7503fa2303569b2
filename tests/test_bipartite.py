import warnings

import numpy as np
import pytest

from helpers import (filter_products, ill_conditioned_product, nested_support, noisy, products,
                     projected_filtered, random_density, random_unitary, reference_projection)
from sephorn import bipartite, criteria
from sephorn.bipartite import (
    BipartiteDecomposed,
    _marginal_norm,
    compose_state,
    decompose_state,
    local_ranks,
    normal_form,
    support_isometries,
)
from sephorn.bloch import _gen_stack, from_bloch, to_bloch
from sephorn.config import MAX_ITER, NORMAL_TOL
from sephorn.criteria import Status, analyze, verify_decomposition
from sephorn.errors import BadParameter, DimensionMismatch, NotFullRank
from sephorn.states import bell, isotropic, p_zero, werner


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

    # True is an Integral, and True x 9 matches the size of the matrix
    @pytest.mark.parametrize("dims", [(-3, -3), (3.0, 3.0), (0, 9), (3, None), (True, 9)])
    def test_dimensions_must_be_integers_at_least_one(self, dims):
        with pytest.raises(DimensionMismatch, match="integers >= 1"):
            decompose_state(np.eye(9) / 9, *dims)

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (2, 3), (3, 4)])
    def test_moments_match_explicit_traces(self, dims):
        # dimension-1 factors: analyze takes one-sided states as they come
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

    @pytest.mark.parametrize("dims", [(1, 3), (2, 3), (3, 3)])
    def test_moments_are_seeded_and_read_only(self, dims):
        # decompose_state and normal_form seed [[1, b^T], [a, corr]] from the
        # matrix they slice a, b and corr from; a record built from its
        # Bloch data alone builds the same matrix; the trace reads as one
        n, m = dims
        rng = np.random.default_rng(n * 10 + m)
        rho = random_density(n * m, n * m, rng) * (1.0 + 5e-10)
        d = decompose_state(rho, n, m)
        assert "moments" in vars(d)
        built = BipartiteDecomposed(dim_a=n, dim_b=m, a=d.a, b=d.b, corr=d.corr)
        assert "moments" not in vars(built)
        np.testing.assert_array_equal(d.moments, built.moments)
        assert d.moments.shape == (n * n, m * m) and d.moments[0, 0] == 1.0
        assert d.moments is d.moments
        assert not d.moments.flags.writeable and not built.moments.flags.writeable
        if n > 1:
            state = normal_form(d).state
            assert "moments" in vars(state)
            np.testing.assert_allclose(state.moments, BipartiteDecomposed(
                dim_a=n, dim_b=m, a=state.a, b=state.b, corr=state.corr).moments,
                rtol=0, atol=0)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (1, 3), (3, 1), (7, 7)])
    def test_round_trip(self, dims):
        # composed from the Bloch data alone, not from the seeded matrices
        rng = np.random.default_rng(sum(dims))
        for _ in range(10):
            d = random_bipartite(*dims, rng)
            rho = compose_state(d)
            d = decompose_state(rho, *dims)
            built = BipartiteDecomposed(dim_a=d.dim_a, dim_b=d.dim_b, a=d.a, b=d.b, corr=d.corr)
            np.testing.assert_allclose(compose_state(built), rho, atol=1e-12)


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

    @pytest.mark.parametrize("tol", [1e-9, 1e-7])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 2)])
    def test_match_eigenvalue_counts_at_the_cutoff(self, dims, tol):
        # marginals with their lowest eigenvalues just above and just below
        # tol, where the ball floor and the eigenvalue count must agree
        rng = np.random.default_rng(dims[0] * 10 + dims[1])
        for low_a, low_b in ((1.001, 0.999), (0.999, 1.001), (1.001, 1.001), (0.999, 0.999)):
            marginals = []
            for dim, low in zip(dims, (low_a, low_b)):
                w = np.full(dim, tol * low)
                w[1:] = (1.0 - tol * low) * rng.dirichlet(np.ones(dim - 1))
                u = random_unitary(dim, rng)
                marginals.append((u * w) @ u.conj().T)
            d = decompose_state(np.kron(*marginals), *dims)
            expected = tuple(int(np.sum(np.linalg.eigvalsh(from_bloch(vec, dim)) > tol))
                             for vec, dim in ((d.a, dims[0]), (d.b, dims[1])))
            assert local_ranks(d, tol) == expected
            assert expected == tuple(dim if low > 1.0 else dim - 1
                                     for dim, low in zip(dims, (low_a, low_b)))

    def test_ball_floor_skips_the_eigensolve(self):
        d = decompose_state(random_density(6, 6, np.random.default_rng(3)), 2, 3)
        assert local_ranks(d) == (2, 3)
        assert "marginal_eigh_a" not in vars(d) and "marginal_eigh_b" not in vars(d)


def projections(rho, n, m, monkeypatch):
    """The verdict of ``analyze(rho, n, m)`` and each support projection it
    makes, as (record, projected record) pairs, read from its calls of
    ``criteria._filtered``."""
    calls = []

    def spy(d, fa, fb):
        calls.append((d, bipartite._filtered(d, fa, fb)))
        return calls[-1][1]

    monkeypatch.setattr(criteria, "_filtered", spy)
    return analyze(rho, n, m), calls


class TestSupportProjection:
    def test_pure_product_reduces_to_trivial(self, monkeypatch):
        # a pure marginal ends the pass, after PPT on the input, with the
        # trivial factor of the record: no 1 x 1 record is projected
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        verdict, calls = projections(rho, 2, 2, monkeypatch)
        assert calls == []
        assert [c.name for c in verdict.criteria] == [
            "ppt", "support-projection", "decomposition[trivial-factor]"]

    def test_full_rank_is_identity(self, monkeypatch):
        d = random_bipartite(2, 2, np.random.default_rng(8))
        verdict, calls = projections(d.matrix, 2, 2, monkeypatch)
        assert calls == []
        assert "support-projection" not in [c.name for c in verdict.criteria]

    def test_canonical_embedding_recovered_exactly(self, monkeypatch):
        # pad a 2x2 Werner state into the first two levels of a 3x3 system;
        # support projection recovers the original matrix
        w = compose_state(werner(2, 0.7))
        pad = np.zeros((3, 2), dtype=complex)
        pad[:2, :2] = np.eye(2)
        big = np.kron(pad, pad) @ w @ np.kron(pad, pad).conj().T
        _, calls = projections(big, 3, 3, monkeypatch)
        [(_, reduced)] = calls
        assert (reduced.dim_a, reduced.dim_b) == (2, 2)
        assert np.linalg.norm(compose_state(reduced) - w) < 1e-10

    def test_embedded_werner_recovered(self, monkeypatch):
        w = werner(2, 0.7)
        rng = np.random.default_rng(9)
        va = random_unitary(3, rng)[:, :2]
        vb = random_unitary(3, rng)[:, :2]
        big = np.kron(va, vb) @ compose_state(w) @ np.kron(va, vb).conj().T
        d = decompose_state(big, 3, 3)
        assert local_ranks(d) == (2, 2)
        _, calls = projections(big, 3, 3, monkeypatch)
        [(_, reduced)] = calls
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


class TestProjectionIsALocalMap:
    """Each support projection ``analyze`` makes against the matrix-level
    V^dag rho V over its trace, V the support isometries of the record it
    projects."""

    @staticmethod
    def assert_matches_reference(rho, dims, count, monkeypatch):
        _, calls = projections(rho, 3, 3, monkeypatch)
        assert len(calls) == count
        # the first projection takes the input, and each later one the record
        # the one before it made
        np.testing.assert_array_equal(calls[0][0].matrix, rho)
        assert all(d is earlier for (d, _), (_, earlier) in zip(calls[1:], calls))
        for d, projected in calls:
            want = reference_projection(d.matrix, *support_isometries(d))
            np.testing.assert_allclose(projected.matrix, want, rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                projected.moments,
                decompose_state(want, projected.dim_a, projected.dim_b).moments,
                rtol=0, atol=1e-13)
        last = calls[-1][1]
        assert local_ranks(last) == (last.dim_a, last.dim_b) == dims

    @pytest.mark.parametrize("seed", range(3))
    def test_nested_support(self, seed, monkeypatch):
        self.assert_matches_reference(nested_support(seed), (2, 2), 2, monkeypatch)

    @pytest.mark.parametrize("seed", range(3))
    def test_projected_filtered(self, seed, monkeypatch):
        self.assert_matches_reference(projected_filtered(seed), (2, 3), 1, monkeypatch)

    @pytest.mark.parametrize("pure_side", ["A", "B"])
    def test_trivial_factor(self, pure_side, monkeypatch):
        # a pure marginal beside a rank-deficient one is decided by the
        # product of the marginals, with no projection to a 1 x M or N x 1
        # record
        rng = np.random.default_rng(5)
        pure, u = random_density(3, 1, rng), random_unitary(4, rng)
        mixed = u @ np.pad(random_density(3, 3, rng), (0, 1)) @ u.conj().T
        if pure_side == "A":
            rho, dims, ranks = np.kron(pure, mixed), (3, 4), "1x3"
        else:
            rho, dims, ranks = np.kron(mixed, pure), (4, 3), "3x1"
        verdict, calls = projections(rho, *dims, monkeypatch)
        assert calls == []
        assert verdict.status is Status.SEPARABLE
        assert [c.name for c in verdict.criteria] == [
            "ppt", "support-projection", "decomposition[trivial-factor]"]
        assert verdict.criteria[1].detail == f"reduced {dims[0]}x{dims[1]} -> {ranks}"
        assert verify_decomposition(verdict.decomposition, decompose_state(rho, *dims)).valid

    def test_no_support_is_not_full_rank(self):
        d = random_bipartite(2, 3, np.random.default_rng(21))
        with pytest.raises(NotFullRank, match="marginal A has no eigenvalue above"):
            analyze(d.matrix, 2, 3, tol=1.0)


def parameter_cases():
    """(id, call, bad value, the argument its error names) for every public
    function here that takes a tolerance or a budget."""
    calls = [("normal_form", lambda d, v: normal_form(d, tol=v), "tol"),
             ("normal_form", lambda d, v: normal_form(d, rank_tol=v), "rank_tol"),
             ("local_ranks", lambda d, v: local_ranks(d, v), "tol"),
             ("support_isometries", lambda d, v: support_isometries(d, v), "tol")]
    cases = [(f"{fn}-{arg}={bad}", call, bad, arg)
             for fn, call, arg in calls for bad in (np.nan, -1.0, np.inf)]
    return cases + [(f"normal_form-max_iter={bad}", lambda d, v: normal_form(d, max_iter=v),
                     bad, "max_iter") for bad in (2.5, -1, True)]


PARAMETER_CASES = parameter_cases()


@pytest.mark.parametrize("call, bad, name", [case[1:] for case in PARAMETER_CASES],
                         ids=[case[0] for case in PARAMETER_CASES])
def test_parameters_are_checked(call, bad, name):
    d = random_bipartite(2, 3, np.random.default_rng(21))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParameter, match=f"^{name} must be"):
            call(d, bad)


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

    @staticmethod
    def stall_state(dim, eps):
        rho = eps * np.eye(dim * dim) / dim ** 2
        rho[0, 0] += 1 - eps
        return decompose_state(rho, dim, dim)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_stall_states_re_base_to_the_budget(self, dim, monkeypatch):
        # a stall state's deviation ratio reaches SCALING_RATE within five
        # sweeps, so the budget is spent in many short runs, each on the
        # record before it; that record falls like the product loop's,
        # about 1/sweeps, and ends at the same norm
        d = self.stall_state(dim, 1e-6)
        real, budgets = bipartite._gram_scaling, []

        def run(r, n, m, budget, tol):
            budgets.append(budget)
            return real(r, n, m, budget, tol)

        monkeypatch.setattr(bipartite, "_gram_scaling", run)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = normal_form(d)
        monkeypatch.undo()
        loop = filter_products(d)
        assert result.iterations == loop.iterations == MAX_ITER
        assert budgets[0] == MAX_ITER and len(budgets) > 100
        np.testing.assert_allclose(_marginal_norm(result.state), _marginal_norm(loop.state),
                                   rtol=1e-9)

    @pytest.mark.parametrize("second", ["higher", "indefinite", "none"])
    def test_a_run_that_does_not_lower_the_record_ends_the_loop(self, second, monkeypatch):
        # the loop ends with the lower record when a re-based run returns a
        # record no lower, a pair with no Cholesky factor, or no pair; every
        # sweep begun counts.  Planted here by a second run of three sweeps
        d = self.stall_state(3, 1e-6)
        pair = {"higher": (np.diag([1.0, 4.0, 9.0]), np.eye(3)),
                "indefinite": (-np.eye(3), np.eye(3)), "none": None}[second]
        real, runs = bipartite._gram_scaling, []

        def run(r, n, m, budget, tol):
            runs.append(real(r, n, m, budget, tol))
            return runs[-1] if len(runs) == 1 else (pair, 3)

        monkeypatch.setattr(bipartite, "_gram_scaling", run)
        result = normal_form(d)
        monkeypatch.undo()
        first = runs[0][1]
        assert len(runs) == 2 and result.iterations == first + 3
        # the first run's record, which a budget of its sweeps returns
        alone = normal_form(d, max_iter=first)
        assert alone.iterations == first and not alone.converged
        for got, want in ((result.filter_a, alone.filter_a), (result.filter_b, alone.filter_b),
                          (result.state.a, alone.state.a), (result.state.corr, alone.state.corr)):
            np.testing.assert_array_equal(got, want)

    def test_a_singular_sweep_ends_the_run(self):
        # a singular reduced matrix inverts to NaN, which ends the run at
        # that sweep with the last finite pair, none at the first sweep, and
        # quietly under the error state normal_form runs it in
        rho = np.kron(np.diag([1.0, 0.0]), np.eye(3) / 3.0).astype(complex)
        d = decompose_state(rho, 2, 3)
        with np.errstate(all="ignore"):
            assert bipartite._gram_scaling(d.realigned, 2, 3, 10, NORMAL_TOL) == (None, 1)

    def test_re_based_filters_compose(self, monkeypatch):
        # a record outside tol is re-based: the next run starts from G = I
        # on the filtered state, and its Cholesky factors multiply the
        # filters, which stay upper-triangular.  Planted here by cutting
        # the first run to two sweeps
        rng = np.random.default_rng(7)
        real, budgets = bipartite._gram_scaling, []

        def run(r, n, m, budget, tol):
            budgets.append(budget)
            return real(r, n, m, 2 if len(budgets) == 1 else budget, tol)

        for n, m in ((2, 3), (3, 3), (3, 4), (4, 4)):
            rho = random_density(n * m, n * m, rng)
            d = decompose_state(rho, n, m)
            budgets.clear()
            monkeypatch.setattr(bipartite, "_gram_scaling", run)
            result = normal_form(d)
            monkeypatch.undo()
            assert budgets == [MAX_ITER, MAX_ITER - 2] and result.converged
            for f in (result.filter_a, result.filter_b):
                assert np.array_equal(f, np.triu(f))
            big = np.kron(result.filter_a, result.filter_b)
            filtered = big @ rho @ big.conj().T
            filtered /= np.trace(filtered).real
            np.testing.assert_allclose(filtered, compose_state(result.state), rtol=0, atol=1e-10)
            np.testing.assert_allclose(np.linalg.svd(result.state.corr, compute_uv=False),
                                       np.linalg.svd(normal_form(d).state.corr, compute_uv=False),
                                       rtol=0, atol=1e-12)

    def test_two_product_mixture_converges(self):
        # (1 - 3e-8)(0.4 P_1 + 0.6 P_2) + 3e-8 I/6 over random pure 2 x 3
        # products: the product loop stops short of tol, while a re-based
        # run brings the record within it
        rho = noisy(products((0.4, 0.6), 2, 3, 0), 3e-8)
        d = decompose_state(rho, 2, 3)
        loop = filter_products(d)
        assert not loop.converged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = normal_form(d)
        assert result.converged and result.iterations < 100
        assert _marginal_norm(result.state) < NORMAL_TOL
        big = np.kron(result.filter_a, result.filter_b)
        filtered = big @ rho @ big.conj().T
        filtered /= np.trace(filtered).real
        np.testing.assert_allclose(filtered, compose_state(result.state), rtol=0, atol=1e-10)

    def test_ill_conditioned_products_stop_within_a_few_sweeps(self):
        # marginals with an eigenvalue 1.2e-9 leave the first run's Gram
        # matrices indefinite in rounding; the loop stops at the failed
        # factorisation with finite filters and no warning, where the
        # product loop runs up to its budget on some frames.  The verdict
        # on these states is TestIllConditionedFilters' in test_criteria
        budget_runs = 0
        for frame in range(30):
            d = decompose_state(ill_conditioned_product(frame), 3, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = normal_form(d)
            assert not result.converged and 0 < result.iterations < 10, frame
            assert np.isfinite(result.filter_a).all() and np.isfinite(result.filter_b).all()
            budget_runs += filter_products(d).iterations == MAX_ITER
        assert budget_runs > 0

    def test_gram_scaling_matches_the_product_loop(self):
        # the Gram iteration finishes every one of these states in the
        # product loop's sweeps and at the same normal form up to a local
        # unitary
        rng = np.random.default_rng(13)
        states = [(random_density(n * m, n * m, rng), n, m)
                  for n, m in ((2, 3), (3, 3), (3, 4), (4, 4), (3, 5)) for _ in range(20)]
        # Werner and isotropic states at the benchmark corpus's Ky Fan
        # parameters, filtered as that corpus filters them: U diag(s) V^dag
        # on each side with s uniform in [0.5, 1.5]
        families = []
        for n in range(3, 8):
            phi = 0.5 * (1.0 / n + 1.0 / (n - 1.0))
            p = 0.5 / ((n - 1.0) * (n * n - 1.0))
            for rho in (compose_state(werner(n, phi)), compose_state(isotropic(n, p))):
                filters = []
                for _ in range(2):
                    u, v = random_unitary(n, rng), random_unitary(n, rng)
                    filters.append((u * rng.uniform(0.5, 1.5, size=n)) @ v.conj().T)
                big = np.kron(*filters)
                rho = big @ rho @ big.conj().T
                families.append((rho / np.trace(rho).real, n, n))
        # and N > M, where the rows and columns of the permuted copies of R
        # that a run builds could be mixed up unseen at N <= M
        states += [(random_density(n * m, n * m, rng), n, m)
                   for n, m in ((3, 2), (4, 3), (5, 3)) for _ in range(20)]
        for rho, n, m in states + families:
            d = decompose_state(rho, n, m)
            loop = filter_products(d)
            fast = normal_form(d)
            assert fast.converged and loop.converged
            assert fast.iterations == loop.iterations
            assert np.array_equal(fast.filter_a, np.triu(fast.filter_a))
            np.testing.assert_allclose(np.linalg.svd(fast.state.corr, compute_uv=False),
                                       np.linalg.svd(loop.state.corr, compute_uv=False),
                                       rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_rank_deficient_marginal_is_named(self, side):
        # the message names the marginal, its rank and the rank cutoff
        low, full = np.diag([0.5, 0.5, 0.0]), np.eye(3) / 3.0
        rho = np.kron(low, full) if side == "A" else np.kron(full, low)
        message = f"^marginal {side} has rank 2 < 3 at rank_tol = 1e-09$"
        with pytest.raises(NotFullRank, match=message):
            normal_form(decompose_state(rho.astype(complex), 3, 3))
