import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BOUNDARY_SHIFTS, filtered_product_mixture, horodecki_2x4, horodecki_3x3,
                     ill_conditioned_product, in_frame, lapack_kernels, lowest_pt_eigenvalue,
                     nested_support, noisy, off_ball_product, ppt_boundary, products,
                     projected_filtered, random_density, random_unitary, rank_one_rung_state,
                     tiles_state, weakly_entangled)
from sephorn import bipartite, criteria, linalg
from sephorn.bipartite import (
    BipartiteDecomposed,
    _marginal_norm,
    compose_state,
    decompose_state,
    local_ranks,
    normal_form,
    partial_transpose_matrix,
)
from sephorn.bloch import ball_floor, from_bloch
from sephorn.config import (COMPONENT_PSD, KYFAN_SLACK, NORMAL_TOL, POSITIVITY_TOL, PPT_ROUNDING,
                            PROB_SUM, RESIDUAL)
from sephorn.criteria import (
    Status,
    analyze,
    kyfan_necessary_check,
    ppt_check,
    verify_decomposition,
)
from sephorn.decompose import (
    SeparableDecomposition,
    kyfan_bound_decomposition,
    kyfan_floor,
    kyfan_room,
    line_split,
    transport,
    werner_decompose,
    wootters_decomposition,
)
from sephorn.errors import (BadParameter, BoundExceeded, DimensionMismatch, DimensionTooSmall,
                            NotFullRank, NotPSD, SepHornError)
from sephorn.states import bell, isotropic, p_zero, werner


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

    def test_holds_off_normal_form(self):
        # the bound holds for every separable state, so it applies to a
        # product state with nonzero marginals, and the criterion it returns
        # is the one the verdict logs
        rng = np.random.default_rng(7)
        d = decompose_state(np.kron(random_density(2, 2, rng), random_density(3, 3, rng)), 2, 3)
        assert min(np.linalg.norm(d.a), np.linalg.norm(d.b)) > 0.1
        check = kyfan_necessary_check(d)
        assert check.name == "kyfan-necessary"
        assert check.passed and check.margin < 0.0
        bound = np.sqrt(2.0 / 2.0) * np.sqrt(4.0 / 3.0)
        assert abs(check.margin - (d.corr_svd[1].sum() - bound)) < 1e-12


class TestSufficient:
    def test_small_two_qubit_ball(self):
        corr = np.diag([0.3, 0.3, 0.3])
        d = decompose_state(np.eye(4) / 4, 2, 2)
        d = type(d)(dim_a=2, dim_b=2, a=d.a, b=d.b, corr=corr)
        dec = kyfan_bound_decomposition(d.corr_svd, 2, 2)
        assert verify_decomposition(dec, d).valid

    def test_saturated_werner_boundary(self):
        dec = kyfan_bound_decomposition(werner(2, 1.0).corr_svd, 2, 2)
        assert verify_decomposition(dec, werner(2, 1.0)).valid

    def test_bell_inconclusive(self):
        # three unit singular values against the bound 1
        with pytest.raises(BoundExceeded) as exc:
            kyfan_bound_decomposition(bell().corr_svd, 2, 2)
        assert abs(exc.value.excess - 2.0) < 1e-12

    def test_marginals_shift_the_ball(self):
        # the bound (R_N - |a|)(R_M - |b|) on C = corr - a b^T: a qutrit
        # marginal of norm R_3/2 halves the room, which 0.9 of it still fits
        # and 1.1 of it does not, and the slack halves with it; on or
        # outside the ball only C = 0, the product (a, b), is decomposed
        radius = np.sqrt(1.0 / 3.0)
        a, b = np.zeros(8), np.zeros(8)
        assert kyfan_room(3, 3, a, b) == (radius * radius, KYFAN_SLACK, 1.0, 1.0)
        a[7] = radius / 2.0
        assert kyfan_room(3, 3, a, b)[1:3] == (KYFAN_SLACK / 2.0, 0.5)
        corr = np.zeros((8, 8))
        corr[0, 0] = 1.0
        svd = np.linalg.svd(corr, full_matrices=False)
        for fraction in (0.9, 1.1):
            scaled = (svd[0], fraction * radius * radius / 2.0 * svd[1], svd[2])
            d = BipartiteDecomposed(dim_a=3, dim_b=3, a=a, b=b,
                                    corr=np.outer(a, b) + scaled[1][0] * corr)
            if fraction > 1.0:
                with pytest.raises(BoundExceeded) as exc:
                    kyfan_bound_decomposition(scaled, 3, 3, (a, b))
                assert abs(exc.value.excess - 0.1 * radius * radius / 2.0) < 1e-15
                continue
            dec = kyfan_bound_decomposition(scaled, 3, 3, (a, b))
            assert verify_decomposition(dec, d).valid
            assert (ball_floor(dec.r_vectors, 3) >= 0.0).all()
        a[7] = radius
        with pytest.raises(BoundExceeded):
            kyfan_bound_decomposition(svd, 3, 3, (a, b))
        dec = kyfan_bound_decomposition((svd[0], 0.0 * svd[1], svd[2]), 3, 3, (a, b))
        assert len(dec) == 1 and np.array_equal(dec.r_vectors[0], a)

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1)])
    def test_a_side_of_dimension_one_has_no_room(self, dims):
        # a one-sided state has no inscribed ball on its trivial side
        with pytest.raises(DimensionTooSmall, match=r"dims >= 2, got \d x \d"):
            kyfan_room(*dims, np.zeros(dims[0] ** 2 - 1), np.zeros(dims[1] ** 2 - 1))


class TestPpt:
    def test_bell_fails(self):
        # the criterion the verdict logs: its margin is minus the lowest
        # eigenvalue of the partial transpose, -1/2
        check = ppt_check(bell())
        assert check.name == "ppt" and not check.passed
        assert abs(check.margin - 0.5) < 1e-12
        assert check.detail == "min eigenvalue -5.000e-01"
        assert analyze(bell().matrix, 2, 2).criteria == (check,)

    def test_separable_logs_the_check(self):
        # a PPT 2 x 2 state logs the same criterion first, unchanged
        d = werner(2, 0.5)
        check = ppt_check(d)
        assert check.passed and check.margin == 0.0
        assert analyze(d.matrix, 2, 2).criteria[0] == check

    def test_product_passes(self):
        rng = np.random.default_rng(1)
        rho = np.kron(random_density(2, 2, rng), random_density(3, 3, rng))
        assert ppt_check(decompose_state(rho, 2, 3)).passed

    def test_isotropic_above_threshold_fails(self):
        assert not ppt_check(isotropic(3, 0.3)).passed
        assert ppt_check(isotropic(3, 0.2)).passed


def analyze_2x2(d, tol):
    """``analyze`` on the 2 x 2 path, where ``tol`` is the psd threshold
    and the local-rank cutoff."""
    return analyze(d.matrix, 2, 2, tol=tol)


class TestTwoQubit:
    def test_bell_entangled(self):
        assert analyze(bell().matrix, 2, 2).status is Status.ENTANGLED

    def test_half_werner_separable(self):
        verdict = analyze(werner(2, 0.5).matrix, 2, 2)
        assert verdict.status is Status.SEPARABLE
        assert verify_decomposition(verdict.decomposition, werner(2, 0.5)).valid

    def test_agrees_with_ppt(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = random_two_qubit(rng)
            verdict = analyze(d.matrix, 2, 2)
            want = Status.SEPARABLE if ppt_check(d).passed else Status.ENTANGLED
            assert verdict.status is want

    def test_rejects_wrong_dims(self):
        # a 6 x 6 matrix is no 2 x 2 state: analyze names the mismatch before
        # it chooses the 2 x 2 stages
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionMismatch):
            analyze(random_density(6, 6, rng), 2, 2)

    @pytest.mark.parametrize("state", [p_zero(0.5), bell()], ids=["p_zero", "bell"])
    def test_npt_decided_without_filtering(self, state, monkeypatch):
        def no_filtering(*args, **kwargs):
            raise AssertionError("NPT state was filtered")

        monkeypatch.setattr(criteria, "normal_form", no_filtering)
        verdict = analyze(state.matrix, 2, 2)
        assert verdict.status is Status.ENTANGLED
        assert [c.name for c in verdict.criteria] == ["ppt"]
        assert not verdict.criteria[0].passed
        assert verdict.criteria[0].margin > 0.0

    def test_separable_logs_ppt_concurrence_decomposition(self):
        verdict = analyze(werner(2, 0.5).matrix, 2, 2)
        assert verdict.status is Status.SEPARABLE
        names = [c.name for c in verdict.criteria]
        assert names == ["ppt", "concurrence", "decomposition[wootters]"]
        assert all(c.passed for c in verdict.criteria)

    def test_ppt_decided_without_filtering(self, monkeypatch):
        def no_filtering(*args, **kwargs):
            raise AssertionError("PPT 2 x 2 state was filtered")

        monkeypatch.setattr(criteria, "normal_form", no_filtering)
        verdict = analyze(werner(2, 0.5).matrix, 2, 2)
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

    def test_entangled_inside_ppt_tolerance_fails_ppt(self):
        # p_zero(1e-5) has concurrence 1e-5 and a partial transpose whose
        # lowest eigenvalue, about -2.5e-11, lies inside the positivity
        # tolerance; at 2 x 2 PPT is decided at rounding, so it fails
        verdict = analyze(compose_state(p_zero(1e-5)), 2, 2)
        assert verdict.status is Status.ENTANGLED
        (ppt,) = verdict.criteria
        assert ppt.name == "ppt" and not ppt.passed
        assert abs(ppt.margin - 2.5e-11) < 1e-15 and ppt.margin < POSITIVITY_TOL

    def test_p_zero_at_2x2_and_on_embedded_supports(self):
        # p_zero(1e-5) fails ppt at 2 x 2; on two-dimensional supports of a
        # 3 x 3 input, whose ppt is certified at tol by a Cholesky factor
        # with margin 0, it fails the concurrence instead
        rho = compose_state(p_zero(1e-5))
        low = lowest_pt_eigenvalue(rho, 2, 2)
        assert abs(low + 2.5e-11) < 1e-15
        verdict = analyze(rho, 2, 2)
        assert verdict.status is Status.ENTANGLED
        assert [(c.name, c.passed, c.margin) for c in verdict.criteria] == [("ppt", False, -low)]
        embedded = _embedded(rho, 3, 3, 7)
        assert abs(lowest_pt_eigenvalue(embedded, 3, 3) - low) < 1e-15
        verdict = analyze(embedded, 3, 3)
        assert verdict.status is Status.INCONCLUSIVE
        assert [(c.name, c.passed, c.margin) for c in verdict.criteria[:2]] == [
            ("ppt", True, 0.0), ("support-projection", True, 0.0)]
        (concurrence,) = verdict.criteria[2:]
        assert concurrence.name == "concurrence" and not concurrence.passed
        assert abs(concurrence.margin - 1e-5) < 1e-15

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
        low = lowest_pt_eigenvalue(rho, 2, 2)
        w = np.linalg.eigh(rho)[0]
        floor = PPT_ROUNDING - w[w < 0.0].sum()
        if abs(low) <= floor:
            # within rounding of the PPT boundary an entangled state passes
            # PPT with a concurrence that can exceed the slack (p_zero(p) has
            # concurrence p and lowest eigenvalue about -p^2/4), so only
            # ENTANGLED is ruled out there
            assert verdict.status is not Status.ENTANGLED, verdict.criteria
            return
        # the PPT decision, so no input, full-rank or not, is INCONCLUSIVE
        want = Status.SEPARABLE if low > 0.0 else Status.ENTANGLED
        assert verdict.status is want, verdict.criteria


class TestTwoQubitBoundary:
    """At 2 x 2 PPT is decided at rounding, so a state off the PPT boundary
    by 1e-10 in noise weight is decided on the right side of it, and no
    state built separable is ENTANGLED."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(BOUNDARY_SHIFTS),
           st.sampled_from(["plain", "rotated"]))
    def test_boundary_states_are_decided(self, seed, rank, shift, frame):
        rng = np.random.default_rng(seed)
        rho, weight = ppt_boundary(rank, rng)
        rho = in_frame(noisy(rho, weight + shift), 2, 2, frame, rng)
        verdict = analyze(rho, 2, 2)
        if shift < 0.0:
            assert verdict.status is Status.ENTANGLED
            assert [(c.name, c.passed) for c in verdict.criteria] == [("ppt", False)]
        else:
            assert verdict.status is Status.SEPARABLE, verdict.criteria
            assert verify_decomposition(verdict.decomposition, decompose_state(rho, 2, 2)).valid

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e3, 1e6]))
    def test_filtered_product_mixtures_are_not_entangled(self, seed, condition):
        verdict = analyze(filtered_product_mixture(condition, seed), 2, 2)
        assert verdict.status is not Status.ENTANGLED, verdict.criteria

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["plain", "rotated"]))
    def test_perturbed_separable_boundary_state_is_not_entangled(self, seed, frame):
        # two pure products, on the PPT boundary, plus 5e-10 (|u><u| - |v><v|)
        # with u a product vector and v a null vector of the sum: rho keeps
        # its trace and gets the eigenvalue -5e-10, while its positive part
        # stays separable
        rng = np.random.default_rng(seed)
        u = np.kron(random_unitary(2, rng)[:, 0], random_unitary(2, rng)[:, 0])
        plus = products(rng.dirichlet([1.0, 1.0]), 2, 2, rng) + 5e-10 * np.outer(u, u.conj())
        v = np.linalg.eigh(plus)[1][:, 0]
        rho = in_frame(plus - 5e-10 * np.outer(v, v.conj()), 2, 2, frame, rng)
        assert abs(np.linalg.eigvalsh(rho)[0] + 5e-10) < 1e-15
        verdict = analyze(rho, 2, 2)
        assert verdict.status is not Status.ENTANGLED, verdict.criteria

    @pytest.mark.parametrize("tol", [POSITIVITY_TOL, 1e-6])
    def test_product_state_off_hermitian_in_one_triangle_is_not_entangled(self, tol):
        # |1><1| (x) I/2 with rho[0, 1] = 5e-10 alone: eigh of rho reads its
        # lower triangle, diag(0, 0, .5, .5), while the partial transpose
        # carries rho[0, 1] into its lower triangle; validation accepts the
        # deviation and takes the Hermitian part, which both eigensolves see
        rho = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
        rho[0, 1] = 5e-10
        verdict = analyze(rho, 2, 2, tol=tol)
        assert verdict.status is Status.SEPARABLE, verdict.criteria
        assert ppt_check(decompose_state(rho, 2, 2, tol=tol), tol=tol).passed


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


@st.composite
def family_states(draw):
    """A Werner or isotropic state at N = 2..7, separable and outside the
    constructive Ky Fan interval by a tenth of the gap to its end (at
    N = 2 anywhere in the separable range), in a random frame."""
    dim = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["werner", "isotropic"]))
    share = draw(st.floats(0.0, 1.0))
    above = draw(st.booleans())
    if kind == "werner":
        low, high = (dim - 2.0) / (dim * (dim - 1.0)), 1.0 / (dim - 1.0)
        ends = (0.0, 1.0) if dim == 2 else (high + 0.1 * (1.0 - high), 1.0) if above else (
            0.0, 0.9 * low)
        state = werner(dim, ends[0] + share * (ends[1] - ends[0]))
    else:
        edge = 1.0 / ((dim - 1.0) * (dim * dim - 1.0))
        lowest, highest = -1.0 / (dim * dim - 1.0), 1.0 / (dim + 1.0)
        ends = (lowest, highest) if dim == 2 else (1.1 * edge, highest) if above else (
            lowest, -1.1 * edge)
        state = isotropic(dim, ends[0] + share * (ends[1] - ends[0]))
    frame = draw(st.sampled_from(["rotated", "filtered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return dim, in_frame(compose_state(state), dim, dim, frame, rng)


class TestFamilyWithoutSingularVectors:
    """The family stage reads the singular values alone and rotates by the
    polar factor of the filtered correlation, by Newton-Schulz steps."""

    @settings(max_examples=60, deadline=None)
    @given(family_states())
    def test_families_stay_separable_by_the_family_stage(self, case):
        dim, rho = case
        verdict = analyze(rho, dim, dim)
        assert verdict.status is Status.SEPARABLE, verdict.criteria
        # a 2 x 2 state takes the exact two-qubit decision instead
        expected = "decomposition[wootters]" if dim == 2 else "decomposition[family]"
        assert verdict.criteria[-1].name == expected, verdict.criteria
        assert verify_decomposition(verdict.decomposition, decompose_state(rho, dim, dim)).valid

    @staticmethod
    def family(d):
        return criteria._Call(d, POSITIVITY_TOL).run((criteria._family,))

    @pytest.mark.parametrize("dim", [3, 5])
    def test_zero_correlation(self, dim):
        # tau_1 = 0: the rotation is I, and I/d is the Werner state at 1/N
        k = dim * dim - 1
        d = BipartiteDecomposed(dim_a=dim, dim_b=dim, a=np.zeros(k), b=np.zeros(k),
                                corr=np.zeros((k, k)))
        assert d.corr_singular_values[0] == 0.0
        np.testing.assert_array_equal(criteria._polar(d.corr, d.corr_singular_values),
                                      np.eye(k))
        verdict = self.family(d)
        assert verdict.status is Status.SEPARABLE
        assert [c.name for c in verdict.criteria] == ["decomposition[family]"]

    @pytest.mark.parametrize("frame", ["rotated", "filtered"])
    def test_near_maximally_mixed(self, frame):
        # Werner correlation about 1e-7 in a random frame, filtered to normal
        # form: the spread of its singular values is a large share of them
        dim = 3
        phi = 1.0 / dim + 1e-7 * dim * (dim * dim - 1.0) / (2.0 * dim)
        rho = in_frame(compose_state(werner(dim, phi)), dim, dim, frame,
                       np.random.default_rng(17))
        nf = normal_form(decompose_state(rho, dim, dim))
        taus = nf.state.corr_singular_values
        assert 0.5e-7 < taus.mean() < 2e-7
        verdict = self.family(nf.state)
        assert verdict.status is Status.SEPARABLE, verdict.criteria

    def test_rank_deficient_within_the_spread(self):
        # tau_1 = 5e-9 and every other singular value 0 pass the spread
        # test; the steps stay finite, with no warning, and verification
        # decides
        corr = np.zeros((8, 8))
        corr[0, 0] = 5e-9
        d = BipartiteDecomposed(dim_a=3, dim_b=3, a=np.zeros(8), b=np.zeros(8), corr=corr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = self.family(d)
        assert verdict.criteria[-1].name == "decomposition[family]"
        rotation = criteria._polar(corr, d.corr_singular_values)
        assert np.isfinite(rotation).all()

    @pytest.mark.parametrize("spread", [0.0, 1e-12, 1e-9, 1e-3])
    def test_polar_factor(self, spread):
        # C = U diag(tau) V^T: the steps reach U V^T, at once for a flat
        # spectrum, within the gap's fourth power after two steps
        rng = np.random.default_rng(5)
        u, v = (np.linalg.qr(rng.normal(size=(8, 8)))[0] for _ in range(2))
        taus = 0.2 * (1.0 - spread * np.linspace(0.0, 1.0, 8))
        rotation = criteria._polar(u @ np.diag(taus) @ v.T, taus)
        error = np.abs(rotation - u @ v.T).max()
        assert error <= 1e-14 + 4.0 * spread ** 4


def kyfan_family_cases():
    """Werner and isotropic states inside the constructive Ky Fan interval,
    for N = 3..7."""
    for dim in range(3, 8):
        phi = 0.5 * (1.0 / dim + 1.0 / (dim - 1.0))
        p = 0.5 / ((dim - 1.0) * (dim * dim - 1.0))
        yield pytest.param(dim, werner(dim, phi), id=f"{dim}-werner")
        yield pytest.param(dim, isotropic(dim, p), id=f"{dim}-isotropic")


class TestNormalFormIsNotTransported:
    """A state decided before filtering, or whose marginals are already
    maximally mixed, runs no filtering sweep, so its decomposition is
    returned as built, not transported through identity filters; a filtered
    state's is transported once."""

    @staticmethod
    def transport_calls(monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return transport(*args)
        monkeypatch.setattr(criteria, "transport", spy)
        return calls

    @staticmethod
    def separable(verdict, source):
        names = [c.name for c in verdict.criteria]
        assert verdict.status is Status.SEPARABLE, verdict.criteria
        assert names[-1] == f"decomposition[{source}]"
        assert "normal-form" not in names

    @pytest.mark.parametrize("dim, state", kyfan_family_cases())
    def test_kyfan_decomposition_returned_as_built(self, dim, state, monkeypatch):
        calls = self.transport_calls(monkeypatch)
        kernels = TestSpectralCounts.record(monkeypatch)
        rho = in_frame(compose_state(state), dim, dim, "rotated", np.random.default_rng(7))
        verdict = analyze(rho, dim, dim)
        monkeypatch.undo()
        self.separable(verdict, "kyfan-sufficient")
        assert calls == []
        # decided before filtering, from the columns or rows of the
        # correlation less the product of the marginals, which are
        # orthogonal for a family state in any frame: no SVD is taken
        assert [name for name, _ in kernels if name.startswith("svd")] == []
        d = decompose_state(rho, dim, dim)
        built = kyfan_bound_decomposition(line_split(d.corr - np.outer(d.a, d.b)), dim, dim,
                                          (d.a, d.b))
        for got, want in ((verdict.decomposition.probs, built.probs),
                          (verdict.decomposition.r_vectors, built.r_vectors),
                          (verdict.decomposition.s_vectors, built.s_vectors)):
            np.testing.assert_array_equal(got, want)

    def test_rotated_werner_simplex_is_not_transported(self, monkeypatch):
        calls = self.transport_calls(monkeypatch)
        rho = in_frame(compose_state(werner(3, 1.0)), 3, 3, "rotated",
                       np.random.default_rng(7))
        self.separable(analyze(rho, 3, 3), "family")
        assert calls == []

    def test_filtered_werner_is_pulled_back(self, monkeypatch):
        calls = self.transport_calls(monkeypatch)
        rho = in_frame(compose_state(werner(3, 1.0)), 3, 3, "filtered",
                       np.random.default_rng(7))
        verdict = analyze(rho, 3, 3)
        self.separable(verdict, "family")
        assert len(calls) == 1
        assert verify_decomposition(verdict.decomposition, decompose_state(rho, 3, 3)).valid


def line_split_state(n, m, seed):
    """Bloch data (a, b, C) at n x m: marginals at up to half the radius of
    the inscribed ball, and a Gaussian C with a zero column and a zero
    row, scaled so that its column or row weights take 0.3 to 0.95 of the
    Ky Fan room about the marginals."""
    rng = np.random.default_rng(seed)
    a, b = [v * rng.uniform(0.0, 0.5) * np.sqrt(2.0 / (k * (k - 1.0))) / np.linalg.norm(v)
            for v, k in ((rng.normal(size=n * n - 1), n), (rng.normal(size=m * m - 1), m))]
    c = rng.normal(size=(n * n - 1, m * m - 1))
    c[:, rng.integers(m * m - 1)] = 0.0
    c[rng.integers(n * n - 1)] = 0.0
    weights = min(np.linalg.norm(c, axis=0).sum(), np.linalg.norm(c, axis=1).sum())
    c *= rng.uniform(0.3, 0.95) * kyfan_room(n, m, a, b)[0] / weights
    return a, b, c


def rank_one_state(n, m, frame, seed):
    """0.95 of the Ky Fan room about marginals at 0.3 of the inscribed
    radius ("plain"), or about none and then under random local filters
    ("filtered"), taken by a rank-one C = tau u v^T of vectors of equal
    entries up to sign: ||C||_KF = tau fits, while every column or row
    split weighs tau times the 1-norm of u or v, which misses."""
    rng = np.random.default_rng(seed)
    ka, kb = n * n - 1, m * m - 1
    u, v = rng.choice([-1.0, 1.0], ka) / np.sqrt(ka), rng.choice([-1.0, 1.0], kb) / np.sqrt(kb)
    share = 0.3 if frame == "plain" else 0.0
    a, b = [share * np.sqrt(2.0 / (k * (k - 1.0))) * x / np.linalg.norm(x)
            for x, k in ((rng.normal(size=ka), n), (rng.normal(size=kb), m))]
    c = 0.95 * kyfan_room(n, m, a, b)[0] * np.outer(u, v)
    assert line_split(c)[1].sum() > kyfan_room(n, m, a, b)[0]
    rho = compose_state(BipartiteDecomposed(n, m, a, b, c + np.outer(a, b)))
    return rho if frame == "plain" else in_frame(rho, n, m, "filtered", rng)


class TestLineSplit:
    """The Ky Fan pairs are built from the columns or rows of C whenever
    their weights fit the room, with no factorisation at all; the SVD is
    taken only when they miss while ||C||_KF fits."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (3, 4), (4, 3), (5, 5)])
    def test_split_builds_verified_pairs_inside_the_ball(self, n, m, seed, monkeypatch):
        a, b, c = line_split_state(n, m, seed)
        d = BipartiteDecomposed(n, m, a, b, c + np.outer(a, b))
        calls = TestSpectralCounts.record(monkeypatch)
        dec = kyfan_bound_decomposition(line_split(c), n, m, (a, b))
        report = verify_decomposition(dec, d)
        assert report.valid and report.max_residual <= RESIDUAL, report
        # every component lies inside the inscribed ball, so verification
        # factorises nothing
        assert (ball_floor(dec.r_vectors, n) > 0.0).all()
        assert (ball_floor(dec.s_vectors, m) > 0.0).all()
        assert calls == []
        # one pair per nonzero line of the side of smaller weight: the zero
        # line makes none
        cols, rows = np.linalg.norm(c, axis=0), np.linalg.norm(c, axis=1)
        lines = cols if cols.sum() <= rows.sum() else rows
        assert len(dec) == 2 * np.count_nonzero(lines)
        assert np.count_nonzero(lines) < lines.size
        # analyze decides the state before filtering, with no SVD
        verdict = analyze(compose_state(d), n, m)
        monkeypatch.undo()
        assert verdict.status is Status.SEPARABLE
        assert [x.name for x in verdict.criteria] == ["ppt", "decomposition[kyfan-sufficient]"]
        assert [name for name, _ in calls if name.startswith("svd")] == []

    @pytest.mark.parametrize("frame, stages, svds", [
        ("plain", ["ppt"], ["svd"]),
        ("filtered", ["ppt", "kyfan-necessary"], ["svdvals", "svd"])])
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 3), (3, 4)])
    def test_a_split_that_misses_takes_the_svd(self, n, m, frame, stages, svds, monkeypatch):
        rho = rank_one_state(n, m, frame, 5)
        calls = TestSpectralCounts.record(monkeypatch)
        verdict = analyze(rho, n, m)
        monkeypatch.undo()
        assert verdict.status is Status.SEPARABLE
        assert [x.name for x in verdict.criteria] == [*stages, "decomposition[kyfan-sufficient]"]
        assert [name for name, _ in calls if name.startswith("svd")] == svds
        # rank one: one pair
        assert len(verdict.decomposition) == 2


def bound_entangled_cases():
    """PPT entangled states: the tiles state with 0-20% white noise and P.
    Horodecki's 3 x 3 and 2 x 4 families.  The flag marks the states whose
    filtered correlation violates the Ky Fan necessary bound."""
    for noise, violated in ((0.0, True), (0.05, True), (0.1, True), (0.2, False)):
        rho = (1.0 - noise) * tiles_state() + noise * np.eye(9) / 9.0
        yield pytest.param(rho, 3, 3, violated, id=f"tiles-noise-{noise}")
    for a in (0.1, 0.3, 0.5, 0.9):
        yield pytest.param(horodecki_3x3(a), 3, 3, True, id=f"horodecki-3x3-{a}")
    for b in (0.1, 0.5, 0.9):
        yield pytest.param(horodecki_2x4(b), 2, 4, False, id=f"horodecki-2x4-{b}")


class TestBoundEntangledGuard:
    """PPT entangled states are never SEPARABLE, in any frame, and those
    the filtered Ky Fan necessary bound detects are ENTANGLED by it."""

    @pytest.mark.parametrize("frame", ["plain", "rotated"])
    @pytest.mark.parametrize("rho, n, m, violated", bound_entangled_cases())
    def test_never_separable(self, rho, n, m, violated, frame):
        rho = in_frame(rho, n, m, frame, np.random.default_rng(6))
        assert lowest_pt_eigenvalue(rho, n, m) > -1e-12
        verdict = analyze(rho, n, m)
        assert verdict.status is not Status.SEPARABLE, verdict.criteria
        if violated:
            assert verdict.status is Status.ENTANGLED, verdict.criteria
            bound = verdict.criteria[-1]
            assert bound.name == "kyfan-necessary" and not bound.passed
            assert bound.margin > 1e-3


@st.composite
def noisy_states(draw):
    """(1 - w) R + w I/d for a random state R of any rank and w in [0.05, 1],
    drawn from [0.9, 1] half the time, where most states in a unitary frame
    fit the shifted bound, at 2x3 to 4x4, under random local unitaries or
    random local filters."""
    n, m = draw(st.sampled_from([(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]))
    size = n * m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = draw(st.one_of(st.floats(0.05, 1.0), st.floats(0.9, 1.0)))
    rho = ((1.0 - weight) * random_density(size, draw(st.integers(1, size)), rng)
           + weight * np.eye(size) / size)
    return in_frame(rho, n, m, draw(st.sampled_from(["rotated", "filtered"])), rng), (n, m)


@st.composite
def ball_states(draw):
    """States I/d + h with ||h||_F a fraction of the Gurvits-Barnum radius
    1/sqrt(d(d - 1)), d = NM, the fraction drawn from [0.9, 1] or exactly 1
    most of the time, at 2x3 to 4x4 under random local unitaries, which
    keep the norm.  h lies along a random state of random rank less I/d,
    along a random traceless Hermitian matrix, or along I/d less a pure
    product state: at the radius that direction reaches
    (I - |ab><ab|)/(d - 1), on the ball's boundary, whose partial
    transpose is singular too."""
    n, m = draw(st.sampled_from([(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]))
    size = n * m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fraction = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.9, 1.0), st.just(1.0)))
    direction = draw(st.sampled_from(["state", "hermitian", "product"]))
    if direction == "state":
        h = random_density(size, draw(st.integers(1, size)), rng) - np.eye(size) / size
    elif direction == "product":
        h = np.eye(size) / size - np.kron(random_density(n, 1, rng), random_density(m, 1, rng))
    else:
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        h = g + g.conj().T
        h -= np.trace(h).real / size * np.eye(size)
    rho = np.eye(size) / size + fraction / np.sqrt(size * (size - 1.0)) * h / np.linalg.norm(h)
    return in_frame(rho, n, m, "rotated", rng), (n, m)


class TestSeparableBall:
    """Every state within 1/sqrt(d(d - 1)) of I/d in Frobenius norm is
    separable (Gurvits and Barnum, quant-ph/0204159), so no verdict there
    is ENTANGLED, whichever path reaches it."""

    @settings(max_examples=100, deadline=None)
    @given(ball_states())
    def test_never_entangled(self, case):
        rho, (n, m) = case
        size = n * m
        assert np.linalg.norm(rho - np.eye(size) / size) <= (1.0 + 1e-12) / np.sqrt(
            size * (size - 1.0))
        verdict = analyze(rho, n, m)
        assert verdict.status is not Status.ENTANGLED, verdict.criteria
        if verdict.status is Status.SEPARABLE:
            assert verify_decomposition(verdict.decomposition, decompose_state(rho, n, m)).valid


class TestUnfilteredKyFan:
    """The constructive Ky Fan bound shifted by the unfiltered marginals
    decides only states that the battery without it also finds separable,
    and it decides them with components inside the inscribed ball; a
    product of its marginals it decides first, by that one component."""

    WITHOUT = tuple(s for s in criteria._FULL_RANK if s is not criteria._kyfan_unfiltered)

    @staticmethod
    def stage(d):
        return criteria._Call(d, POSITIVITY_TOL).run((criteria._kyfan_unfiltered,))

    @settings(max_examples=150, deadline=None)
    @given(noisy_states())
    def test_decided_states_are_separable_without_it(self, case):
        rho, (n, m) = case
        d = decompose_state(rho, n, m)
        verdict = self.stage(d)
        if verdict.status is not Status.SEPARABLE:
            # a state it does not decide goes on with nothing logged
            assert verdict.criteria == ()
            return
        report = verify_decomposition(verdict.decomposition, d)
        assert report.valid and report.max_residual <= 1e-14, report
        [decided] = verdict.criteria
        if decided.name == "decomposition[trivial-factor]":
            # I/d in a filtered frame is a product, in the ball or not
            dec = verdict.decomposition
            assert len(dec) == 1
            np.testing.assert_array_equal(dec.r_vectors[0], d.a)
            np.testing.assert_array_equal(dec.s_vectors[0], d.b)
            return
        assert decided.name == "decomposition[kyfan-sufficient]"
        for vecs, dim in ((verdict.decomposition.r_vectors, n),
                          (verdict.decomposition.s_vectors, m)):
            assert (ball_floor(vecs, dim) >= 0.0).all()
        without = criteria._Call(d, POSITIVITY_TOL).run(self.WITHOUT)
        assert without.status is Status.SEPARABLE, without.criteria

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["gaussian", "rank-one", "flat"]), st.floats(0.0, 0.9),
           st.floats(0.0, 0.9))
    def test_never_refuses_a_correlation_that_fits(self, n, m, seed, kind, reach_a, reach_b):
        # C scaled to ||C||_KF = bound + slack (1 - 1e-3), just inside the
        # room, about marginals reaching a share of the inscribed radius:
        # neither norm test refuses it, and the stage builds and verifies
        rng = np.random.default_rng(seed)
        ka, kb = n * n - 1, m * m - 1
        a, b = rng.normal(size=ka), rng.normal(size=kb)
        a *= reach_a * np.sqrt(2.0 / (n * (n - 1))) / np.linalg.norm(a)
        b *= reach_b * np.sqrt(2.0 / (m * (m - 1))) / np.linalg.norm(b)
        if kind == "rank-one":
            c = np.outer(rng.normal(size=ka), rng.normal(size=kb))
        elif kind == "flat":
            q = np.linalg.qr(rng.normal(size=(max(ka, kb), min(ka, kb))))[0]
            c = q if ka >= kb else q.T
        else:
            c = rng.normal(size=(ka, kb))
        bound, slack, _, _ = kyfan_room(n, m, a, b)
        c *= (bound + slack * (1.0 - 1e-3)) / np.linalg.svd(c, compute_uv=False).sum()
        d = BipartiteDecomposed(dim_a=n, dim_b=m, a=a, b=b, corr=np.outer(a, b) + c)
        verdict = self.stage(d)
        assert verdict.status is Status.SEPARABLE, verdict.criteria
        assert [c.name for c in verdict.criteria] == ["decomposition[kyfan-sufficient]"]

    def test_marginal_on_the_inscribed_sphere(self):
        # diag(2/3, 1/6, 1/6) lies on the inscribed sphere, where round-off
        # leaves a room of a few ulps; the slack shrinks with it, so 1e-11
        # of correlation is not stretched far outside the state space and
        # no failed verification is logged ahead of the filter
        rng = np.random.default_rng(7)
        marginal = np.diag([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])
        for _ in range(40):
            u = random_unitary(3, rng)
            noise = []
            for _side in range(2):
                g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                g = g + g.conj().T
                noise.append(g - np.trace(g) / 3.0 * np.eye(3))
            rho = (np.kron(u @ marginal @ u.conj().T, np.eye(3) / 3.0)
                   + 1e-11 * np.kron(*noise))
            d = decompose_state(rho, 3, 3)
            verdict = self.stage(d)
            if verdict.status is not Status.SEPARABLE:
                assert verdict.criteria == ()
            verdict = analyze(rho, 3, 3)
            assert verdict.status is Status.SEPARABLE
            assert all(c.passed for c in verdict.criteria), verdict.criteria

    @pytest.mark.parametrize("frame", ["plain", "rotated", "filtered"])
    @pytest.mark.parametrize("rho, n, m, violated", bound_entangled_cases())
    def test_bound_entangled_states_are_not_decided(self, rho, n, m, violated, frame):
        rho = in_frame(rho, n, m, frame, np.random.default_rng(6))
        verdict = self.stage(decompose_state(rho, n, m))
        assert verdict.status is Status.INCONCLUSIVE and verdict.criteria == ()


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
        if low < -2.0 * POSITIVITY_TOL:
            assert verdict.status is Status.ENTANGLED, verdict.criteria
        if (n, m) == (2, 3) and low > 2.0 * POSITIVITY_TOL:
            # PPT is also sufficient at 2 x 3 (Horodecki, quant-ph/9605038)
            assert verdict.status is not Status.ENTANGLED, verdict.criteria
        if verdict.status is Status.ENTANGLED:
            assert any(not c.passed for c in verdict.criteria)
        if verdict.status is Status.SEPARABLE:
            d = decompose_state(rho, n, m)
            assert verify_decomposition(verdict.decomposition, d).valid


# |lambda_min + tol| below which the Cholesky certificate and eigvalsh may
# round apart: both err by about N M eps times the largest eigenvalue
CERTIFICATE_ROUNDING = 1e-13


@st.composite
def ppt_boundary_states(draw):
    """A random pure state on 2x3 to 4x4 or 5x5, mixed with white noise at
    the weight where the lowest eigenvalue of its partial transpose is
    -``POSITIVITY_TOL``, moved from there by +-1e-12 to +-1e-6 in noise
    weight, in a random local frame.  White noise adds weight/(NM) to every
    eigenvalue of the partial transpose, so that weight is the root of a
    linear function and needs no bisection."""
    n, m = draw(st.sampled_from([(2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (5, 5)]))
    size = n * m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pure = random_density(size, 1, rng)
    low = lowest_pt_eigenvalue(pure, n, m)
    weight = (-POSITIVITY_TOL - low) / (1.0 / size - low)
    weight += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -6.0))
    rho = (1.0 - weight) * pure + weight * np.eye(size) / size
    u = np.kron(random_unitary(n, rng), random_unitary(m, rng))
    return u @ rho @ u.conj().T, n, m


class TestPptCertificate:
    @settings(max_examples=200, deadline=None)
    @given(ppt_boundary_states())
    def test_certificate_is_the_eigenvalue_threshold(self, case):
        # ppt passes exactly when the lowest eigenvalue of the partial
        # transpose is at least -tol, outside the rounding band around -tol;
        # a pass is certified with margin 0 or, where the factorisation
        # fails inside that band, read from eigvalsh, and every failure
        # carries minus that eigenvalue and names it
        rho, n, m = case
        low = float(np.linalg.eigvalsh(partial_transpose_matrix(rho, n, m))[0])
        ppt = ppt_check(decompose_state(rho, n, m))
        if abs(low + POSITIVITY_TOL) > CERTIFICATE_ROUNDING:
            assert ppt.passed is (low >= -POSITIVITY_TOL), (low, ppt)
        eigenvalue = (max(0.0, -low), f"min eigenvalue {low:.3e}")
        if not ppt.passed:
            assert (ppt.margin, ppt.detail) == eigenvalue
        elif ppt.detail.startswith("Cholesky"):
            assert (ppt.margin, ppt.detail) == (
                0.0, f"Cholesky factor of the partial transpose + {POSITIVITY_TOL:.1e} I")
        else:
            assert (ppt.margin, ppt.detail) == eigenvalue
            assert abs(low + POSITIVITY_TOL) <= CERTIFICATE_ROUNDING


class TestSpectralCounts:
    """Each spectral quantity is computed once per verdict."""

    # each LAPACK kernel of sephorn.linalg, by the name its call is recorded under
    KERNELS = {"svd": "svd", "svdvals": "svdvals", "eigh": "eigh", "eigvalsh": "eigvalsh",
               "cholesky": "cholesky", "bare_cholesky_upper": "cholesky", "qr_q": "qr",
               "inv": "inv", "bare_inv": "inv", "solve": "solve"}

    @classmethod
    def record(cls, monkeypatch):
        """Spy on every factorisation, through the kernels of
        :mod:`sephorn.linalg`, each call recorded under its ``KERNELS`` name."""
        calls = []
        for kernel, name in cls.KERNELS.items():
            real = getattr(linalg, kernel)

            def spy(a, *args, _name=name, _real=real):
                calls.append((_name, np.array(a)))
                return _real(a, *args)

            monkeypatch.setattr(linalg, kernel, spy)
        return calls

    def test_spy_sees_every_kernel(self):
        assert lapack_kernels() == set(self.KERNELS)

    @staticmethod
    def qutrit_state(frame):
        """0.05 of a random qutrit state plus 0.95 I/9 under random local
        unitaries and, for "filtered", under the local filters I + 0.15 G
        too, G Ginibre: its marginals stay inside the inscribed ball, but
        its correlation less their product no longer fits the Ky Fan bound
        shifted by them."""
        rng = np.random.default_rng(41)
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
        rho = u @ (0.05 * random_density(9, 9, rng) + 0.95 * np.eye(9) / 9.0) @ u.conj().T
        if frame == "filtered":
            f = np.kron(*[np.eye(3) + 0.15 * (rng.normal(size=(3, 3))
                                              + 1j * rng.normal(size=(3, 3))) for _ in range(2)])
            rho = f @ rho @ f.conj().T
            rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
        return rho

    @staticmethod
    def check_full_matrices(calls, rho):
        # the positivity of rho and of its partial transpose are each
        # certified by one Cholesky factorisation of the matrix + psd I, and
        # no 9 x 9 matrix is eigensolved
        rho_pt = rho.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        full = [(name, a) for name, a in calls if a.shape == (9, 9)]
        assert [name for name, _ in full] == ["cholesky", "cholesky"]
        for (_, a), matrix in zip(full, (rho, rho_pt)):
            np.testing.assert_allclose(a - matrix, POSITIVITY_TOL * np.eye(9), rtol=0, atol=1e-15)

    def test_separable_qutrit_verdict(self, monkeypatch):
        rho = self.qutrit_state("rotated")
        calls = self.record(monkeypatch)
        verdict = analyze(rho, 3, 3)
        monkeypatch.undo()
        assert verdict.status is Status.SEPARABLE
        assert [c.name for c in verdict.criteria] == ["ppt", "decomposition[kyfan-sufficient]"]
        d = decompose_state(rho, 3, 3)
        # decided before filtering, from the columns or rows of the
        # correlation less the product of the marginals, whose weights fit
        # the bound: no SVD, and no filter inverted
        c = d.corr - np.outer(d.a, d.b)
        assert line_split(c)[1].sum() <= kyfan_room(3, 3, d.a, d.b)[0]
        assert [name for name, _ in calls if name.startswith("svd")] == []
        assert [name for name, _ in calls if name == "inv"] == []
        self.check_full_matrices(calls, rho)
        # the components of the decomposition lie inside the inscribed ball,
        # so their Bloch norms certify them: no matrix is factorised
        dec = verdict.decomposition
        for vecs in (dec.r_vectors, dec.s_vectors):
            assert (ball_floor(vecs, 3) >= -COMPONENT_PSD).all()
        assert [name for name, a in calls if a.ndim == 3] == []
        # both marginals lie inside the ball, so their ranks need no
        # eigensolve, and no 3 x 3 matrix is factorised at all
        assert ball_floor(d.a, 3) > POSITIVITY_TOL and ball_floor(d.b, 3) > POSITIVITY_TOL
        assert [name for name, a in calls if a.shape == (3, 3)] == []

    def test_separable_filtered_qutrit_verdict(self, monkeypatch):
        rho = self.qutrit_state("filtered")
        calls = self.record(monkeypatch)
        verdict = analyze(rho, 3, 3)
        monkeypatch.undo()
        assert verdict.status is Status.SEPARABLE
        assert [c.name for c in verdict.criteria] == [
            "ppt", "kyfan-necessary", "decomposition[kyfan-sufficient]"]
        d = decompose_state(rho, 3, 3)
        nf = normal_form(d)
        tilde = nf.state
        # one SVD without vectors, of the filtered correlation: the
        # unfiltered record is refused by the Frobenius norm alone, the
        # necessary bound, the family spread and the constructive bound's
        # test read the singular values alone, and the pairs are built from
        # the columns or rows of the filtered correlation, whose weights fit
        svds = [(name, a) for name, a in calls if name.startswith("svd")]
        assert [name for name, _ in svds] == ["svdvals"]
        np.testing.assert_allclose(svds[0][1], tilde.corr, atol=1e-12)
        assert line_split(tilde.corr)[1].sum() <= kyfan_room(3, 3, np.zeros(8), np.zeros(8))[0]
        self.check_full_matrices(calls, rho)
        # some pulled-back components leave the inscribed ball; their stacks
        # are certified by Cholesky, and none is eigensolved
        assert {name for name, a in calls if a.ndim == 3} == {"cholesky"}
        # both marginals lie inside the ball, so their ranks need no
        # eigensolve, and filtering this well-conditioned state eigensolves
        # nothing: each half-sweep inverts one 3 x 3 matrix, the filters are
        # the upper-triangular Cholesky factors of the two Gram matrices,
        # and the pull-back inverts the two filters
        assert ball_floor(d.a, 3) > POSITIVITY_TOL and ball_floor(d.b, 3) > POSITIVITY_TOL
        assert nf.iterations > 0
        small = [(name, a) for name, a in calls if a.shape == (3, 3)]
        assert [name for name, _ in small] == (["inv"] * (2 * nf.iterations)
                                                 + ["cholesky"] * 2 + ["inv"] * 2)
        for (_, gram), f in zip(small[-4:-2], (nf.filter_a, nf.filter_b)):
            np.testing.assert_allclose(f.conj().T @ f, gram, rtol=0, atol=1e-12)
            assert np.array_equal(f, np.triu(f))
        for (_, a), f in zip(small[-2:], (nf.filter_a, nf.filter_b)):
            np.testing.assert_array_equal(a, f)
        # the A marginal is inverted by the first half-sweep and never
        # eigensolved; the B marginal is not factorised at all
        r4 = rho.reshape(3, 3, 3, 3)
        for marginal, expected in ((np.einsum("ijkj->ik", r4), ["inv"]),
                                   (np.einsum("ijil->jl", r4), [])):
            same = [name for name, a in calls
                    if a.shape == (3, 3) and np.allclose(a / np.trace(a), marginal)]
            assert same == expected
        # the memoized results are read-only and computed once
        memo = [d.matrix, *d.marginal_eigh_a, *d.marginal_eigh_b, *d.spectrum,
                *tilde.corr_svd]
        assert not any(a.flags.writeable for a in memo)
        assert d.corr_svd is d.corr_svd and tilde.marginal_eigh_a is tilde.marginal_eigh_a
        with pytest.raises(ValueError):
            tilde.corr_svd[1][0] = 0.0

    def test_inconclusive_qutrit_takes_one_svd_without_vectors(self, monkeypatch):
        # shaped like the benchmark's mixed_inc cases: 0.3 of a random
        # qutrit state plus 0.7 I/9 in a random local frame, PPT but beyond
        # the constructive bound both unfiltered and filtered
        rng = np.random.default_rng(41)
        u = np.kron(random_unitary(3, rng), random_unitary(3, rng))
        rho = u @ noisy(random_density(9, 9, rng), 0.7) @ u.conj().T
        d = decompose_state(rho, 3, 3)
        c = d.corr - np.outer(d.a, d.b)
        bound, slack, _, _ = kyfan_room(3, 3, d.a, d.b)
        # ||C||_F fits the unfiltered room, Holder's floor does not
        fro = np.linalg.norm(c)
        assert fro <= bound + slack < kyfan_floor(c, fro)
        calls = self.record(monkeypatch)
        verdict = analyze(rho, 3, 3)
        monkeypatch.undo()
        assert verdict.status is Status.INCONCLUSIVE
        assert [c.name for c in verdict.criteria] == ["ppt", "kyfan-necessary", "kyfan-sufficient"]
        # no SVD of the unfiltered C, and one without singular vectors of
        # the filtered correlation, which the necessary bound, the family
        # spread and the constructive refusal share
        svds = [(name, a) for name, a in calls if name.startswith("svd")]
        assert [name for name, _ in svds] == ["svdvals"]
        np.testing.assert_allclose(svds[0][1], normal_form(d).state.corr, atol=1e-12)
        self.check_full_matrices(calls, rho)

    def test_full_rank_two_qubit_verdict_factorises_no_marginal(self, monkeypatch):
        # the Bloch norms decide the local ranks and certify the pure
        # Wootters components: no 2 x 2 eigensolve, no stacked Cholesky
        rng = np.random.default_rng(43)
        rho = 0.3 * random_density(4, 4, rng) + 0.7 * np.eye(4) / 4.0
        calls = self.record(monkeypatch)
        verdict = analyze(rho, 2, 2)
        monkeypatch.undo()
        assert verdict.status is Status.SEPARABLE
        assert verdict.criteria[-1].name == "decomposition[wootters]"
        assert not any(name == "eigh" and a.shape == (2, 2) for name, a in calls)
        assert not any(name == "cholesky" and a.ndim == 3 for name, a in calls)

    @staticmethod
    def separable_qubits():
        """Full-rank separable 2 x 2 states: mixtures with I/4, the Werner
        state at 1/2 and the isotropic one at 1/3, whose Wootters values are
        degenerate, a state under local filters, and a stall state
        (1 - eps)|00><00| + eps I/4 in a random local frame, whose smallest
        Wootters value is below 1/70 of the largest, so its Takagi vectors
        are checked."""
        cases = [("mixed-0.7", 0.3 * random_density(4, 4, np.random.default_rng(43))
                  + 0.7 * np.eye(4) / 4.0)]
        rng = np.random.default_rng(61)
        cases += [(f"mixed-0.5-{i}", 0.5 * random_density(4, 4, rng) + 0.5 * np.eye(4) / 4.0)
                  for i in range(3)]
        cases += [("werner-0.5", compose_state(werner(2, 0.5))),
                  ("isotropic-1/3", compose_state(isotropic(2, 1.0 / 3.0)))]
        f = np.kron(np.diag([1.0, 0.6]) @ random_unitary(2, rng),
                    np.diag([1.0, 0.7]) @ random_unitary(2, rng))
        rho = f @ (0.4 * random_density(4, 4, rng) + 0.6 * np.eye(4) / 4.0) @ f.conj().T
        cases.append(("filtered", 0.5 * (rho + rho.conj().T) / np.trace(rho).real))
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        stall = 0.9999 * np.diag([1.0, 0.0, 0.0, 0.0]) + 1e-4 * np.eye(4) / 4.0
        cases.append(("stall-1e-4", u @ stall @ u.conj().T))
        return cases

    def test_full_rank_ppt_two_qubit_verdict_dispatches(self, monkeypatch):
        # the spectrum of rho, the eigenvalues of its partial transpose, and
        # for Wootters' frame the real 8 x 8 embedding of tau, whose top
        # eigenvectors are complex-orthonormal with no QR, since tau has no
        # null block; the kets are read off Gram matrices with no SVD, and
        # the Bloch norms certify the components: no QR, SVD, Cholesky
        # factor or inverse on any full-rank separable 2 x 2 state
        for case, rho in self.separable_qubits():
            calls = self.record(monkeypatch)
            verdict = analyze(rho, 2, 2)
            monkeypatch.undo()
            assert verdict.status is Status.SEPARABLE, case
            assert [c.name for c in verdict.criteria] == [
                "ppt", "concurrence", "decomposition[wootters]"], case
            assert [(name, a.shape, a.dtype.kind) for name, a in calls] == [
                ("eigh", (4, 4), "c"), ("eigvalsh", (4, 4), "c"),
                ("eigh", (8, 8), "f")], case
            rho_pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            np.testing.assert_allclose(calls[0][1], rho, rtol=0, atol=1e-15)
            np.testing.assert_allclose(calls[1][1], rho_pt, rtol=0, atol=1e-15)

    def test_two_qubit_verdict_shares_one_eigh(self, monkeypatch):
        # the PSD check and Wootters' frame read one eigendecomposition of rho
        rho = compose_state(werner(2, 0.5))
        calls = self.record(monkeypatch)
        verdict = analyze(rho, 2, 2)
        monkeypatch.undo()
        assert verdict.status is Status.SEPARABLE
        rho_pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        # Wootters' values are all 1/4, a degenerate tau with no null block,
        # so its Takagi vectors need no QR
        full = [(name, a) for name, a in calls if a.shape == (4, 4)]
        assert [name for name, _ in full] == ["eigh", "eigvalsh"]
        assert np.allclose(full[0][1], rho) and np.allclose(full[1][1], rho_pt)

    @pytest.mark.parametrize("n", [2, 3])
    def test_npt_verdict_builds_no_record(self, monkeypatch, n):
        # positivity and PPT are asked of the validated matrix: the PSD
        # question (the 2 x 2 eigendecomposition, or a Cholesky factor of
        # rho + tol I above), then one eigensolve of the partial transpose,
        # above 2 x 2 after its factorisation + tol I fails, and no moments,
        # realigned matrix or marginal are ever computed
        rho = 0.8 * compose_state(isotropic(n, 1.0)) + 0.2 * np.eye(n * n) / n ** 2
        rho = in_frame(rho, n, n, "rotated", np.random.default_rng(n))
        records, moments = [], bipartite._moments
        monkeypatch.setattr(bipartite, "_moments",
                            lambda *args: records.append(args) or moments(*args))
        calls = self.record(monkeypatch)
        verdict = analyze(rho, n, n)
        monkeypatch.undo()
        assert verdict.status is Status.ENTANGLED
        assert [c.name for c in verdict.criteria] == ["ppt"]
        assert records == []
        assert [name for name, _ in calls] == (["eigh", "eigvalsh"] if n == 2
                                               else ["cholesky", "cholesky", "eigvalsh"])
        rho_pt = partial_transpose_matrix(rho, n, n)
        shift = POSITIVITY_TOL * np.eye(n * n) if n > 2 else 0.0
        np.testing.assert_allclose(calls[0][1] - shift, rho, rtol=0, atol=1e-15)
        if n > 2:
            np.testing.assert_allclose(calls[1][1] - shift, rho_pt, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(calls[-1][1], rho_pt)


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
        for kernel in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(linalg, kernel, never)
        bad = SeparableDecomposition(np.array(probs), r_vectors, s_vectors)
        report = verify_decomposition(bad, d)
        assert not report.valid
        assert problem in report.detail

    @staticmethod
    def decompositions():
        """(decomposition, state) pairs from every construction analyze
        verifies, by label."""
        rng = np.random.default_rng(71)
        out = {}
        for i in range(3):
            d = decompose_state(0.4 * random_density(4, 4, rng) + 0.6 * np.eye(4) / 4.0, 2, 2)
            out[f"wootters-{i}"] = (wootters_decomposition(d), d)
        for n, m in ((3, 3), (2, 4)):
            f = np.kron(np.eye(n) + 0.3 * rng.normal(size=(n, n)),
                        np.eye(m) + 0.3 * rng.normal(size=(m, m)))
            rho = f @ (0.05 * random_density(n * m, n * m, rng) + 0.95 * np.eye(n * m)) @ f.T
            d = decompose_state(rho / np.trace(rho), n, m)
            nf = normal_form(d)
            dec = kyfan_bound_decomposition(nf.state.corr_svd, n, m)
            out[f"kyfan-{n}x{m}"] = (dec, nf.state)
            out[f"pulled-back-{n}x{m}"] = (
                transport(dec, np.linalg.inv(nf.filter_a), np.linalg.inv(nf.filter_b)), d)
        for n, phi in ((3, 0.1), (3, 0.8), (4, 0.5)):
            out[f"werner-{n}-{phi}"] = (werner_decompose(n, phi), werner(n, phi))
        va, vb = random_unitary(3, rng)[:, :2], random_unitary(3, rng)[:, :2]
        iso = np.kron(va, vb)
        big = decompose_state(iso @ compose_state(werner(2, 0.7)) @ iso.conj().T, 3, 3)
        out["embedded"] = (transport(werner_decompose(2, 0.7), va, vb), big)
        return out

    @staticmethod
    def planted(case, side, scale):
        """The decomposition of ``case`` with the vector of one side of its
        middle component scaled by ``scale``, and the next one by twice
        that, with the state."""
        dec, d = case
        mid = len(dec) // 2
        vecs = (dec.r_vectors if side == "A" else dec.s_vectors).copy()
        vecs[mid] *= scale
        vecs[mid + 1] *= 2.0 * scale
        if side == "A":
            return SeparableDecomposition(dec.probs, vecs, dec.s_vectors), d
        return SeparableDecomposition(dec.probs, dec.r_vectors, vecs), d

    def test_ball_floor_matches_cholesky_reference(self, monkeypatch):
        # the report is the one the all-Cholesky certificate gives, for
        # valid decompositions and for unphysical components planted in the
        # middle of a stack at N = 2 and N = 3, which are named by their
        # index in the decomposition
        cases = self.decompositions()
        valid = list(cases)
        planted = {"wootters-0": "A", "werner-3-0.1": "A", "werner-3-0.8": "B"}
        for label, side in planted.items():
            cases[f"planted-{label}"] = self.planted(cases[label], side,
                                                     3.0 if label == "werner-3-0.1" else 1.5)
        reports = {label: verify_decomposition(dec, d) for label, (dec, d) in cases.items()}
        assert all(reports[label].valid for label in valid)
        for label, side in planted.items():
            mid = len(cases[label][0]) // 2
            assert f"component {mid} on side {side} unphysical" in reports[f"planted-{label}"].detail
        # both branches run: components certified by the floor, and
        # components outside the inscribed ball left to the factorisation
        floors = np.concatenate([np.append(ball_floor(dec.r_vectors, d.dim_a),
                                           ball_floor(dec.s_vectors, d.dim_b))
                                 for dec, d in cases.values()])
        assert (floors >= -COMPONENT_PSD).any() and (floors < -COMPONENT_PSD).any()
        monkeypatch.setattr(criteria, "ball_floor", lambda vecs, dim: np.full(len(vecs), -np.inf))
        assert {label: verify_decomposition(dec, d)
                for label, (dec, d) in cases.items()} == reports

    @staticmethod
    def three_residual_reference(dec, d):
        """(valid, max_residual, detail) from separate residuals: |sum p - 1|,
        the two marginals and the correlation, each from its own product,
        and every component's lowest eigenvalue."""
        p, r, s = dec.probs, dec.r_vectors, dec.s_vectors
        sum_dev = abs(p.sum() - 1.0)
        max_residual = max(np.abs(p @ r - d.a).max(initial=0.0),
                           np.abs(p @ s - d.b).max(initial=0.0),
                           np.abs((r * p[:, None]).T @ s - d.corr).max(initial=0.0))
        problems = []
        if p.min() <= 0.0:
            problems.append(f"nonpositive probability {p.min():.3e}")
        if sum_dev > PROB_SUM:
            problems.append(f"probabilities sum off by {sum_dev:.3e}")
        if max_residual > RESIDUAL:
            problems.append(f"moment residual {max_residual:.3e}")
        for label, vecs, dim in (("A", r, d.dim_a), ("B", s, d.dim_b)):
            low = np.linalg.eigvalsh(from_bloch(vecs, dim))[:, 0]
            bad = np.flatnonzero(low < -COMPONENT_PSD)
            if bad.size:
                problems.append(f"component {bad[0]} on side {label} unphysical "
                                f"(min eigenvalue {low[bad[0]]:.3e})")
        return not problems, max_residual, "; ".join(problems)

    def test_one_product_matches_three_residuals(self):
        # the augmented product gives the report of the three separate
        # residuals, on every construction analyze verifies and on faulty
        # copies of them: scaled weights and planted unphysical components
        cases = self.decompositions()
        for label in list(cases):
            dec, d = cases[label]
            cases[f"{label}-weights"] = (SeparableDecomposition(
                0.9 * dec.probs, dec.r_vectors, dec.s_vectors), d)
            cases[f"{label}-planted"] = self.planted(cases[label], "B", 1.5)
        invalid = 0
        for label, (dec, d) in cases.items():
            report = verify_decomposition(dec, d)
            valid, max_residual, detail = self.three_residual_reference(dec, d)
            assert (report.valid, report.detail) == (valid, detail), label
            assert abs(report.max_residual - max_residual) <= 1e-15, label
            invalid += not valid
        assert invalid == 2 * len(self.decompositions())

    def test_pure_components_take_one_shifted_cholesky_stack_per_side(self, monkeypatch):
        # the SIC components of the phi = 1 Werner state are pure on both
        # sides, so every matrix is singular: each side is certified by one
        # Cholesky factor of its stack plus COMPONENT_PSD I, built from the
        # Bloch rows, and nothing is eigensolved
        dec = werner_decompose(3, 1.0)
        calls = TestSpectralCounts.record(monkeypatch)
        report = verify_decomposition(dec, werner(3, 1.0))
        monkeypatch.undo()
        assert report.valid, report
        assert [name for name, _ in calls] == ["cholesky", "cholesky"]
        for (_, stack), vecs in zip(calls, (dec.r_vectors, dec.s_vectors)):
            shift = np.broadcast_to(COMPONENT_PSD * np.eye(3), stack.shape)
            np.testing.assert_allclose(stack - from_bloch(vecs, 3), shift, rtol=0, atol=1e-15)

    def test_bad_probabilities_invalid(self):
        dec = werner_decompose(2, 1.0)
        bad = SeparableDecomposition(probs=dec.probs * 0.9,
                                     r_vectors=dec.r_vectors,
                                     s_vectors=dec.s_vectors)
        assert not verify_decomposition(bad, werner(2, 1.0)).valid


class TestIllConditionedFilters:
    @pytest.mark.parametrize("frame", range(6))
    def test_filtering_stops_short_of_a_singular_filter(self, frame):
        # ill-conditioned marginals leave the Gram matrices of the first
        # filtering run indefinite in rounding, where filtering stops with
        # an unconverged record
        rho = ill_conditioned_product(frame)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = analyze(rho, 3, 3)
            nf = normal_form(decompose_state(rho, 3, 3))
        assert verdict.status is not Status.ENTANGLED
        assert not nf.converged and nf.iterations > 0
        assert np.isfinite(nf.filter_a).all() and np.isfinite(nf.filter_b).all()

    def test_unfiltered_products_are_separable(self):
        # filtering would fail on every frame; the product of the marginals
        # is tried first and verifies as the one-component decomposition
        for frame in range(30):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = analyze(ill_conditioned_product(frame), 3, 3)
            assert verdict.status is Status.SEPARABLE, frame
            assert [(c.name, c.passed) for c in verdict.criteria] == [
                ("ppt", True), ("decomposition[trivial-factor]", True)], frame
            assert len(verdict.decomposition) == 1

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1)])
    def test_one_sided_states_are_separable(self, dims):
        # with a trivial factor the correlation is empty, and the state is
        # the product of its marginals whether or not filtering converges
        for frame in range(30):
            v = random_unitary(3, 101 + frame)
            rho = (v * [1.2e-9, 0.48, 0.52 - 1.2e-9]) @ v.conj().T
            verdict = analyze(rho, *dims)
            assert verdict.status is Status.SEPARABLE, frame
            assert verdict.criteria[-1].passed

    def test_correlated_state_is_not_offered_the_product(self):
        # (1 - eps)|00><00| + eps I/9 never reaches normal form, and its
        # correlation differs from a b^T by order eps: the product of its
        # marginals is not tried
        rho = np.eye(9) * 1e-4 / 9.0
        rho[0, 0] += 1.0 - 1e-4
        d = decompose_state(rho, 3, 3)
        assert np.abs(d.corr - np.outer(d.a, d.b)).max() > RESIDUAL
        verdict = analyze(rho, 3, 3)
        assert verdict.status is Status.INCONCLUSIVE
        assert [(c.name, c.passed) for c in verdict.criteria] == [
            ("ppt", True), ("normal-form", False), ("kyfan-necessary", True)]


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

    @pytest.mark.parametrize("keyword, value", [
        ("tol", np.nan), ("tol", -1.0), ("tol", np.inf), ("max_iter", -1), ("max_iter", True)])
    def test_bad_parameters_are_named(self, keyword, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameter, match=f"^{keyword} must be"):
                analyze(random_density(9, 9, 1), 3, 3, **{keyword: value})

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    @pytest.mark.parametrize("check", [ppt_check, analyze_2x2, criteria.require_psd])
    def test_bad_tol_is_named_by_every_check(self, check, tol):
        # unchecked, a NaN or negative tol makes the maximally mixed state
        # ENTANGLED or NotPSD
        d = decompose_state(np.eye(4) / 4.0, 2, 2)
        with pytest.raises(BadParameter, match="^tol must be"):
            check(d, tol=tol)

    def test_tol_above_every_marginal_eigenvalue(self):
        # the marginal eigenvalues are 1/3, so no support is left to project to
        with pytest.raises(NotFullRank, match="marginal A .* tol = 0.5"):
            analyze(np.eye(9) / 9.0, 3, 3, tol=0.5)

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
        assert abs(sufficient.margin - (norm - 2.0 / np.sqrt(9.0 * 4.0))) < 1e-9
        assert sufficient.margin > 0.1

    def test_unconverged_filtering_applies_the_unfiltered_bound(self):
        # the tiles state of Bennett et al. is PPT and entangled, and its
        # unfiltered correlation violates ||T||_KF <= R_+(3)^2 = 4/3; two
        # sweeps do not bring it to normal form
        rho = tiles_state()
        verdict = analyze(rho, 3, 3, max_iter=2)
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
        verdict = analyze(rho, 3, 3, max_iter=2)
        assert verdict.status is Status.INCONCLUSIVE
        assert [c.name for c in verdict.criteria] == names
        assert verdict.criteria[-1].passed and verdict.criteria[-1].margin < 0.0

    def test_record_short_of_convergence_logs_normal_form(self):
        # a mixture of two product states plus 3e-8 I/6 stops short of the
        # normal-form tolerance, with a record well inside the residual; the
        # record is used, and the log says so
        rho = noisy(products((0.4, 0.6), 2, 3, 6), 3e-8)
        nf = normal_form(decompose_state(rho, 2, 3))
        # the larger marginal norm as the library reads it, in Python floats
        marg = _marginal_norm(nf.state)
        assert not nf.converged and NORMAL_TOL <= marg < RESIDUAL
        verdict = analyze(rho, 2, 3)
        names = [c.name for c in verdict.criteria]
        assert names[:3] == ["ppt", "normal-form", "kyfan-necessary"]
        logged = verdict.criteria[1]
        assert logged.passed and logged.margin == marg
        assert f"{nf.iterations} sweeps" in logged.detail

    @pytest.mark.parametrize("fraction", [0.2, 0.6, 0.9])
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 3), (3, 4), (4, 4)])
    def test_kyfan_norm_within_slack_of_the_bound_is_separable(self, n, m, fraction):
        # a normal-form state whose Ky Fan norm lies a fraction of the slack
        # above the constructive bound is decomposed, not refused by a
        # second, stricter comparison
        rng = np.random.default_rng(n * m)
        raw = rng.normal(size=(n * n - 1, m * m - 1))
        norm = 2.0 / np.sqrt(n * m * (n - 1.0) * (m - 1.0)) + fraction * KYFAN_SLACK
        corr = raw * (norm / np.linalg.svd(raw, compute_uv=False).sum())
        rho = compose_state(BipartiteDecomposed(dim_a=n, dim_b=m, a=np.zeros(n * n - 1),
                                                b=np.zeros(m * m - 1), corr=corr))
        verdict = analyze(rho, n, m)
        assert verdict.status is Status.SEPARABLE, verdict.criteria
        assert verdict.criteria[-1].name == "decomposition[kyfan-sufficient]"
        assert verify_decomposition(verdict.decomposition, decompose_state(rho, n, m)).valid

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
        assert taus[0] - taus[-1] > RESIDUAL
        verdict = analyze(rho, 3, 3)
        assert verdict.status is Status.INCONCLUSIVE
        assert not any("family" in c.name for c in verdict.criteria)

    def test_separable_corpus_stays_ppt_after_transpose(self):
        # partial transposition preserves separability on the corpus
        corpus = [werner(2, 0.7), werner(3, 0.9), isotropic(3, 0.1)]
        for d in corpus:
            flipped = partial_transpose_matrix(d.matrix, d.dim_a, d.dim_b)
            assert ppt_check(decompose_state(flipped, d.dim_a, d.dim_b)).passed

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


@st.composite
def rank_deficient_mixtures(draw):
    """Mixtures of up to four pure products, or random states, on a block of
    local ranks short of 2x3 to 4x4 on at least one side, under random
    local unitaries."""
    n, m = draw(st.sampled_from([(2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]))
    ra, rb = draw(st.integers(1, n)), draw(st.integers(1, m))
    if (ra, rb) == (n, m):
        ra -= 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        block = sum(w * np.kron(random_density(ra, 1, rng), random_density(rb, 1, rng))
                    for w in rng.dirichlet(np.ones(draw(st.integers(1, 4)))))
    else:
        block = random_density(ra * rb, draw(st.integers(1, ra * rb)), rng)
    iso = np.kron(np.eye(n)[:, :ra], np.eye(m)[:, :rb])
    return in_frame(iso @ block @ iso.T, n, m, "rotated", rng), (n, m)


class TestSupportProjection:
    def test_nested_projection(self):
        # B's weight eps on |2> lies below the rank cutoff and A's 2 eps
        # above it; once B is projected, A keeps eps on |2> and is projected
        rho = nested_support(3)
        verdict = analyze(rho, 3, 3)
        assert verdict.status is SEP
        names = [c.name for c in verdict.criteria]
        assert names.count("support-projection") == 2
        decompositions = [c for c in verdict.criteria if c.name.startswith("decomposition[")]
        assert len(decompositions) == 1
        assert decompositions[0].margin <= RESIDUAL
        report = verify_decomposition(verdict.decomposition, decompose_state(rho, 3, 3))
        assert report.valid and report.max_residual <= RESIDUAL

    @settings(max_examples=100, deadline=None)
    @given(rank_deficient_mixtures())
    def test_separable_verdicts_verify_once_against_the_input(self, case):
        rho, (n, m) = case
        verdict = analyze(rho, n, m)
        # PPT is asked of the input, before any projection
        if not verdict.criteria[0].passed:
            assert verdict.status is ENT and len(verdict.criteria) == 1
            return
        assert [c.name for c in verdict.criteria[:2]] == ["ppt", "support-projection"]
        if verdict.status is not SEP:
            return
        assert sum(c.name.startswith("decomposition[") for c in verdict.criteria) == 1
        assert verify_decomposition(verdict.decomposition, decompose_state(rho, n, m)).valid


class TestComposedLift:
    @pytest.mark.parametrize("seed", range(5))
    def test_projected_and_filtered_state_takes_one_transport(self, seed, monkeypatch):
        # the decomposition of the filtered record reaches the input through
        # the support isometry times the inverse filter, in one call
        calls = TestNormalFormIsNotTransported.transport_calls(monkeypatch)
        rho = projected_filtered(seed)
        verdict = analyze(rho, 3, 3)
        assert verdict.status is SEP
        assert [c.name for c in verdict.criteria] == [
            "ppt", "support-projection", "kyfan-necessary", "decomposition[kyfan-sufficient]"]
        assert len(calls) == 1
        _, map_a, map_b = calls[0]
        assert map_a.shape == (3, 2) and map_b.shape == (3, 3)
        assert verify_decomposition(verdict.decomposition, decompose_state(rho, 3, 3)).valid


class TestPptOnTheInput:
    """PPT is asked of the input, once: a support projection drops the
    coherences, of order sqrt(tol), that carry a negative eigenvalue of the
    partial transpose far below -tol."""

    @pytest.mark.parametrize("frame", ["plain", "rotated"])
    @pytest.mark.parametrize("delta, embedded, margin", [
        (5e-10, False, 2.236e-5), (1e-12, False, 1.0e-6), (1e-9, True, 1.581e-5)],
        ids=["2x2-5e-10", "2x2-1e-12", "3x3-1e-9"])
    def test_weak_entanglement_is_entangled(self, delta, embedded, margin, frame):
        n = 3 if embedded else 2
        rho = in_frame(weakly_entangled(delta, embedded), n, n, frame, np.random.default_rng(8))
        # a marginal weight at or below the cutoff: a projection would drop it
        assert local_ranks(decompose_state(rho, n, n)) != (n, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = analyze(rho, n, n)
        assert verdict.status is ENT
        [check] = verdict.criteria
        assert (check.name, check.passed) == ("ppt", False)
        assert check.margin == pytest.approx(margin, rel=1e-3)


def product_cases():
    """(id, [(rho, n, m), ...]) for products of their marginals."""
    yield "ill-conditioned", [(ill_conditioned_product(frame), 3, 3) for frame in range(30)]
    for n, m in ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4)):
        yield f"off-ball-{n}x{m}", [(off_ball_product(n, m, seed), n, m) for seed in range(5)]
    for n, m in ((1, 3), (3, 1)):
        yield f"one-sided-{n}x{m}", [(random_density(3, 3, seed), n, m) for seed in range(5)]


class TestProductsBeforeTheFilter:
    """A product of its marginals is decided by its one component (a, b)
    and never filtered: ill-conditioned marginals stall operator scaling,
    and marginals outside the inscribed ball leave the shifted Ky Fan
    bound no room."""

    @pytest.mark.parametrize("states", [case[1] for case in product_cases()],
                             ids=[case[0] for case in product_cases()])
    def test_products_are_never_filtered(self, states, monkeypatch):
        filtered = []
        monkeypatch.setattr(criteria, "normal_form",
                            lambda d, **kwargs: filtered.append(d) or normal_form(d, **kwargs))
        for rho, n, m in states:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = analyze(rho, n, m)
            assert [(c.name, c.passed) for c in verdict.criteria] == [
                PPT, ("decomposition[trivial-factor]", True)]
            assert verdict.status is SEP
            d = decompose_state(rho, n, m)
            if min(n, m) > 1:
                # a side outside the inscribed ball leaves the shifted bound no room
                assert kyfan_room(n, m, d.a, d.b)[0] == 0.0
            dec = verdict.decomposition
            assert len(dec) == 1
            np.testing.assert_array_equal(dec.r_vectors[0], d.a)
            np.testing.assert_array_equal(dec.s_vectors[0], d.b)
        assert filtered == []


def _embedded(rho, n, m, seed):
    """A 2 x 2 state placed on random two-dimensional local supports."""
    rng = np.random.default_rng(seed)
    iso = np.kron(random_unitary(n, rng)[:, :2], random_unitary(m, rng)[:, :2])
    return iso @ rho @ iso.conj().T


SEP, ENT, INC = Status.SEPARABLE, Status.ENTANGLED, Status.INCONCLUSIVE
PPT, KYFAN = ("ppt", True), ("kyfan-necessary", True)
WOOTTERS = [PPT, ("concurrence", True), ("decomposition[wootters]", True)]


def criterion_sequence_cases():
    """One state per sequence of (criterion, passed) that a verdict logs."""
    outside = 0.3 * random_density(9, 9, np.random.default_rng(31)) + 0.7 * np.eye(9) / 9.0
    inside = 0.05 * random_density(9, 9, np.random.default_rng(31)) + 0.95 * np.eye(9) / 9.0
    stall = noisy(np.diag(np.eye(9)[0]), 1e-4)
    one_sided = np.diag([0.2, 0.3, 0.5]).astype(complex)
    cases = [
        ("npt", compose_state(isotropic(3, 0.5)), 3, 3, ENT, [("ppt", False)]),
        ("kyfan-sufficient-fails", outside, 3, 3, INC,
         [PPT, KYFAN, ("kyfan-sufficient", False)]),
        ("wootters", compose_state(werner(2, 0.5)), 2, 2, SEP, WOOTTERS),
        # PPT is decided at rounding at 2 x 2: p_zero(1e-5)'s lowest
        # partial-transpose eigenvalue is about -2.5e-11, p_zero(1e-7)'s
        # about -2.5e-15, within rounding, and its concurrence is 1e-7
        ("p-zero-npt", compose_state(p_zero(1e-5)), 2, 2, ENT, [("ppt", False)]),
        ("concurrence-fails", compose_state(p_zero(1e-7)), 2, 2, INC,
         [PPT, ("concurrence", False)]),
        # the product of the marginals misses a 2 x 2 record with a rank-one
        # marginal, and Wootters' decomposition of it decides
        ("rank-one-rung-wootters", rank_one_rung_state(1e-5), 2, 2, SEP,
         [PPT, ("support-projection", True), ("decomposition[trivial-factor]", False),
          *WOOTTERS[1:]]),
        ("kyfan-sufficient", in_frame(inside, 3, 3, "filtered", np.random.default_rng(31)),
         3, 3, SEP, [PPT, KYFAN, ("decomposition[kyfan-sufficient]", True)]),
        ("kyfan-sufficient-unfiltered", inside, 3, 3, SEP,
         [PPT, ("decomposition[kyfan-sufficient]", True)]),
        # a one-sided record's correlation is empty: it is a product
        ("one-sided-1x3", one_sided, 1, 3, SEP, [PPT, ("decomposition[trivial-factor]", True)]),
        ("one-sided-3x1", one_sided, 3, 1, SEP, [PPT, ("decomposition[trivial-factor]", True)]),
        ("normal-form-short-separable", noisy(products([1.0], 2, 3, 0), 3e-8), 2, 3,
         SEP, [PPT, ("normal-form", True), KYFAN, ("decomposition[kyfan-sufficient]", True)]),
        ("normal-form-short-inconclusive",
         noisy(products([0.4, 0.6], 2, 3, 6), 3e-8), 2, 3,
         INC, [PPT, ("normal-form", True), KYFAN, ("kyfan-sufficient", False)]),
        ("normal-form-fails", stall, 3, 3, INC, [PPT, ("normal-form", False), KYFAN]),
        # a product whose filtering would fail is decided before the filter
        ("trivial-factor-before-filter", ill_conditioned_product(0), 3, 3, SEP,
         [PPT, ("decomposition[trivial-factor]", True)]),
        ("family", compose_state(werner(3, 1.0)), 3, 3, SEP,
         [PPT, KYFAN, ("decomposition[family]", True)]),
        ("tiles", tiles_state(), 3, 3, ENT, [PPT, ("kyfan-necessary", False)]),
        ("horodecki-3x3", horodecki_3x3(0.5), 3, 3, ENT, [PPT, ("kyfan-necessary", False)]),
        # PPT is asked of the input, before any support projection
        ("pure-marginal", np.kron(random_density(2, 1, 5), random_density(3, 3, 6)), 2, 3, SEP,
         [PPT, ("support-projection", True), ("decomposition[trivial-factor]", True)]),
        ("embedded-wootters", products([0.4, 0.6], 2, 3, 0), 2, 3, SEP,
         [PPT, ("support-projection", True), *WOOTTERS[1:]]),
        ("embedded-npt", _embedded(compose_state(bell()), 3, 3, 7), 3, 3, ENT, [("ppt", False)]),
        ("embedded-kyfan-sufficient-fails", products([0.2, 0.3, 0.5], 2, 4, 0), 2, 4, INC,
         [PPT, ("support-projection", True), KYFAN, ("kyfan-sufficient", False)]),
    ]
    for cid, rho, n, m, status, sequence in cases:
        yield pytest.param(rho, n, m, status, sequence, id=cid)


@pytest.mark.parametrize("rho, n, m, status, sequence", criterion_sequence_cases())
def test_criterion_sequence(rho, n, m, status, sequence):
    # every path through the battery, pinned by the criteria it logs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = analyze(rho, n, m)
    assert verdict.status is status
    assert [(c.name, c.passed) for c in verdict.criteria] == sequence
    assert (verdict.decomposition is not None) is (status is SEP)
