"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``ACCEPTANCE <k> PASS`` line with its measured
numbers (run pytest with ``-s`` to see them live).  Budgets are asserted
as stated.
"""

import itertools
import time

import numpy as np
import pytest

from helpers import batch_min_margin, random_density, random_orthogonal
from sephorn.bipartite import (
    BipartiteDecomposed,
    compose_state,
    decompose_state,
    normal_form,
)
from sephorn.bloch import from_bloch
from sephorn.criteria import (
    Status,
    analyze,
    ppt_check,
    verify_decomposition,
)
from sephorn.decompose import kyfan_bound_decomposition, werner_decompose
from sephorn.horn import all_triples, check_product_inequalities, triple_set
from sephorn.states import bell, isotropic, p_zero, werner


def report(index: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {index} {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def random_hermitian_batch(count, n, rng):
    g = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return (g + np.conj(np.swapaxes(g, 1, 2))) / 2.0


def descending_eigs(batch):
    return np.ascontiguousarray(np.linalg.eigvalsh(batch)[:, ::-1])


def test_1_bell_detection():
    start = time.time()
    verdict = analyze(compose_state(bell()), 2, 2)
    norm = float(np.linalg.svd(bell().corr, compute_uv=False).sum())
    elapsed = time.time() - start
    ok = (verdict.status is Status.ENTANGLED
          and abs(norm - 3.0) <= 1e-12
          and elapsed < 1.0)
    report(1, ok, f"bell entangled, kyfan={norm:.15f} vs bound 1, {elapsed:.2f}s")


def test_2_two_qubit_exactness():
    start = time.time()
    rng = np.random.default_rng(20240202)
    mismatches = 0
    separable = 0
    worst_residual = 0.0
    for _ in range(1000):
        d = decompose_state(random_density(4, 4, rng), 2, 2)
        verdict = analyze(d.matrix, 2, 2)
        want = Status.SEPARABLE if ppt_check(d).passed else Status.ENTANGLED
        mismatches += verdict.status is not want
        if verdict.status is Status.SEPARABLE:
            separable += 1
            check = verify_decomposition(verdict.decomposition, d)
            worst_residual = max(worst_residual, check.max_residual)
            if not check.valid:
                mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and worst_residual < 1e-8 and elapsed < 60.0
    report(2, ok, f"1000 states, 0 mismatches expected (got {mismatches}), "
                  f"{separable} separable, worst residual {worst_residual:.2e}, "
                  f"{elapsed:.1f}s")


def test_3_horn_forward_property():
    start = time.time()
    rng = np.random.default_rng(20240303)
    violations = 0
    draws = 0
    for size in (2, 3, 4, 5):
        for _ in range(250):
            alpha = np.sort(rng.uniform(0.01, 2.0, size=size))[::-1]
            beta = np.sort(rng.uniform(0.01, 2.0, size=size))[::-1]
            q = random_orthogonal(size, rng)
            taus = np.linalg.svd((alpha[:, None] * q) * beta[None, :],
                                 compute_uv=False)
            reportt = check_product_inequalities(taus, alpha, beta)
            violations += not reportt.feasible
            draws += 1
    elapsed = time.time() - start
    ok = violations == 0 and draws == 1000 and elapsed < 30.0
    report(3, ok, f"{draws} draws with L in 2..5, {violations} violations, "
                  f"{elapsed:.1f}s")


def test_4_triple_set_oracle():
    start = time.time()
    rng = np.random.default_rng(20240404)
    samples = 100_000

    # forward soundness: eigenvalue triples never violate emitted inequalities
    worst = np.inf
    for n in (2, 3, 4):
        ea_mat = random_hermitian_batch(samples, n, rng)
        eb_mat = random_hermitian_batch(samples, n, rng)
        ea = descending_eigs(ea_mat)
        eb = descending_eigs(eb_mat)
        ec = descending_eigs(ea_mat + eb_mat)
        margins = batch_min_margin(ea, eb, ec)
        worst = min(worst, float(margins.min()))
    sound = worst >= -1e-9

    # rejected sum-condition candidates admit sampled violations
    rejected = []
    for r in range(2, 4):
        accepted = set(triple_set(4, r).triples)
        shift = r * (r + 1) // 2
        subsets = [tuple(c) for c in itertools.combinations(range(1, 5), r)]
        for item in itertools.product(subsets, repeat=3):
            if sum(item[0]) + sum(item[1]) == sum(item[2]) + shift \
                    and item not in accepted:
                rejected.append(item)
    witnessed = 0
    for I, J, K in rejected:
        hit = False
        for _ in range(20000):
            a = np.sort(rng.normal(size=4))[::-1]
            b = np.sort(rng.normal(size=4))[::-1]
            c = np.sort(a + b[rng.permutation(4)])[::-1]
            lhs = sum(c[k - 1] for k in K)
            rhs = sum(a[i - 1] for i in I) + sum(b[j - 1] for j in J)
            if lhs > rhs + 1e-9:
                hit = True
                break
        witnessed += hit
    elapsed = time.time() - start
    ok = sound and len(rejected) >= 5 and witnessed >= 5 and elapsed < 300.0
    report(4, ok, f"{samples} samples per n in 2..4, worst margin {worst:.2e}; "
                  f"violations found for {witnessed}/{len(rejected)} rejected "
                  f"triples, {elapsed:.1f}s")


def test_5_werner_endpoints():
    start = time.time()
    ok = True
    notes = []
    for dim in (2, 3):
        for phi in (1.0, 0.0):
            dec = werner_decompose(dim, phi)
            target = werner(dim, phi)
            check = verify_decomposition(dec, target)
            min_eig = min(
                float(np.linalg.eigvalsh(from_bloch(v)).min())
                for vecs in (dec.r_vectors, dec.s_vectors) for v in vecs)
            good = check.valid and check.max_residual < 1e-8 and min_eig >= -1e-8
            if phi == 1.0:
                good = good and np.abs(dec.probs - 1.0 / dim ** 2).max() < 1e-12
            ok = ok and good
            notes.append(f"N={dim} phi={phi}: residual {check.max_residual:.1e}, "
                         f"min component eig {min_eig:.1e}")
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    report(5, ok, "; ".join(notes) + f"; {elapsed:.1f}s")


def test_6_isotropic_boundary():
    start = time.time()
    ok = True
    notes = []
    for dim in (2, 3, 4):
        threshold = 1.0 / (dim + 1.0)
        above = isotropic(dim, threshold + 0.01)
        verdict = analyze(compose_state(above), dim, dim)
        entangled = verdict.status is Status.ENTANGLED
        ppt = ppt_check(above)
        ok = ok and entangled and not ppt.passed
        notes.append(f"N={dim} p={threshold + 0.01:.3f}: entangled "
                     f"(ppt {ppt.detail})")
        if dim <= 3:
            below = threshold - 0.01
            state = isotropic(dim, below)
            verdict = analyze(compose_state(state), dim, dim)
            check = verify_decomposition(verdict.decomposition, state)
            ok = ok and verdict.status is Status.SEPARABLE and check.valid
            notes.append(f"N={dim} p={below:.3f}: separable "
                         f"(residual {check.max_residual:.1e})")
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    report(6, ok, "; ".join(notes) + f"; {elapsed:.1f}s")


def test_7_normal_form():
    start = time.time()
    rng = np.random.default_rng(20240707)
    failures = 0
    for dims in ((2, 2), (2, 3)):
        size = dims[0] * dims[1]
        for _ in range(250):
            d = decompose_state(random_density(size, size, rng), *dims)
            result = normal_form(d, max_iter=500, tol=1e-10)
            if not result.converged:
                failures += 1
            elif max(np.linalg.norm(result.state.a),
                     np.linalg.norm(result.state.b)) > 1e-10:
                failures += 1
    limit = normal_form(p_zero(0.5), max_iter=500)
    psi = np.zeros(4)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    fidelity = float(np.real(psi @ compose_state(limit.state) @ psi))
    elapsed = time.time() - start
    ok = (failures == 0 and not limit.converged and fidelity > 0.99
          and elapsed < 120.0)
    report(7, ok, f"500 random states converged ({failures} failures); "
                  f"p-zero(0.5) converged={limit.converged} "
                  f"fidelity={fidelity:.4f}, {elapsed:.1f}s")


def test_8_constructive_bound_decompositions():
    start = time.time()
    rng = np.random.default_rng(20240808)
    dims_cycle = ((2, 2), (2, 3), (3, 3))
    worst_norm_dev = 0.0
    worst_residual = 0.0
    count = 0
    for index in range(200):
        n, m = dims_cycle[index % 3]
        ka, kb = n * n - 1, m * m - 1
        raw = rng.normal(size=(ka, kb))
        weight = np.sqrt(n * (n - 1) * m * (m - 1)) / 2.0
        base = np.linalg.svd(raw, compute_uv=False).sum() * weight
        for budget in (0.5, 0.9, 1.0):
            corr = raw * (budget / base)
            # the normal-form state carrying this correlation
            state = BipartiteDecomposed(dim_a=n, dim_b=m, a=np.zeros(ka),
                                        b=np.zeros(kb), corr=corr)
            dec = kyfan_bound_decomposition(state.corr_svd, n, m)
            check = verify_decomposition(dec, state)
            norm_dev_r = np.abs(np.sum(dec.r_vectors ** 2, axis=1)
                                - 2.0 * budget / (n * (n - 1))).max()
            norm_dev_s = np.abs(np.sum(dec.s_vectors ** 2, axis=1)
                                - 2.0 * budget / (m * (m - 1))).max()
            worst_norm_dev = max(worst_norm_dev, norm_dev_r, norm_dev_s)
            worst_residual = max(worst_residual, check.max_residual)
            if not check.valid:
                pytest.fail(f"construction invalid for dims ({n},{m}), "
                            f"budget {budget}: {check.detail}")
            count += 1
    elapsed = time.time() - start
    ok = worst_norm_dev <= 1e-9 and worst_residual < 1e-8 and elapsed < 120.0
    report(8, ok, f"{count} constructions over dims 2x2/2x3/3x3, worst norm "
                  f"deviation {worst_norm_dev:.2e}, worst residual "
                  f"{worst_residual:.2e}, {elapsed:.1f}s")
