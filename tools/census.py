#!/usr/bin/env python3
"""Verdict census: every criterion of every verdict over a fixed set of states.

Runs ``sephorn.analyze`` with warnings raised as errors over a seeded
census and writes, per case, the status, each logged criterion as
(name, passed, margin, detail) and the decomposition's probabilities, or
the exception a case raised.  It also prints, to stdout only, the summed
wall time of the ``analyze`` calls per case group, the first component of
the case id (``qudit``, ``stall``, ...), so that ``--against`` compares
verdicts and never timings, and how many INCONCLUSIVE cases lie inside the
Gurvits-Barnum ball ||rho - I/d||_F <= 1/sqrt(d(d - 1)), d = NM, where
every state is separable (quant-ph/0204159): the gap that a sufficient
criterion could still close, per group.  Run from the repository root:

    python3 tools/census.py --out census.json
    python3 tools/census.py --against census.json

``--against FILE`` compares with a census written earlier, for instance by
the parent commit, lists each case that differs and exits 1 if any does.
Floats are compared through their JSON text, so equal means bit-identical.
The comparison ends with one line per group of differing cases that share
their status before, their status after and the last criterion logged
after, with the group's count.  Cases whose status and criterion names
are unchanged form groups of their own, whose line also gives the largest
change of a probability and of a criterion margin, so that drift in the
floats is measured, not only listed.

The census holds the benchmark's qubit, qudit and families corpora at seeds
1-3 (``pipebench.corpus``, read only), low-rank states plus white noise,
mixtures of k random product states plus white noise, noisy full-rank
states from 2x3 to 4x4, the filtering stall states (1 - eps)|00><00| +
eps I/d, thirty 3x3 products whose marginals have an eigenvalue just above
the rank cutoff, forty mixtures of two 2x3 products plus 3e-8 I/6, ten
3x3 states that take two support projections and ten filtered 2x3 states
embedded in 3x3, whose decomposition is carried through a filter and a
support projection at once.  Two groups, each in random local frames,
cover the questions asked before any projection or filter: weakly
entangled states sqrt(1 - delta)|00> + sqrt(delta)|11> at 2x2, and half
of one plus half |22><22| at 3x3, whose marginal weight delta lies at or
below the rank cutoff (``weak-entanglement``), and products: one pure
product plus eps I/d, exact products whose marginals lie outside the
inscribed ball, and mixed 1x3 and 3x1 states (``near-products``).  The
last group, ``qubit-boundary``, holds twenty NPT Ginibre 2x2 states mixed
with white noise to the PPT boundary and moved off it by each of
``BOUNDARY_SHIFTS`` in noise weight, and thirty separable mixtures of
pure products under local filters of condition up to 1e3, 1e6 and 1e9.
The states and their samplers are those of ``tests/helpers.py``, which the
test suite checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from helpers import (BOUNDARY_SHIFTS, filtered_product_mixture,  # noqa: E402
                     ill_conditioned_product, in_frame, nested_support, noisy, off_ball_product,
                     ppt_boundary, products, projected_filtered, random_density,
                     weakly_entangled)
from pipebench import corpus  # noqa: E402
from sephorn import analyze  # noqa: E402

DIMS = ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4))


def cases():
    """Yield (case id, rho, dim_a, dim_b) for the whole census, in order."""
    for workload in ("qubit", "qudit", "families"):
        for seed in (1, 2, 3):
            for case in corpus.build(workload, seed):
                yield f"{case.id}@{seed}", case.rho, *case.dims
    rng = np.random.default_rng(2016)
    for n, m in DIMS:
        for rank in (1, 2, 3):
            for eps in (1e-2, 1e-4, 1e-6, 1e-8):
                rho = noisy(random_density(n * m, rank, rng), eps)
                yield f"low-rank/{n}x{m}/rank{rank}/{eps:.0e}", rho, n, m
        for k in (1, 2, 3, 4):
            for eps in (0.0, 3e-8, 1e-7, 1e-6, 1e-5, 1e-3, 1e-2):
                for i in range(3):
                    rho = noisy(products(rng.dirichlet(np.ones(k)), n, m, rng), eps)
                    yield f"products/{n}x{m}/k{k}/{eps:.0e}/{i}", rho, n, m
        for weight in (0.3, 0.5, 0.7, 0.9):
            for i in range(3):
                rho = noisy(random_density(n * m, n * m, rng), weight)
                yield f"noisy/{n}x{m}/{weight}/{i}", rho, n, m
    for dim in (3, 4):
        for eps in (1e-4, 1e-6):
            rho = np.eye(dim * dim) * eps / dim ** 2
            rho[0, 0] += 1.0 - eps
            yield f"stall/{dim}x{dim}/{eps:.0e}", rho, dim, dim
    for frame in range(30):
        yield f"ill-conditioned/{frame}", ill_conditioned_product(frame), 3, 3
    for seed in range(40):
        yield f"short-of-normal-form/{seed}", noisy(products((0.4, 0.6), 2, 3, seed), 3e-8), 2, 3
    for seed in range(10):
        yield f"nested-support/{seed}", nested_support(seed), 3, 3
    for seed in range(10):
        yield f"projected-filtered/{seed}", projected_filtered(seed), 3, 3
    for delta in (1e-9, 1e-10, 1e-12):
        for n, embedded in ((2, False), (3, True)):
            for seed in range(3):
                rho = in_frame(weakly_entangled(delta, embedded), n, n, "rotated",
                               np.random.default_rng(seed))
                yield f"weak-entanglement/{n}x{n}/{delta:.0e}/{seed}", rho, n, n
    for n, m in DIMS:
        for eps in (0.0, 3e-9, 1e-8, 2e-8):
            for seed in range(3):
                rho = noisy(products([1.0], n, m, seed), eps)
                yield f"near-products/{n}x{m}/{eps:.0e}/{seed}", rho, n, m
        for seed in range(3):
            yield f"near-products/{n}x{m}/off-ball/{seed}", off_ball_product(n, m, seed), n, m
    for dims in ((1, 3), (3, 1)):
        for seed in range(3):
            yield f"near-products/{dims[0]}x{dims[1]}/{seed}", random_density(3, 3, seed), *dims
    rng = np.random.default_rng(11)
    for i in range(20):
        rho, weight = ppt_boundary(1 + i % 4, rng)
        for shift in BOUNDARY_SHIFTS:
            yield f"qubit-boundary/{i}/{shift:+.0e}", noisy(rho, weight + shift), 2, 2
    for condition in (1e3, 1e6, 1e9):
        for seed in range(10):
            rho = filtered_product_mixture(condition, seed)
            yield f"qubit-boundary/filtered-products/{condition:.0e}/{seed}", rho, 2, 2


def in_ball(rho: np.ndarray) -> bool:
    """Whether rho lies in the Gurvits-Barnum ball: Tr rho^2 <= 1/(d - 1),
    that is ||rho - I/d||_F^2 = Tr rho^2 - 1/d <= 1/(d(d - 1))."""
    rho = np.asarray(rho)
    return float(np.vdot(rho, rho).real) <= 1.0 / (rho.shape[0] - 1.0)


def outcome(rho: np.ndarray, n: int, m: int) -> tuple[dict, float]:
    """A case's census entry and the seconds its ``analyze`` call took."""
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = analyze(rho, n, m)
    except Exception as exc:  # a raised case is a census entry like any other
        return {"error": f"{type(exc).__name__}: {exc}"}, time.perf_counter() - start
    seconds = time.perf_counter() - start
    dec = verdict.decomposition
    return {"status": verdict.status.value,
            "criteria": [[c.name, bool(c.passed), float(c.margin), c.detail]
                         for c in verdict.criteria],
            "probs": None if dec is None else [float(p) for p in dec.probs]}, seconds


def _status(entry: dict | None) -> str:
    """A census entry's status, "error" for a raised case, "absent" for none."""
    if entry is None:
        return "absent"
    return entry.get("status", "error")


def _last_criterion(entry: dict | None) -> str:
    """The name of the last criterion a census entry logged, or "-"."""
    criteria = (entry or {}).get("criteria") or [["-"]]
    return criteria[-1][0]


def _largest_change(pairs) -> float:
    """max |x - y| over the pairs, 0 for none; equal infinities do not change."""
    return max((abs(x - y) for x, y in pairs if x != y), default=0.0)


def _drift(before: dict | None, after: dict | None) -> tuple[float, float] | None:
    """The largest change of a probability and of a criterion margin between
    two verdicts with the same status, criterion names and number of
    probabilities, or None."""
    if not (before and after and "status" in before and "status" in after):
        return None
    probs = before["probs"] or [], after["probs"] or []
    if (before["status"] != after["status"] or len(probs[0]) != len(probs[1])
            or [c[0] for c in before["criteria"]] != [c[0] for c in after["criteria"]]):
        return None
    margins = [(c[2], d[2]) for c, d in zip(before["criteria"], after["criteria"])]
    return _largest_change(zip(*probs)), _largest_change(margins)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the census here as JSON")
    parser.add_argument("--against", type=Path, help="compare with this census")
    args = parser.parse_args(argv)
    census, seconds, inconclusive, gap = {}, Counter(), Counter(), Counter()
    for cid, rho, n, m in cases():
        census[cid], elapsed = outcome(rho, n, m)
        group = cid.split("/")[0]
        seconds[group] += elapsed
        if census[cid].get("status") == "inconclusive":
            inconclusive[group] += 1
            gap[group] += in_ball(rho)
    if args.out:
        args.out.write_text(json.dumps(census, indent=1) + "\n")
    print(f"{len(census)} cases")
    for group, total in seconds.items():
        print(f"{group:>24s}  {total:8.3f} s in analyze")
    for group, count in inconclusive.items():
        print(f"{group:>24s}  {gap[group]} of {count} INCONCLUSIVE inside the separable ball")
    print(f"{sum(gap.values())} of {sum(inconclusive.values())} INCONCLUSIVE cases lie inside "
          f"the separable ball")
    if args.against is None:
        return 0
    before = json.loads(args.against.read_text())
    differing = [cid for cid in sorted(census.keys() | before.keys())
                 if json.dumps(census.get(cid)) != json.dumps(before.get(cid))]
    for cid in differing:
        print(f"differs: {cid}\n  before: {json.dumps(before.get(cid))}\n"
              f"  after:  {json.dumps(census.get(cid))}")
    groups, drift = Counter(), {}
    for cid in differing:
        change = _drift(before.get(cid), census.get(cid))
        key = (_status(before.get(cid)), _status(census.get(cid)),
               _last_criterion(census.get(cid)), change is not None)
        groups[key] += 1
        if change is not None:
            drift[key] = tuple(map(max, drift.get(key, (0.0, 0.0)), change))
    for key, count in sorted(groups.items()):
        was, now, last, same_names = key
        line = f"{count:6d}  {was} -> {now}, last criterion {last}"
        if same_names:
            dp, dm = drift[key]
            line += f", names unchanged: max |dp| {dp:.2e}, max |d margin| {dm:.2e}"
        print(line)
    print(f"{len(differing)} differing cases")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
