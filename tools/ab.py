#!/usr/bin/env python3
"""Per-case CPU time of two checkouts in one process, call by call.

Loads ``src/sephorn`` of checkout PARENT and of checkout CHANGE under
module names of their own (``sephorn_parent``, ``sephorn_change``), from
the files as they are, and builds one workload's corpus with
``pipebench.corpus``, read only, as ``tools/census.py`` does.  A warm-up
pass calls every case once on each side, under the benchmark's per-call
budget, and records its outcome: for ``analyze``, the status, every
criterion (name, passed, margin, detail) and the decomposition's
probabilities and vectors, compared through their JSON text, so that equal
means bit-identical, or the exception it raised.  Then ``--rounds`` timed
rounds call every timed case of the corpus that ran within the budget on
both sides, parent and change in turn, the side that goes
first alternating by round, each call timed by the CPU time of the one
thread that runs it (BLAS is pinned to one thread).

It prints each case's minimum on each side in microseconds, the sums of the
minima per group (a case id without its last component) and over the
whole pass, each side's median and tail over the per-case minima, by the
benchmark's own rule (``pipebench.run.tail``: the highest percentile with
``TAIL_BEYOND`` cases beyond it), so that a claim on ``latency_p50_ms`` or
``latency_tail_ms`` can be previewed call by call, then, per side, the
ids and minima of the cases at and beyond that tail, so that a tail claim
names the cases it moved, the minimum of
``qubit/mixed/05`` (a separable two-qubit verdict, on the qubit
workload), and every case whose outcome differs, in
a few lines: each side's status, number of components and criteria (name,
passed) and, where both verdicts log the same criterion names, the largest
change of a margin and of a probability and how many details differ.  It
ends, as ``tools/census.py --against`` does, with one line per group of
differing cases and its count: each change of status, the verdicts whose
criterion names or number of components changed, and those that differ
in their floats only, with the largest change of a margin and of a
probability over them.  Whole
benchmark runs drift with the machine's speed; two sides timed call by call
in one process see the same drift, and a minimum over rounds drops the
preemptions.  Run from the repository root, with two checkouts made by
``git clone`` or ``git archive``:

    python3 tools/ab.py ../parent . --workload qubit --rounds 200

``--only PREFIX`` keeps only the cases whose id starts with PREFIX, for
example ``qudit/3x3/mixed_inc``, so that one group is timed for longer in
the same time; the median and tail are then over those cases alone.
Exits 1 when an outcome differs, and 2 when no case id has the prefix.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATE = "qubit/mixed/05"
BUDGET_S = 4.0  # CPU seconds per warm-up call, as in the benchmark


def load(checkout: Path, name: str):
    """The package ``checkout/src/sephorn``, imported as ``name``."""
    package = Path(checkout) / "src" / "sephorn"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def caller(lib, case):
    """The call that the benchmark makes for ``case``, on ``lib``."""
    if case.op == "analyze":
        return lambda: lib.analyze(case.rho, *case.dims)
    if case.op == "battery":
        return lambda: lib.horn.check_product_inequalities(*case.singulars)
    return lambda: lib.horn.all_triples(case.n)


def fingerprint(case, result) -> str:
    """A case's outcome as JSON text, floats as their shortest repr."""
    if case.op == "analyze":
        dec = result.decomposition
        out = {"status": result.status.value,
               "criteria": [[c.name, bool(c.passed), float(c.margin), c.detail]
                            for c in result.criteria],
               "decomposition": None if dec is None else
               [dec.probs.tolist(), dec.r_vectors.tolist(), dec.s_vectors.tolist()]}
    elif case.op == "battery":
        out = repr(result)
    else:
        out = [[s.n, s.r, len(s)] for s in result]
    return json.dumps(out)


def group_of(case_id: str) -> str:
    """The case id without its last component."""
    return case_id.rsplit("/", 1)[0]


def minima(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each case's smallest sample."""
    return {cid: min(values) for cid, values in samples.items()}


def summarize(parent: dict[str, list[float]], change: dict[str, list[float]]) -> dict:
    """Per-case minima of both sides and their sums by group and over the
    pass, in case order, each as (parent, change)."""
    p_min, c_min = minima(parent), minima(change)
    cases = {cid: (p_min[cid], c_min[cid]) for cid in parent}
    groups: dict[str, tuple[float, float]] = {}
    for cid, (p, c) in cases.items():
        gp, gc = groups.get(group_of(cid), (0.0, 0.0))
        groups[group_of(cid)] = (gp + p, gc + c)
    total = (sum(p for p, _ in cases.values()), sum(c for _, c in cases.values()))
    return {"cases": cases, "groups": groups, "pass": total}


def latency(summary: dict, tail) -> dict[str, tuple[float, float, float]]:
    """Each side's (median, tail, tail percentile) over the per-case minima
    of a :func:`summarize` result, the tail by ``tail``, the benchmark's
    rule."""
    out = {}
    for i, side in enumerate(("parent", "change")):
        values = [pair[i] for pair in summary["cases"].values()]
        out[side] = (statistics.median(values), *tail(values))
    return out


def tail_cases(summary: dict, tail) -> dict[str, list[tuple[str, float]]]:
    """Each side's cases at and beyond its tail by ``tail``, the benchmark's
    rule, over the per-case minima of a :func:`summarize` result, as (case
    id, minimum), slowest first: the cases that set that side's tail."""
    out = {}
    for i, side in enumerate(("parent", "change")):
        values = {cid: pair[i] for cid, pair in summary["cases"].items()}
        edge = tail(list(values.values()))[0]
        out[side] = sorted(((cid, v) for cid, v in values.items() if v >= edge),
                           key=lambda item: -item[1])
    return out


def select(cases, prefix: str | None) -> list:
    """The cases whose id starts with ``prefix``; all of them for None."""
    return list(cases) if prefix is None else [c for c in cases if c.id.startswith(prefix)]


def differing(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """The cases, in parent order then the change's own, whose outcomes differ."""
    ids = list(parent) + [cid for cid in change if cid not in parent]
    return [cid for cid in ids if parent.get(cid) != change.get(cid)]


def _verdict(outcome: str | None) -> dict | None:
    """The analyze verdict a fingerprint holds, or None for an error, a
    timeout, a missing case or another op's outcome."""
    try:
        out = json.loads(outcome)
    except (TypeError, ValueError):
        return None
    return out if isinstance(out, dict) and "status" in out else None


def _brief(outcome: str | None) -> str:
    """An outcome in one line: a verdict's status, its number of
    components and its criteria as name and pass or FAIL; any other outcome
    cut to 160 characters."""
    verdict = _verdict(outcome)
    if verdict is None:
        text = str(outcome)
        return text if len(text) <= 160 else text[:157] + "..."
    dec = verdict["decomposition"]
    parts = [verdict["status"] + ("" if dec is None else f" ({len(dec[0])} components)")]
    parts += [f"{name} {'pass' if passed else 'FAIL'}" for name, passed, *_ in verdict["criteria"]]
    return "; ".join(parts)


def _largest_change(pairs) -> float:
    """max |x - y| over the pairs, 0 for none; equal infinities do not change."""
    return max((abs(x - y) for x, y in pairs if x != y), default=0.0)


def _kind(outcome: str | None) -> str:
    """An outcome's kind: a verdict's status, "timeout", "error", "absent"
    for a missing case, or "outcome" for another op's result."""
    verdict = _verdict(outcome)
    if verdict is not None:
        return verdict["status"]
    if outcome is None:
        return "absent"
    if outcome == "timeout" or outcome.startswith("error:"):
        return outcome.split(":")[0]
    return "outcome"


def _probabilities(verdict: dict) -> list[float]:
    """A verdict's component probabilities, none without a decomposition."""
    return [] if verdict["decomposition"] is None else verdict["decomposition"][0]


def grouped(parent: dict[str, str], change: dict[str, str], ids: list[str]) -> list[str]:
    """One line per group of the differing cases ``ids``, with its count, in
    this order: each change of status (of kind, for an outcome that is no
    verdict), other outcomes that differ with their kind unchanged,
    verdicts whose criterion names or number of components changed, and
    verdicts that differ in their floats only, with the largest change of a
    margin and of a probability over that group."""
    groups: dict[tuple[int, str], int] = {}
    floats, margin, prob = 0, 0.0, 0.0
    for cid in ids:
        before, after = parent.get(cid), change.get(cid)
        was, now = _kind(before), _kind(after)
        if was != now:
            key = 0, f"status changed: {was} -> {now}"
        elif _verdict(before) is None:
            key = 1, f"outcome changed, still {was}"
        else:
            before, after = _verdict(before), _verdict(after)
            probs = _probabilities(before), _probabilities(after)
            if ([c[0] for c in before["criteria"]] != [c[0] for c in after["criteria"]]
                    or len(probs[0]) != len(probs[1])):
                key = 2, "criterion names or number of components changed"
            else:
                floats += 1
                margin = max(margin, _largest_change(
                    (b[2], a[2]) for b, a in zip(before["criteria"], after["criteria"])))
                prob = max(prob, _largest_change(zip(*probs)))
                continue
        groups[key] = groups.get(key, 0) + 1
    lines = [f"{count:6d}  {label}" for (_, label), count in sorted(groups.items())]
    if floats:
        lines.append(f"{floats:6d}  floats only: max |d margin| {margin:.2e}, "
                     f"max |dp| {prob:.2e}")
    return lines


def compact_diff(parent: str | None, change: str | None) -> list[str]:
    """The lines that show how two outcomes of a case differ: each side in
    brief and, when both are verdicts with the same criterion names, the
    largest change of a margin and, for the same number of components, of
    a probability, and the number of details that differ."""
    lines = [f"  parent: {_brief(parent)}", f"  change: {_brief(change)}"]
    before, after = _verdict(parent), _verdict(change)
    if before is None or after is None or (
            [c[0] for c in before["criteria"]] != [c[0] for c in after["criteria"]]):
        return lines
    pairs = list(zip(before["criteria"], after["criteria"]))
    line = f"  names unchanged: max |d margin| {_largest_change((b[2], a[2]) for b, a in pairs):.2e}"
    probs = _probabilities(before), _probabilities(after)
    if len(probs[0]) == len(probs[1]):
        line += f", max |dp| {_largest_change(zip(*probs)):.2e}"
    details = sum(b[3] != a[3] for b, a in pairs)
    return lines + [line + f", {details} of {len(pairs)} details differ"]


def _row(label: str, pair: tuple[float, float]) -> str:
    p, c = pair
    rel = (c - p) / p if p else 0.0
    return f"{label:40s} {p * 1e6:12.1f} {c * 1e6:12.1f} {rel:+8.1%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--only", metavar="PREFIX",
                        help="time only the cases whose id starts with PREFIX")
    args = parser.parse_args(argv)

    # BLAS on one thread, as in the benchmark, before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT))
    from pipebench import corpus
    from pipebench.run import tail
    from pipebench.sandbox import CallTimeout, budget

    sides = {"parent": load(args.parent, "sephorn_parent"),
             "change": load(args.change, "sephorn_change")}
    cases = select(corpus.build(args.workload, args.seed), args.only)
    if not cases:
        print(f"no {args.workload} case id starts with {args.only!r}")
        return 2
    outcomes = {side: {} for side in sides}
    completed = []
    for case in cases:
        ok = True
        for side, lib in sides.items():
            try:
                with budget(BUDGET_S):
                    outcomes[side][case.id] = fingerprint(case, caller(lib, case)())
            except CallTimeout:
                outcomes[side][case.id], ok = "timeout", False
            except Exception as exc:  # a raised case is an outcome like any other
                outcomes[side][case.id] = f"error: {type(exc).__name__}: {exc}"
        if ok and case.timed:
            completed.append(case)

    samples = {side: {case.id: [] for case in completed} for side in sides}
    calls = {side: [(case.id, caller(lib, case)) for case in completed]
             for side, lib in sides.items()}
    # the thread's CPU clock: after the warm-up's CPU-time budget, the
    # process clock can read in scheduler ticks for a while
    clock = time.thread_time
    for rnd in range(args.rounds):
        order = ("parent", "change") if rnd % 2 == 0 else ("change", "parent")
        for i in range(len(completed)):
            for side in order:
                cid, call = calls[side][i]
                start = clock()
                try:
                    call()
                except Exception:  # its outcome is recorded; only its time counts here
                    pass
                samples[side][cid].append(clock() - start)

    summary = summarize(samples["parent"], samples["change"])
    print(f"{args.workload}, seed {args.seed}, {len(completed)} of {len(cases)} cases timed, "
          f"{args.rounds} rounds; minimum CPU time per call")
    print(f"{'case':40s} {'parent µs':>12s} {'change µs':>12s} {'change':>8s}")
    for cid, pair in summary["cases"].items():
        print(_row(cid, pair))
    print("\ngroup sums of the minima")
    for group, pair in summary["groups"].items():
        print(_row(group, pair))
    print(_row("pass", summary["pass"]))
    if summary["cases"]:
        spread = latency(summary, tail)
        print("\nover the per-case minima, by the benchmark's rule")
        print(_row("p50", (spread["parent"][0], spread["change"][0])))
        print(_row(f"tail (p{spread['parent'][2]:.4g})",
                   (spread["parent"][1], spread["change"][1])))
        for side, named in tail_cases(summary, tail).items():
            print(f"\n{side}: cases at and beyond its tail, slowest first")
            for cid, value in named:
                print(f"  {cid:38s} {value * 1e6:12.1f}")
    if GATE in summary["cases"]:
        p, c = summary["cases"][GATE]
        print(f"\n{GATE} minimum: parent {p * 1e6:.1f} µs, change {c * 1e6:.1f} µs")
    diff = differing(outcomes["parent"], outcomes["change"])
    for cid in diff:
        print(f"differs: {cid}", *compact_diff(outcomes["parent"].get(cid),
                                               outcomes["change"].get(cid)), sep="\n")
    if diff:
        print("\ndiffering cases by group")
        print(*grouped(outcomes["parent"], outcomes["change"], diff), sep="\n")
    print(f"{len(diff)} differing cases")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
