#!/usr/bin/env python3
"""Alternated benchmark pairs of two checkouts, judged by the claim rule.

Runs ``pipebench/run.py --trace 0`` in checkout PARENT and in checkout
CHANGE, one run each per pair and each as long as the ``run_seconds`` of
``BENCHMARK.json``, alternating which side runs first, and
prints each run's end-to-end metrics as it ends.  Then, for each end-to-end
metric that ``BENCHMARK.json`` declares, it prints each side's median and
quartiles, how many pairs the change won (ties count for neither side) and
two verdicts:

- ``claim``: whether a gain may be claimed.  The change must win at least
  nine tenths of the pairs, and its median must beat the parent's by more
  than the parent's interquartile range.
- ``bound``: ``worse`` when the change's median is worse than the parent's
  by more than the metric's relative bound; otherwise ``unresolved`` when
  either side's interquartile range exceeds the bound (relative to the
  parent's median) and not every run of the change beats every run of the
  parent; otherwise ``within``.

It also prints each side's failed share of the timed calls, and whether
every run's ``correct`` held.  A run that exits non-zero, or whose last
line is not a result object, ends the loop: its stderr tail is printed,
the pairs completed before it are summarized, and the script exits 1.
Run from the repository root, with two checkouts made by ``git clone`` or
``git archive``:

    python3 tools/pairs.py ../parent . --workload horn --pairs 10 --seed 23

The run length, bounds and directions come from the ``BENCHMARK.json`` of
the CHANGE checkout; nothing under ``pipebench/`` is written by this
script, though each run leaves its ``.pipebench_out/`` in its checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric over pairs: ``parent[i]`` and ``change[i]`` are
    the two runs of pair i.  ``better`` is ``"higher"`` or ``"lower"`` and
    ``bound`` the relative worsening the benchmark allows."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    scale = abs(p_med) or 1.0
    claim = wins >= 0.9 * len(parent) and gain > p_q3 - p_q1
    every_run_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if gain < -bound * scale:
        verdict = "worse"
    elif max(p_q3 - p_q1, c_q3 - c_q1) > bound * scale and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": len(parent), "relative": (c_med - p_med) / scale,
            "claim": claim, "bound": verdict}


class RunFailed(Exception):
    """A benchmark run that gave no result object; the message holds its
    exit code and stderr tail."""


STDERR_TAIL = 2000  # characters of a failed run's stderr that are printed


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; its result object, or
    RunFailed."""
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return result_of(proc.returncode, proc.stdout, proc.stderr)


def result_of(returncode: int, stdout: str, stderr: str) -> dict:
    """The result object on the last line of a run's ``stdout``; RunFailed
    with the exit code and the tail of ``stderr`` when the run exited
    non-zero or that line is not a JSON object."""
    lines = stdout.strip().splitlines()
    if returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if isinstance(result, dict):
            return result
    raise RunFailed(f"exit code {returncode}; stderr tail:\n{stderr[-STDERR_TAIL:]}")


def report(workload: str, seed: int, seconds: float, spec: list[dict], runs: dict) -> None:
    """Print the per-metric summary and the failure counts of the
    completed pairs in ``runs``."""
    pairs = len(runs["parent"])
    print(f"\n{workload}, seed {seed}, {pairs} pairs of {seconds:g} s")
    print(f"{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f" {'change':>8s} {'wins':>6s} claim bound")
    for metric in spec:
        name = metric["name"]
        row = summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                        [r["metrics"][name]["value"] for r in runs["change"]],
                        metric["better"], metric["bound"])
        cells = [f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
                 for q1, med, q3 in (row["parent"], row["change"])]
        print(f"{name:16s} {cells[0]:>34s} {cells[1]:>34s} {row['relative']:+8.1%}"
              f" {row['wins']:>2d}/{row['pairs']:<3d} {'yes' if row['claim'] else 'no':5s} "
              f"{row['bound']}")
    for side, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{side}: failed {failed}/{attempted} timed calls, "
              f"every run correct: {all(r['correct'] for r in results)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    runs = {"parent": [], "change": []}
    failure = None
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        done = {}
        for side in order:
            try:
                result = run(getattr(args, side), args.workload, args.seed, seconds)
            except RunFailed as exc:
                failure = f"pair {pair} {side} failed: {exc}"
                break
            done[side] = result
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in spec)
            print(f"pair {pair} {side:6s} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        if failure is not None:
            break
        for side, result in done.items():
            runs[side].append(result)

    if failure is not None:
        print(failure, file=sys.stderr)
    if runs["parent"]:
        report(args.workload, args.seed, seconds, spec, runs)
    else:
        print("no pair completed")
    return 1 if failure is not None else 0


if __name__ == "__main__":
    sys.exit(main())
