#!/usr/bin/env python3
"""Pipeline benchmark for sephorn.

Drives the public API in one process, closed loop, one client, with BLAS
pinned to one thread.  Run from the repository root:

    python3 pipebench/run.py --workload qubit --seed 1 --seconds 8 --trace 0

Self-tests:  python3 -m pytest pipebench/tests -q

Workloads (``pipebench/corpus.py``): ``qubit``, ``qudit``, ``families`` and
``horn``; ``--workload all`` runs each, untraced and traced, and prints a
table.  ``--smoke`` shrinks every corpus for the self-tests.

A run imports sephorn from ``src/`` and makes a warm-up pass over the
seeded corpus, every call under a per-call budget (``sandbox.py``): a call
that raises, outlives the budget or gives an answer the oracle rejects
(``oracle.py``) fails, its side effects are rolled back, and it is not
retried.  Timed passes then repeat the cases that completed, in whole
passes, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over five fresh processes of the import time plus the wall time of the
warm-up calls that completed, scaled to the machine's reference speed by
``SpeedGauge`` readings taken just before and after the warm-up pass.  The
unscaled times, and the time of the failed calls, which mostly run to the
budget, are on the details line.  The four extra set-up processes skip the
cases that failed in this one: a failure is rolled back, so skipping it
leaves the same caches behind.  ``ops_per_s`` is completed timed calls over
their time.  A case's latency is the median time of its timed calls;
``latency_p50_ms`` and ``latency_tail_ms`` are the median and the tail over
cases, the tail being the highest percentile with ten cases beyond it.  A
call's time is the process's CPU time, all threads, scaled to reference
speed by ``SpeedGauge``; a case whose median wall time and median CPU time
differ by more than a factor WALL_RATIO (it waits, works in another process
or in parallel threads) is timed by wall time instead, scaled alike, and
listed on the details line.  ``completed_ratio`` is the share of corpus
cases that completed in the warm-up pass: one minus the fail ratio, which
the details line gives with each failed case id.  ``decided_ratio`` is the
share of completed verdicts that are not inconclusive.  The top-level
``attempted`` and ``failed`` count the timed calls, which only repeat cases
that completed.

``--trace 1`` wraps the pipeline's functions (``tracing.py``) and reports,
per function, calls, self time and errors over the warm-up pass plus one
timed pass, the derived counts, and ``trace_overhead``: the traced mean
call time over the untraced one, minus one, from two halves of the run.
Spans go to ``.pipebench_out/``.

The last line of standard output is the result object; the line before it
holds the details: environment, corpus digest, verdict fingerprint, failed
cases and the tail percentile with its sample count.  A verdict fingerprint
that differs between the set-ups of a run, or from an earlier run of the same
code and seed, makes ``correct`` false.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib.util import find_spec  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from pipebench import WORKLOADS  # noqa: E402
from pipebench.sandbox import (CallTimeout, Outcome, budget, peak_rss_mb,  # noqa: E402
                               settle_cpu_clock, warm_up)
from pipebench.tracing import Tracer, layer_metrics  # noqa: E402

OUT_DIR = ROOT / ".pipebench_out"
BUDGET_S = 4.0          # CPU s per call; the slowest cold call that completes,
                        # the n = 8 triple enumeration, takes about 2 s on a
                        # 2-vCPU virtual machine
SETUPS = 5              # fresh processes whose set-up times give the median
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
REFERENCE_S = 7e-4      # SpeedGauge reference workload time at nominal speed
CALIBRATE_EVERY_S = 0.05

WALL_RATIO = 1.5        # wall/CPU median ratio beyond which a case is timed by wall
DECIDED = ("separable", "entangled", "feasible", "infeasible")


def import_library():
    """Import sephorn from this checkout's src/; return it and the import time."""
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sephorn
    except ImportError as exc:
        raise SystemExit(f"pipebench: cannot import sephorn from {src}: {exc}")
    elapsed = time.perf_counter() - start
    if not Path(sephorn.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"pipebench: sephorn resolved to {sephorn.__file__}, not under {src}")
    return sephorn, elapsed


class Runner:
    """Runs one case under the budget and checks its answer.

    A call is timed by the process's CPU time, which counts every thread
    but not the preemptions a shared machine adds: on a 2-vCPU virtual
    machine, 1-8 ms stalls several times a second, which swamp
    sub-millisecond calls.  Its wall time is recorded too.  A warm-up call
    runs under the CPU budget; a timed call repeats one that completed, so
    it gets only the wall-clock backstop, which keeps the CPU clock exact.
    """

    def __init__(self, lib, tracer=None):
        from pipebench import oracle  # numpy: only once the library is imported
        self.lib = lib
        self.oracle = oracle
        self.tracer = tracer
        self.rebuilder = oracle.Rebuilder(lib.su.generator_basis)

    def _call(self, case):
        lib = self.lib
        if case.op == "analyze":
            return lambda: lib.analyze(case.rho, *case.dims)
        if case.op == "battery":
            return lambda: lib.horn.check_product_inequalities(*case.singulars)
        return lambda: lib.horn.all_triples(case.n)

    def _check(self, case, result) -> tuple[str, str]:
        oracle = self.oracle
        if case.op == "analyze":
            return result.status.value, oracle.check_verdict(
                result, case.rho, *case.dims, case.expect, self.rebuilder)
        if case.op == "battery":
            answer = "feasible" if result.feasible else "infeasible"
            return answer, oracle.check_battery(result, case.expect)
        return str(sum(len(ts) for ts in result)), oracle.check_triples(result, case.n)

    def run(self, index, case, timed=False) -> Outcome:
        if self.tracer:
            self.tracer.op = index
        call = self._call(case)
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            with budget(BUDGET_S, cpu=not timed):
                result = call()
            elapsed, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        except CallTimeout:
            return Outcome(case.id, "timeout", time.perf_counter() - start,
                           time.process_time() - start_cpu,
                           detail=f"over the {BUDGET_S:g} s budget")
        except Exception as exc:  # any library failure is a failed call
            return Outcome(case.id, "error", time.perf_counter() - start,
                           time.process_time() - start_cpu,
                           detail=f"{type(exc).__name__}: {exc}"[:300])
        answer, problem = self._check(case, result)
        return Outcome(case.id, "wrong" if problem else "ok", elapsed, cpu, answer, problem)


class SpeedGauge:
    """The machine's current speed, from a fixed reference workload.

    On a shared 2-vCPU virtual machine the CPU time of the same code
    drifts by up to a factor of 1.6 within seconds, as the other tenants of
    the host come and go.  Every CALIBRATE_EVERY_S of the timed passes the
    gauge times a reference workload, a few small eigensolves, products and
    interpreter loops like the library's own, and ``scale`` turns a CPU time
    into reference-speed time: cpu * REFERENCE_S / (median of the last five
    reference times).  ``reading`` gives the set-up's speed the same way.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._herm = []
        for dim in (4, 16):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            self._herm.append(a + a.conj().T)
        self._mat = rng.normal(size=(8, 8))
        self._eigvalsh = np.linalg.eigvalsh
        self.samples: list[float] = []
        self._next = 0.0
        self._current = REFERENCE_S

    def _work(self) -> float:
        acc = 0.0
        for k in range(30):
            w = self._eigvalsh(self._herm[k % 5 == 0])
            m = self._mat @ self._mat
            acc += float(w[0]) + float(m[0, 0])
            for j in range(60):
                acc += j * 0.5
        return acc

    def tick(self) -> None:
        """Time the reference workload if CALIBRATE_EVERY_S have passed."""
        now = time.perf_counter()
        if now < self._next:
            return
        start = time.thread_time()  # exact even while a process CPU timer ticks
        self._work()
        self.samples.append(time.thread_time() - start)
        self._current = statistics.median(self.samples[-5:])
        self._next = now + CALIBRATE_EVERY_S

    def scale(self, cpu: float) -> float:
        return cpu * REFERENCE_S / self._current

    def reading(self, samples: int = 9) -> float:
        """The median time of the reference workload, run ``samples`` times now."""
        self._work()
        times = []
        for _ in range(samples):
            start = time.thread_time()
            self._work()
            times.append(time.thread_time() - start)
        return statistics.median(times)


def set_up(import_s, cases, runner, tracer=None):
    """The warm-up pass, with speed readings before and after it.

    Returns the outcomes, replay notes and peak RSS of ``warm_up``, then the
    set-up's wall time (import plus the calls that completed) and that time
    at reference speed, scaled by the mean of the two readings.
    """
    gauge = SpeedGauge()
    before = gauge.reading()
    outcomes, notes, peak = warm_up(cases, runner.run, tracer)
    after = gauge.reading()
    wall = import_s + sum(o.elapsed for o in outcomes if not o.failed)
    return outcomes, notes, peak, wall, wall * REFERENCE_S / ((before + after) / 2)


def fingerprint(outcomes) -> str:
    text = "\n".join(f"{o.case}:{o.kind}:{o.answer}" for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "pipebench").glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": find_spec("numba") is not None,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(durations) -> tuple[float, float]:
    """Value with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Timed:
    """The timed passes: reference-speed CPU and wall time of each completed
    call, grouped by case, plus failed calls and verdicts that changed since
    the warm-up."""

    cpu: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    changed: list = field(default_factory=list)
    passes: int = 0

    def wall_timed(self) -> set:
        """Cases whose median wall and CPU times differ by more than WALL_RATIO."""
        out = set()
        for i, cpu in self.cpu.items():
            ratio = statistics.median(self.wall[i]) / max(statistics.median(cpu), 1e-9)
            if not 1 / WALL_RATIO <= ratio <= WALL_RATIO:
                out.add(i)
        return out

    @property
    def per_case(self) -> dict:
        by_wall = self.wall_timed()
        return {i: self.wall[i] if i in by_wall else cpu for i, cpu in self.cpu.items()}

    @property
    def times(self) -> list[float]:
        return [t for times in self.per_case.values() for t in times]

    def merge(self, other: "Timed") -> "Timed":
        def join(a, b):
            return {i: a.get(i, []) + b.get(i, []) for i in a.keys() | b.keys()}
        return Timed(join(self.cpu, other.cpu), join(self.wall, other.wall),
                     self.failures + other.failures, self.changed + other.changed,
                     self.passes + other.passes)


def timed_passes(runner, cases, outcomes, seconds, gauge, tracer=None) -> Timed:
    """Whole passes over the cases that completed the warm-up, for ``seconds``."""
    active = [i for i, (c, o) in enumerate(zip(cases, outcomes)) if c.timed and not o.failed]
    timed = Timed()
    deadline = time.perf_counter() + seconds
    while active:
        timed.passes += 1
        if tracer:
            tracer.phase = timed.passes
        for i in list(active):
            gauge.tick()
            out = runner.run(i, cases[i], timed=True)
            if out.failed:
                timed.failures.append(out)
                active.remove(i)
                continue
            timed.cpu.setdefault(i, []).append(gauge.scale(out.cpu))
            timed.wall.setdefault(i, []).append(gauge.scale(out.elapsed))
            if out.answer != outcomes[i].answer:
                timed.changed.append(f"{out.case}: {outcomes[i].answer} -> {out.answer}")
        if time.perf_counter() >= deadline:
            break
    return timed


def extra_setups(args, count, skip) -> list[dict]:
    """Set-up in ``count`` fresh processes that skip the case indices ``skip``;
    their times and fingerprints."""
    out = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", "--skip", *map(str, skip)] \
            + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"pipebench: set-up process failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def check_stored_fingerprint(key: str, value: str) -> str:
    """Compare with an earlier run of the same code and seed; store this one."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "fingerprints.json"
    try:
        stored = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        stored = {}
    earlier = stored.get(key)
    if earlier is None:
        stored[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return ""
    return "" if earlier == value else f"fingerprint {value[:12]} differs from {earlier[:12]}"


def end_to_end(args, cases, outcomes, timed, setup, peak, details) -> dict:
    skip = [i for i, o in enumerate(outcomes) if o.failed]
    others = extra_setups(args, (2 if args.smoke else SETUPS) - 1, skip)
    setups = [setup[1]] + [o["setup_s"] for o in others]
    completed = [o for o in outcomes if not o.failed]
    for o in others:
        if o["fingerprint"] != fingerprint(completed) \
                or o["digest"] != details["corpus_digest"]:
            details["problems"].append("fingerprint or corpus digest differs between set-ups")
        details["problems"] += o["notes"]
    verdicts = [o for c, o in zip(cases, outcomes) if c.op != "triples" and not o.failed]
    decided = [o for o in verdicts if o.answer in DECIDED]
    times = timed.times
    latency = [statistics.median(t) for t in timed.per_case.values()]
    p50 = statistics.median(latency) if latency else 0.0
    p_tail, pct = tail(latency) if latency else (0.0, 0.0)
    details.update(setup_samples_s=setups,
                   setup_wall_samples_s=[setup[0]] + [o["setup_wall_s"] for o in others],
                   latency_tail_percentile=pct,
                   latency_samples=len(latency),
                   wall_timed_cases=sorted(cases[i].id for i in timed.wall_timed()))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_tail_ms": (1e3 * p_tail, "ms"),
        "completed_ratio": (len(completed) / len(cases), "ratio"),
        "decided_ratio": (len(decided) / len(verdicts) if verdicts else 0.0, "ratio"),
        "peak_rss_mb": (max(peak, peak_rss_mb()), "MB"),
    }


def per_layer(args, tracer, outcomes, plain: Timed, traced: Timed, details) -> dict:
    failed = frozenset(i for i, o in enumerate(outcomes) if o.failed)
    metrics = layer_metrics(tracer.spans, traced.passes, failed_ops=failed)
    mean_plain = statistics.fmean(plain.times) if plain.times else 0.0
    mean_traced = statistics.fmean(traced.times) if traced.times else 0.0
    metrics["trace_overhead"] = (mean_traced / mean_plain - 1.0 if mean_plain else 0.0,
                                 "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    details["spans"] = span_file.relative_to(ROOT).as_posix()
    return metrics


def setup_only(args) -> int:
    """One set-up, without the cases ``--skip`` names; prints its time and the
    fingerprint of its verdicts."""
    lib, import_s = import_library()
    from pipebench import corpus

    cases = corpus.build(args.workload, args.seed, smoke=args.smoke)
    digest = corpus.digest(cases)
    skip = set(args.skip)
    cases = [c for i, c in enumerate(cases) if i not in skip]
    outcomes, notes, _, wall, setup_s = set_up(import_s, cases, Runner(lib))
    print(json.dumps({"setup_s": setup_s, "setup_wall_s": wall,
                      "fingerprint": fingerprint(outcomes), "digest": digest, "notes": notes}))
    return 0


def measure(args) -> int:
    lib, import_s = import_library()
    from pipebench import corpus

    cases = corpus.build(args.workload, args.seed, smoke=args.smoke)
    tracer = Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    runner = Runner(lib, tracer)
    outcomes, replay_notes, peak, setup_wall_s, setup_s = set_up(import_s, cases, runner, tracer)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "budget_s": BUDGET_S,
        "corpus_digest": corpus.digest(cases), "verdict_fingerprint": fingerprint(outcomes),
        "problems": [f"{o.case}: {o.detail}" for o in outcomes if o.kind == "wrong"]
        + replay_notes,
    }
    settle_cpu_clock()
    gauge = SpeedGauge()
    if args.trace:
        tracer.uninstall()
        plain = timed_passes(runner, cases, outcomes, args.seconds / 2, gauge)
        tracer.install()
        traced = timed_passes(runner, cases, outcomes, args.seconds / 2, gauge, tracer)
        tracer.uninstall()
        timed = plain.merge(traced)
        metrics = per_layer(args, tracer, outcomes, plain, traced, details)
        details["missing_layers"] = missing
    else:
        timed = timed_passes(runner, cases, outcomes, args.seconds, gauge)
        metrics = end_to_end(args, cases, outcomes, timed, (setup_wall_s, setup_s), peak,
                             details)

    failed = [o for o in outcomes if o.failed]
    details.update(
        environment=environment(), import_s=import_s,
        cases=len(cases), fail_ratio=len(failed) / len(cases),
        failed_cases=[f"{o.case}: {o.kind} {o.detail}".strip() for o in failed],
        failed_warmup_s=sum(o.elapsed for o in failed),
        slowest_warmup_s={o.case: round(o.elapsed, 4)
                          for o in sorted(outcomes, key=lambda o: -o.elapsed)[:5]},
        timed_passes=timed.passes, timed_calls=len(timed.times) + len(timed.failures),
        reference_ms={"nominal": 1e3 * REFERENCE_S,
                      "median": 1e3 * statistics.median(gauge.samples) if gauge.samples else None},
    )
    problems = details["problems"]
    problems += [f"{o.case}: {o.detail}" for o in timed.failures if o.kind == "wrong"]
    problems += [f"verdict changed in a timed pass: {c}" for c in timed.changed]
    if not timed.times:
        problems.append("no timed call completed")
    key = f"{args.workload}|{args.seed}|{int(args.smoke)}|{code_digest()}"
    stored = check_stored_fingerprint(key, details["verdict_fingerprint"])
    if stored:
        problems.append(stored)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(timed.times) + len(timed.failures),
        "failed": len(timed.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, as separate processes."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[f"{workload}/trace{trace}"] = {"details": json.loads(lines[-2]),
                                                   "result": json.loads(lines[-1])}
    for key, res in results.items():
        print(f"== {key}  correct={res['result']['correct']}  "
              f"attempted={res['result']['attempted']}  failed={res['result']['failed']}")
        for name, m in res["result"]["metrics"].items():
            if key.endswith("trace1") and m["value"] == 0:
                continue
            print(f"   {name:48s} {m['value']:14.6g} {m['unit']}")
        for failed in res["details"]["failed_cases"] if key.endswith("trace0") else ():
            print(f"   failed: {failed}")
    print(json.dumps(results))
    return 0 if all(r["result"]["correct"] for r in results.values()) else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny corpora, for the self-tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--skip", type=int, nargs="*", default=[], help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return setup_only(args) if args.setup_only else measure(args)


if __name__ == "__main__":
    sys.exit(main())
