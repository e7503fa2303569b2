"""Self-tests of the pipeline benchmark.

Run from the repository root:  python3 -m pytest pipebench/tests -q
"""

import json
import shutil
import subprocess
import sys
import textwrap
import time
import types
from pathlib import Path

import numpy as np
import pytest

from pipebench import corpus, oracle
from pipebench.run import Timed, tail
from pipebench.sandbox import CallTimeout, budget
from pipebench.tracing import Span, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tracing -----------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines rec/leaf; fakepkg.user imports leaf by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    exec(textwrap.dedent("""
        def leaf(x):
            return x + 1

        def rec(n):
            if n == 0:
                return leaf(0)
            return rec(n - 1) + leaf(n)

        def boom():
            raise ValueError("boom")
    """), core.__dict__)
    for f in ("leaf", "rec", "boom"):
        getattr(core, f).__module__ = "fakepkg.core"
    user.leaf = core.leaf
    user.twice = lambda x: user.leaf(user.leaf(x))
    pkg.rec = core.rec
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg, core, user


def test_self_time_accounts_for_recursion(fake_package):
    pkg, core, user = fake_package
    tracer = Tracer("fakepkg", ("core.rec", "core.leaf", "core.gone"))
    assert tracer.install() == ["core.gone"]
    pkg.rec(4)
    spans = [s for s in tracer.spans if s is not None]
    assert sum(s.name == "core.rec" for s in spans) == 5
    assert sum(s.name == "core.leaf" for s in spans) == 5
    outer = next(s for s in spans if s.parent == -1)
    assert sum(s.self_s for s in spans) == pytest.approx(outer.end - outer.start, abs=1e-9)
    assert all(s.self_s >= 0 for s in spans)
    metrics = layer_metrics(spans, 0, tracer.layers)
    assert metrics["core.rec.calls"][0] == 5
    assert metrics["core.gone.calls"][0] == 0
    tracer.uninstall()
    assert core.rec.__name__ == "rec" and not hasattr(core.rec, "__wrapped__")


def test_every_binding_is_wrapped_and_errors_counted(fake_package):
    pkg, core, user = fake_package
    tracer = Tracer("fakepkg", ("core.leaf", "core.boom"))
    tracer.install()
    user.twice(1)
    with pytest.raises(ValueError):
        core.boom()
    tracer.uninstall()
    metrics = layer_metrics(tracer.spans, 0, tracer.layers)
    assert metrics["core.leaf.calls"][0] == 2
    assert metrics["core.boom.errors"][0] == 1


def test_layer_metrics_average_timed_passes():
    def span(phase, name="m.f", self_s=1.0):
        return Span(0, phase, name, 0.0, self_s, -1, False, self_s, ())
    spans = [span(0, self_s=5.0)] + [span(p) for p in (1, 1, 2, 2, 3, 3)]
    metrics = layer_metrics(spans, 3, ("m.f",))
    assert metrics["m.f.calls"][0] == 3
    assert metrics["m.f.self_s"][0] == pytest.approx(7.0)


# -- budgets and the rolled-back warm-up -------------------------------------

def test_budget_interrupts_python_loop():
    start = time.perf_counter()
    with pytest.raises(CallTimeout):
        with budget(0.05):
            while True:
                pass
    assert time.perf_counter() - start < 1.0


def test_wall_only_budget_still_stops_a_call():
    start = time.perf_counter()
    with pytest.raises(CallTimeout):
        with budget(0.05, cpu=False):
            while True:
                pass
    assert 0.15 <= time.perf_counter() - start < 1.0


WARMUP_SCRIPT = textwrap.dedent("""
    import json, sys, time
    sys.path.insert(0, sys.argv[1])
    from pipebench.sandbox import CallTimeout, Outcome, budget, warm_up

    CACHE = {}

    def run(index, case):
        start = time.perf_counter()
        try:
            with budget(0.1):
                if case == "fill-then-hang":
                    CACHE["hot"] = True
                    while True:
                        pass
                if case == "raise":
                    CACHE["raised"] = True
                    raise ValueError("no")
                answer = "warm" if CACHE else "cold"
        except CallTimeout:
            return Outcome(case, "timeout", time.perf_counter() - start)
        except ValueError:
            return Outcome(case, "error", time.perf_counter() - start)
        return Outcome(case, "ok", time.perf_counter() - start, answer=answer)

    cases = ["a", "fill-then-hang", "b", "raise", "c"]
    outcomes, notes, _ = warm_up(cases, run, batch_cases=2)
    print(json.dumps([[o.case, o.kind, o.answer] for o in outcomes] + [notes]))
""")


def test_failed_case_leaves_no_cache_behind(tmp_path):
    script = tmp_path / "warm.py"
    script.write_text(WARMUP_SCRIPT)
    proc = subprocess.run([sys.executable, str(script), str(ROOT)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *rows, notes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rows == [["a", "ok", "cold"], ["fill-then-hang", "timeout", ""],
                    ["b", "ok", "cold"], ["raise", "error", ""], ["c", "ok", "cold"]]
    assert notes == []


# -- corpus, oracle, statistics ----------------------------------------------

@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_seeded(workload):
    a = corpus.digest(corpus.build(workload, 7))
    assert a == corpus.digest(corpus.build(workload, 7))
    assert a != corpus.digest(corpus.build(workload, 8))


def test_corpus_states_are_states():
    for workload in ("qubit", "qudit", "families"):
        for case in corpus.build(workload, 3):
            rho = case.rho
            assert np.allclose(rho, rho.conj().T, atol=1e-12), case.id
            assert abs(np.trace(rho) - 1) < 1e-12, case.id
            assert np.linalg.eigvalsh(rho)[0] > -1e-12, case.id


def test_family_labels_match_partial_transpose():
    for case in corpus.build("families", 3):
        n, m = case.dims
        low = np.linalg.eigvalsh(oracle.partial_transpose(case.rho, n, m))[0]
        assert (low < -1e-7) == (case.expect == corpus.ENTANGLED), case.id


def test_reference_verdicts():
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    assert oracle.reference_verdict(bell, 2, 2) == corpus.ENTANGLED
    assert oracle.reference_verdict(np.eye(4) / 4, 2, 2) == corpus.SEPARABLE
    assert oracle.reference_verdict(np.eye(9) / 9, 3, 3) == corpus.UNKNOWN


def test_rebuild_checks_decomposition():
    from sephorn.su import generator_basis
    rb = oracle.Rebuilder(generator_basis)
    rng = np.random.default_rng(0)
    states_a = [corpus.random_state(2, 2, rng) for _ in range(3)]
    states_b = [corpus.random_state(3, 3, rng) for _ in range(3)]
    probs = np.array([0.2, 0.3, 0.5])

    def bloch(rho, dim):
        return np.real(np.einsum("ij,mji->m", rho, generator_basis(dim).matrices))

    dec = types.SimpleNamespace(probs=probs,
                                r_vectors=np.array([bloch(r, 2) for r in states_a]),
                                s_vectors=np.array([bloch(s, 3) for s in states_b]))
    rho = sum(p * np.kron(a, b) for p, a, b in zip(probs, states_a, states_b))
    assert rb.check(dec, rho, 2, 3) == ""
    assert "residual" in rb.check(dec, rho + 1e-5 * np.eye(6), 2, 3)
    dec.r_vectors = dec.r_vectors * 3.0
    assert rb.check(dec, rho, 2, 3) != ""


def test_case_that_waits_is_timed_by_wall():
    timed = Timed(cpu={0: [1.0, 1.0, 1.0], 1: [1.0, 1.0, 1.0]},
                  wall={0: [1.1, 9.0, 1.0], 1: [2.0, 2.0, 9.0]})
    assert timed.wall_timed() == {1}
    assert timed.per_case == {0: [1.0, 1.0, 1.0], 1: [2.0, 2.0, 9.0]}


def test_tail_keeps_ten_samples_beyond():
    value, pct = tail(list(range(100)))
    assert value == 89 and pct == pytest.approx(90.0)
    assert tail([3.0, 1.0]) == (3.0, 100.0)


# -- the command, end to end -------------------------------------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "pipebench/run.py"] + args, capture_output=True,
                          text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run_prints_the_result_line(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_setup_only_skips_the_named_cases():
    def setup(*skip):
        proc = _run(["--workload", "qubit", "--seed", "5", "--smoke", "--setup-only",
                     "--skip", *map(str, skip)])
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    full, skipped = setup(), setup(0, 1)
    assert full["digest"] == skipped["digest"]
    assert full["fingerprint"] != skipped["fingerprint"]
    assert skipped["fingerprint"] == setup(0, 1)["fingerprint"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "pipebench", tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run(["--workload", "qubit", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
