import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_group_drops_the_last_component():
    assert ab.group_of("qubit/mixed/05") == "qubit/mixed"
    assert ab.group_of("families/3/werner/kyfan/plain") == "families/3/werner/kyfan"
    assert ab.group_of("solo") == "solo"


def test_summary_takes_minima_and_sums_them_by_group_and_pass():
    parent = {"q/a/0": [3.0, 1.0, 2.0], "q/a/1": [5.0, 4.0], "q/b/0": [10.0, 9.0]}
    change = {"q/a/0": [0.5, 0.9, 0.7], "q/a/1": [4.5, 6.0], "q/b/0": [9.5, 12.0]}
    summary = ab.summarize(parent, change)
    assert summary["cases"] == {"q/a/0": (1.0, 0.5), "q/a/1": (4.0, 4.5), "q/b/0": (9.0, 9.5)}
    assert list(summary["cases"]) == ["q/a/0", "q/a/1", "q/b/0"]
    assert summary["groups"] == {"q/a": (5.0, 5.0), "q/b": (9.0, 9.5)}
    assert summary["pass"] == (14.0, 14.5)


def test_differing_lists_changed_missing_and_new_cases_in_order():
    parent = {"a": '{"status": "separable"}', "b": '"x"', "c": '"y"'}
    change = {"a": '{"status": "separable"}', "b": '"z"', "d": '"w"'}
    assert ab.differing(parent, change) == ["b", "c", "d"]
    assert ab.differing(parent, dict(parent)) == []


class _Criterion:
    def __init__(self, margin):
        self.name, self.passed, self.margin, self.detail = "ppt", True, margin, "d"


class _Status:
    value = "separable"


class _Verdict:
    status = _Status()
    decomposition = None

    def __init__(self, margin):
        self.criteria = (_Criterion(margin),)


class _Case:
    op = "analyze"


def test_fingerprint_tells_floats_apart_bit_for_bit():
    one = ab.fingerprint(_Case, _Verdict(0.1 + 0.2))
    assert one == ab.fingerprint(_Case, _Verdict(0.30000000000000004))
    assert one != ab.fingerprint(_Case, _Verdict(0.3))


def test_row_gives_microseconds_and_the_relative_change():
    row = ab._row("qubit/mixed/05", (150e-6, 135e-6))
    assert row.split()[1:] == ["150.0", "135.0", "-10.0%"]


@pytest.mark.parametrize("pair", [(0.0, 0.0), (0.0, 1e-6)])
def test_row_of_a_zero_parent(pair):
    assert ab._row("x", pair).split()[-1] == "+0.0%"


def _outcome(status, criteria, probs=None):
    dec = None if probs is None else [probs, [[0.0]] * len(probs), [[0.0]] * len(probs)]
    return json.dumps({"status": status, "criteria": criteria, "decomposition": dec})


def test_compact_diff_of_verdicts_with_other_criteria():
    parent = _outcome("separable", [["ppt", True, 0.0, "a"], ["kyfan-sufficient", False, 0.5, "b"],
                                    ["decomposition[family]", True, 1e-16, "c"]], [0.5, 0.5])
    change = _outcome("separable", [["ppt", True, 0.0, "a"],
                                    ["decomposition[family]", True, 2e-16, "c"]], [1.0])
    assert ab.compact_diff(parent, change) == [
        "  parent: separable (2 components); ppt pass; kyfan-sufficient FAIL; "
        "decomposition[family] pass",
        "  change: separable (1 components); ppt pass; decomposition[family] pass"]


def test_compact_diff_of_verdicts_with_the_same_criteria():
    parent = _outcome("inconclusive", [["ppt", True, 3e-10, "min eigenvalue -3.000e-10"],
                                       ["kyfan-sufficient", False, float("inf"), "x"]])
    change = _outcome("inconclusive", [["ppt", True, 0.0, "certified"],
                                       ["kyfan-sufficient", False, float("inf"), "x"]])
    assert ab.compact_diff(parent, change)[2] == (
        "  names unchanged: max |d margin| 3.00e-10, max |dp| 0.00e+00, 1 of 2 details differ")
    parent = _outcome("separable", [["ppt", True, 0.0, "a"]], [0.25, 0.75])
    change = _outcome("separable", [["ppt", True, 0.0, "a"]], [0.25 + 1e-12, 0.75])
    assert ab.compact_diff(parent, change)[2] == (
        "  names unchanged: max |d margin| 0.00e+00, max |dp| 1.00e-12, 0 of 1 details differ")
    # another number of components: no probability is compared
    change = _outcome("separable", [["ppt", True, 0.0, "a"]], [1.0])
    assert ab.compact_diff(parent, change)[2] == (
        "  names unchanged: max |d margin| 0.00e+00, 0 of 1 details differ")


def test_compact_diff_of_other_outcomes():
    verdict = _outcome("entangled", [["ppt", False, 0.5, "min eigenvalue -5.000e-01"]])
    assert ab.compact_diff("timeout", verdict) == [
        "  parent: timeout", "  change: entangled; ppt FAIL"]
    long_error = "error: NotAState: " + "x" * 300
    lines = ab.compact_diff(long_error, None)
    assert lines == [f"  parent: {long_error[:157]}...", "  change: None"]
    # a battery's repr and a triple set's list are shown as they are
    assert ab.compact_diff('"Report(ok)"', "[[3, 1, 4]]") == [
        '  parent: "Report(ok)"', "  change: [[3, 1, 4]]"]


def _tail(values, beyond=2):
    """The benchmark's tail rule with ``beyond`` samples above the tail."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        return ordered[-1], 100.0
    return ordered[len(ordered) - beyond - 1], 100.0 * (len(ordered) - beyond) / len(ordered)


def test_latency_reads_median_and_tail_of_the_minima():
    parent = {f"q/a/{i}": [float(i), float(i) + 5.0] for i in range(1, 6)}
    change = {f"q/a/{i}": [float(i) / 2.0] for i in range(1, 6)}
    spread = ab.latency(ab.summarize(parent, change), _tail)
    # minima 1..5: median 3, and with two cases beyond the tail, 3 at p60
    assert spread["parent"] == (3.0, 3.0, 60.0)
    assert spread["change"] == (1.5, 1.5, 60.0)


def test_latency_uses_the_benchmarks_tail_rule(monkeypatch):
    monkeypatch.syspath_prepend(str(ab.ROOT))
    from pipebench.run import TAIL_BEYOND, tail
    parent = {f"c/{i}": [float(i)] for i in range(TAIL_BEYOND + 10)}
    spread = ab.latency(ab.summarize(parent, parent), tail)
    assert spread["parent"][1] == 9.0 and spread["parent"] == spread["change"]


class _Id:
    def __init__(self, cid):
        self.id = cid


def test_select_keeps_the_cases_under_a_prefix():
    cases = [_Id(cid) for cid in ("qudit/3x3/mixed_inc/0", "qudit/3x3/mixed_sep/0",
                                  "qudit/3x4/mixed_inc/0")]
    assert [c.id for c in ab.select(cases, "qudit/3x3/mixed_inc")] == ["qudit/3x3/mixed_inc/0"]
    assert [c.id for c in ab.select(cases, "qudit/3x4")] == ["qudit/3x4/mixed_inc/0"]
    assert ab.select(cases, None) == cases
    assert ab.select(cases, "families") == []


def test_grouped_counts_status_names_and_float_changes():
    ppt = ["ppt", True, 0.0, "a"]
    parent = {
        "inc": _outcome("inconclusive", [ppt, ["kyfan-sufficient", False, 0.5, "b"]]),
        "inc2": _outcome("inconclusive", [ppt, ["kyfan-sufficient", False, 0.5, "b"]]),
        "note": _outcome("inconclusive", [ppt, ["kyfan-sufficient", False, 0.5, "b"]]),
        "sep": _outcome("separable", [ppt], [0.25, 0.75]),
        "sep2": _outcome("separable", [["ppt", True, 1e-9, "a"]], [0.5, 0.5]),
        "parts": _outcome("separable", [ppt], [0.5, 0.5]),
        "err": "error: NotAState: x",
        "timed": _outcome("separable", [ppt], [1.0]),
        "battery": '"Report(ok)"',
    }
    change = {
        "inc": _outcome("separable", [ppt], [1.0]),
        "inc2": _outcome("separable", [ppt], [1.0]),
        "note": _outcome("inconclusive", [ppt, ["normal-form", True, 1e-10, "c"],
                                          ["kyfan-sufficient", False, 0.5, "b"]]),
        "sep": _outcome("separable", [ppt], [0.25 + 1e-12, 0.75]),
        "sep2": _outcome("separable", [["ppt", True, 4e-9, "a"]], [0.5, 0.5]),
        "parts": _outcome("separable", [ppt], [1.0]),
        "err": "error: NotAState: y",
        "timed": "timeout",
        "battery": '"Report(no)"',
    }
    assert ab.grouped(parent, change, list(parent)) == [
        "     2  status changed: inconclusive -> separable",
        "     1  status changed: separable -> timeout",
        "     1  outcome changed, still error",
        "     1  outcome changed, still outcome",
        "     2  criterion names or number of components changed",
        "     2  floats only: max |d margin| 3.00e-09, max |dp| 1.00e-12"]
    # a missing case changes status, and no case makes no line
    assert ab.grouped(parent, {}, ["sep"]) == ["     1  status changed: separable -> absent"]
    assert ab.grouped(parent, change, []) == []
