import importlib.util
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
