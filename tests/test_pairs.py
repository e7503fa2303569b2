import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles():
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_claim_holds_on_nine_of_ten_wins_past_the_parents_spread():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [130.0, 131.0, 129.0, 132.0, 128.0, 130.0, 99.0, 131.0, 130.0, 129.0]
    row = pairs.summarize(parent, change, "higher", 0.15)
    assert row["wins"] == 9 and row["pairs"] == 10
    assert row["claim"] and row["bound"] == "within"
    assert row["parent"][1] == 100.0 and row["change"][1] == 130.0
    assert row["relative"] == pytest.approx(0.30)


def test_claim_needs_nine_tenths_of_the_pairs():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    row = pairs.summarize(parent, change, "lower", 0.2)
    assert row["wins"] == 8 and not row["claim"]


def test_ties_count_for_neither_side():
    row = pairs.summarize([1.0] * 5, [1.0] * 5, "higher", 0.02)
    assert row["wins"] == 0 and not row["claim"] and row["bound"] == "within"


def test_claim_needs_the_gap_to_exceed_the_parents_spread():
    # every pair won, by less than the parent's interquartile range
    parent = [10.0, 14.0, 10.0, 14.0]
    change = [11.0, 15.0, 11.0, 15.0]
    row = pairs.summarize(parent, change, "higher", 0.5)
    assert row["wins"] == 4 and not row["claim"]


def test_worse_by_more_than_the_bound():
    row = pairs.summarize([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.2)
    assert row["bound"] == "worse" and row["relative"] == pytest.approx(0.3)


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.5, 1.0, 1.5]
    change = [1.1, 1.4, 1.0, 1.5]
    assert pairs.summarize(parent, change, "lower", 0.1)["bound"] == "unresolved"


def test_wide_spread_resolves_when_every_change_run_is_better():
    parent = [2.0, 3.0, 2.0, 3.0]
    change = [1.0, 1.9, 1.0, 1.9]
    assert pairs.summarize(parent, change, "lower", 0.1)["bound"] == "within"


def test_result_of_reads_the_last_line():
    out = 'details\n{"correct": true, "metrics": {}}\n'
    assert pairs.result_of(0, out, "") == {"correct": True, "metrics": {}}


@pytest.mark.parametrize("code, out", [(1, '{"correct": true}\n'), (0, ""),
                                       (0, "Traceback\n"), (0, "[1, 2]\n")])
def test_result_of_a_failed_run_carries_the_stderr_tail(code, out):
    stderr = "x" * 5000 + "ValueError: boom"
    with pytest.raises(pairs.RunFailed) as info:
        pairs.result_of(code, out, stderr)
    message = str(info.value)
    assert message.startswith(f"exit code {code}; stderr tail:\n")
    assert message.endswith("ValueError: boom")
    assert len(message) < pairs.STDERR_TAIL + 40


def _result(value):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}


def test_a_failed_run_keeps_the_completed_pairs(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": '
        '[{"name": "ops_per_s", "better": "higher", "bound": 0.15}]}')
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        if len(calls) == 4:  # the second run of pair 1
            raise pairs.RunFailed("exit code 1; stderr tail:\nMemoryError")
        return _result(100.0 if checkout.name == "parent" else 120.0)

    monkeypatch.setattr(pairs, "run", fake_run)
    code = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "qudit", "--pairs", "3", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and len(calls) == 4
    assert "pair 1 parent failed: exit code 1; stderr tail:\nMemoryError" in err
    # pair 0 is summarized; pair 1's finished change run is not
    assert "qudit, seed 1, 1 pairs of 1 s" in out
    assert "1/1" in out and "parent: failed 0/10 timed calls" in out


def test_no_completed_pair(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": []}')

    def fake_run(*args):
        raise pairs.RunFailed("exit code 2; stderr tail:\nboom")

    monkeypatch.setattr(pairs, "run", fake_run)
    code = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "qudit", "--pairs", "2", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and "no pair completed" in out and "boom" in err
