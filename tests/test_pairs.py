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
