"""Verdict arithmetic of tools/bench_pairs.py on canned run values (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [40.0, 41.0, 42.0, 43.0, 44.0, 42.5, 41.5, 40.5, 43.5, 42.0]


def test_quartiles_are_the_benchmark_readmes_default_quantiles():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_quartiles():
    change = [p + 10.0 for p in PARENT]
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["wins"], v["pairs"], v["verdict"]) == (10, 10, "gain")
    assert v["parent"] == pytest.approx((40.875, 42.0, 43.125))
    assert v["change"] == pytest.approx((50.875, 52.0, 53.125))


def test_eight_wins_of_ten_is_no_gain():
    change = [p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["wins"], v["verdict"]) == (8, "no worse")


def test_a_gap_within_the_parent_quartiles_is_no_gain():
    # parent quartile distance 2.25; the change wins every pair by 1.0
    change = [p + 1.0 for p in PARENT]
    v = verdict(PARENT, change, "higher", 0.25)
    assert (v["wins"], v["verdict"]) == (10, "no worse")


def test_ties_count_for_neither_side():
    v = verdict([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "lower", 0.1)
    assert (v["wins"], v["verdict"]) == (0, "no worse")


def test_lower_is_better_metrics_win_by_falling():
    parent = [0.0246, 0.0250, 0.0240, 0.0248, 0.0244]
    change = [0.0174, 0.0176, 0.0170, 0.0172, 0.0178]
    assert verdict(parent, change, "lower", 0.25)["verdict"] == "gain"
    assert verdict(change, parent, "lower", 0.25)["verdict"] == "worse"


def test_worse_is_measured_against_the_bound_relative_to_the_parent_median():
    parent = [100.0, 100.0, 100.0]
    assert verdict(parent, [110.0] * 3, "lower", 0.1)["verdict"] == "no worse"
    assert verdict(parent, [111.0] * 3, "lower", 0.1)["verdict"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [60.0, 70.0, 80.0, 90.0, 100.0]  # spread 30 / 80 = 0.375
    mixed = [85.0, 65.0, 75.0, 95.0, 80.0]
    assert verdict(parent, mixed, "lower", 0.1)["verdict"] == "unresolved"
    skewed = [60.0, 61.0, 62.0, 100.0, 100.0]  # quartile distance 39.5 exceeds the gap of 7
    assert verdict(skewed, [55.0] * 5, "lower", 0.1)["verdict"] == "no worse"


def _runs(values, failed, attempted=100):
    return [
        {"failed": failed, "attempted": attempted, "metrics": {"reports_per_s": {"value": v}}}
        for v in values
    ]


def test_a_gain_does_not_stand_when_a_larger_share_of_the_change_failed():
    metrics = [{"name": "reports_per_s", "better": "higher", "bound": 0.25}]
    change = [p + 10.0 for p in PARENT]
    clean = bench_pairs.table({"parent": _runs(PARENT, 0), "change": _runs(change, 0)}, metrics)
    assert [row["verdict"] for row in clean] == ["gain"]
    failing = {"parent": _runs(PARENT, 0), "change": _runs(change, 1)}
    (row,) = bench_pairs.table(failing, metrics)
    assert (row["name"], row["wins"], row["verdict"]) == ("reports_per_s", 10, "more failed")
    # an equal share of failures, over more attempted reports, lets the gain stand
    equal_share = {"parent": _runs(PARENT, 1, 100), "change": _runs(change, 2, 200)}
    assert bench_pairs.table(equal_share, metrics)[0]["verdict"] == "gain"


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "higher", 0.25)
