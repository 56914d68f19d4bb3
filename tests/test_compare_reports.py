"""Report comparison of tools/compare_reports.py on canned reports (no subprocess)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)
differences = compare_reports.differences


def record(index=0, rc=0, params=None, results=None, workload="decompose", seed=1):
    report = {
        "command": workload,
        "params": params or {"spec": "/a/spec-0.json", "out": "/a/report-0.json"},
        "seed": 7,
        "results": results or {"lhs": 1.25, "scale": 3.0},
        "assertions": [{"name": "decomposition_identity", "ok": True}],
    }
    return {
        "workload": workload,
        "seed": seed,
        "index": index,
        "spec": {"kind": "random_matrix", "n": 2},
        "rc": rc,
        "report": json.dumps(report, indent=2) if rc != 2 else None,
    }


def test_reports_that_differ_only_in_params_match():
    parent = [record(0), record(1)]
    change = [record(0, params={"spec": "/b/spec-0.json"}), record(1, params={"p": 4})]
    assert differences(parent, change) == []


def test_a_result_one_ulp_apart_differs():
    parent = [record(0), record(1)]
    change = [record(0), record(1, results={"lhs": 1.2500000000000002, "scale": 3.0})]
    (line,) = differences(parent, change)
    assert line.startswith("decompose seed 1 report 1 ")
    assert line.endswith(": report differs outside params")


def test_an_exit_code_difference_is_named_before_the_text():
    parent = [record(0, rc=0)]
    change = [record(0, rc=2)]
    (line,) = differences(parent, change)
    assert line.endswith(": exit code 0 != 2")


def test_reports_are_matched_by_workload_seed_and_index_not_by_position():
    parent = [record(0, seed=1), record(0, seed=2), record(0, workload="factorize")]
    change = parent[::-1]
    assert differences(parent, change) == []


def test_a_report_missing_on_either_side_differs():
    parent = [record(0), record(1)]
    change = [record(1), record(2)]
    missing_in_change, missing_in_parent = differences(parent, change)
    assert missing_in_change.startswith("decompose seed 1 report 0 ")
    assert missing_in_change.endswith(": missing in the change")
    assert missing_in_parent.startswith("decompose seed 1 report 2 ")
    assert missing_in_parent.endswith(": missing in the parent")


def test_a_moved_ortho_violation_differs():
    parent = [record(0, workload="ortho", results={"max_abs_violation": 0.0})]
    change = [record(0, workload="ortho", results={"max_abs_violation": 6.9e-18})]
    (line,) = differences(parent, change)
    assert line.startswith("ortho seed 1 report 0 ")
    assert line.endswith(": report differs outside params")


@pytest.fixture(scope="module")
def extra_records():
    """The records of this checkout's extra report lists, with no benchmark seed."""
    return compare_reports.collect(_PATH.parent.parent, [])


def test_the_extra_lists_run_once_each_and_nothing_else(extra_records):
    assert [(r["workload"], r["spec"]) for r in extra_records] == [
        (workload, spec)
        for workload, (_, specs) in compare_reports.EXTRA_REPORTS.items()
        for spec in specs
    ]


def test_the_ortho_list_runs_once_with_its_verdicts(extra_records):
    records = [r for r in extra_records if r["workload"] == "ortho"]
    assert [r["spec"] for r in records] == compare_reports.ORTHO_SPECS
    for r in records:
        violation = json.loads(r["report"])["results"]["max_abs_violation"]
        dense = r["spec"]["kind"] == "random_matrix"
        assert (r["rc"], violation > 0) == ((1, True) if dense else (0, False)), r["spec"]
    dims = sorted(r["spec"]["dim"] for r in records if r["spec"]["kind"] == "random_matrix")
    assert dims == [8, 16, 24]
    assert differences(records, records) == []


def test_the_factorize_list_checks_every_partition_tuple(extra_records):
    records = [r for r in extra_records if r["workload"] == "factorize_all"]
    assert [r["spec"] for r in records] == compare_reports.FACTORIZE_SPECS
    # (partitions of {1..p} but the all-singleton one)^d: (203 - 1)^1 and (15 - 1)^3
    assert [json.loads(r["report"])["results"]["tuples_checked"] for r in records] == [202, 2744]
    for r in records:
        report = json.loads(r["report"])
        assert (r["rc"], report["command"]) == (0, "factorize"), r["spec"]
        assert all(a["ok"] for a in report["assertions"]), r["spec"]
    assert differences(records, records) == []


def test_the_decompose_list_covers_member_sides_and_a_walk_in_several_runs(extra_records):
    from orthosum.orthogonality import _BLOCK

    records = [r for r in extra_records if r["workload"] == "decompose_dims"]
    assert [r["spec"] for r in records] == compare_reports.DECOMPOSE_SPECS
    assert [r["spec"]["dim"] for r in records] == [1, 2, 5, 8, 12, 16, 8]
    for r in records:
        report = json.loads(r["report"])
        assert (r["rc"], report["command"]) == (0, "decompose"), r["spec"]
        assert all(a["ok"] for a in report["assertions"]), r["spec"]
    # the last shape's moment table holds more entries than one run
    spec = records[-1]["spec"]
    assert spec["n"] ** (spec["d"] * spec["p"]) * spec["dim"] ** 2 > _BLOCK
    assert differences(records, records) == []
