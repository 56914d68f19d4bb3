"""Report comparison of tools/compare_reports.py on canned reports (no subprocess)."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)
differences = compare_reports.differences
sys.modules["compare_reports"] = compare_reports  # as report_digests imports it
_DIGESTS = importlib.util.spec_from_file_location(
    "report_digests", _PATH.with_name("report_digests.py")
)
report_digests = importlib.util.module_from_spec(_DIGESTS)
_DIGESTS.loader.exec_module(report_digests)


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


def test_the_word_file_lists_parse_unreduced_words_under_each_command(extra_records):
    from orthosum.freegroup import parse_word

    for workload, command in [
        ("file_ortho", "ortho"), ("file_decompose", "decompose"), ("file_inequality", "inequality")
    ]:
        records = [r for r in extra_records if r["workload"] == workload]
        assert [r["spec"] for r in records] == compare_reports.FILE_SPECS
        for r in records:
            report = json.loads(r["report"])
            assert (r["rc"], report["command"]) == (0, command), (workload, r["spec"])
            assert all(a["ok"] for a in report["assertions"]), (workload, r["spec"])
        assert differences(records, records) == []
    # every member has several terms, and each family has words that reduce
    for spec in compare_reports.FILE_SPECS:
        members = spec["family"]["values"].values()
        assert all(len(member["terms"]) > 1 for member in members)
        words = [w for member in members for term in member["terms"] for w in term["words"]]
        assert any(len(parse_word(w)) < len(w.split()) for w in words), spec
    records = [r for r in extra_records if r["workload"] == "file_dissociate"]
    assert [r["spec"] for r in records] == compare_reports.WORD_FILE_SPECS
    verdicts = [(r["rc"], json.loads(r["report"])["assertions"]) for r in records]
    assert verdicts == [
        (0, [{"name": "p_dissociate", "ok": True}]),
        (1, [{"name": "p_dissociate", "ok": False, "witness": [[1], [2]]}]),
    ]
    for spec in compare_reports.WORD_FILE_SPECS:
        assert all(len(parse_word(w)) < len(w.split()) for w in spec["family"].values())


def test_the_decompose_list_covers_member_sides_runs_and_odd_d(extra_records):
    from orthosum.orthogonality import _BLOCK

    records = [r for r in extra_records if r["workload"] == "decompose_dims"]
    assert [r["spec"] for r in records] == compare_reports.DECOMPOSE_SPECS
    assert [r["spec"]["dim"] for r in records] == [1, 2, 3, 4, 5, 8, 12, 16, 8, 3, 2]
    for r in records:
        report = json.loads(r["report"])
        assert (r["rc"], report["command"]) == (0, "decompose"), r["spec"]
        assert all(a["ok"] for a in report["assertions"]), r["spec"]
    # the ninth shape's moment table holds more entries than one run
    spec = records[8]["spec"]
    assert spec["n"] ** (spec["d"] * spec["p"]) * spec["dim"] ** 2 > _BLOCK
    # odd d, where the non-injective labels weigh -1: one coordinate at p = 8, three at p = 4
    shapes = [(r["spec"]["n"], r["spec"]["d"], r["spec"]["p"]) for r in records]
    assert [shape for shape in shapes if shape[1] % 2] == [(2, 1, 8), (2, 3, 4)]
    assert differences(records, records) == []


def test_the_extra_reports_keep_their_committed_digests(extra_records):
    manifest = json.loads(report_digests.MANIFEST.read_text())
    diff = report_digests.first_difference(extra_records, manifest, report_digests.numpy_build())
    assert diff is None, diff


def test_the_digest_check_names_the_first_report_that_moved(extra_records):
    manifest = json.loads(report_digests.MANIFEST.read_text())
    here, other = manifest["build"], {**manifest["build"], "simd": ["another CPU"]}
    check = report_digests.first_difference
    at = [r["workload"] for r in extra_records].index("decompose_dims")
    name = compare_reports._label(extra_records[at])

    def moved(move, rc=0):
        """The records with report ``at``'s real lhs moved and ``rc`` added to its exit code."""
        records = [dict(r) for r in extra_records]
        report = json.loads(records[at]["report"])
        report["results"]["lhs"]["real"] = move(report["results"]["lhs"]["real"])
        records[at].update(report=json.dumps(report), rc=records[at]["rc"] + rc)
        return records

    # one ulp is a difference on the pinned build, and within rtol on another
    ulp = moved(lambda v: np.nextafter(v, np.inf))
    assert check(ulp, manifest, here) == f"{name}: report differs outside params"
    assert check(ulp, manifest, other) is None
    assert check(extra_records, manifest, other) is None
    far = moved(lambda v: v * (1 + 1e-9))
    for build in (here, other):
        assert check(far, manifest, build) == f"{name}: report differs outside params"
        assert check(moved(lambda v: v, rc=1), manifest, build) == f"{name}: exit code 0 != 1"
    last = compare_reports._label(extra_records[-1])
    assert check(extra_records[:-1], manifest, here) == f"{last}: missing in the change"
    assert check(extra_records[::-1], manifest, here) is None  # matched by key, not place


def test_the_inequality_list_covers_each_benchmark_kind_and_p_8(extra_records):
    from workloads import WORKLOADS

    records = [r for r in extra_records if r["workload"] == "inequality_kinds"]
    specs = compare_reports.INEQUALITY_SPECS
    assert [r["spec"] for r in records] == specs
    shape = lambda s: (s["kind"], s["n"], s["d"], s["p"], s["dim"])
    benchmark = {row[:5] for row in WORKLOADS["inequality"].mix}
    at4 = [shape(s) for s in specs if s["p"] == 4]
    assert {k for k, *_ in at4} == {k for k, *_ in benchmark} and len(at4) == 4
    assert set(at4) <= benchmark and ("martingale_rademacher", 6, 1, 4, 2) in at4
    assert [s["p"] for s in specs if s["p"] != 4] == [8]
    for r in records:
        report = json.loads(r["report"])
        assert (r["rc"], report["command"]) == (0, "inequality"), r["spec"]
        assert all(a["ok"] for a in report["assertions"]), r["spec"]
    assert differences(records, records) == []


def test_the_multi_batch_list_merges_a_product_over_several_batches(monkeypatch):
    from orthosum import algebra, lab

    (spec,) = compare_reports.MULTI_BATCH_SPECS
    x = lab._lambda_tensor_element(lab.make_family(lab.FamilySpec.from_json(spec)))
    merged, real = [], algebra._sum_by_label

    def counted(keys, shape, batches):
        batches = list(batches)
        merged.append(len(batches))
        return real(keys, shape, batches)

    monkeypatch.setattr(algebra, "_sum_by_label", counted)
    gram = algebra.ga_multiply(algebra.ga_adjoint(x), x)  # B's gram, as the report forms it
    assert (x.term_count, x.coeff_shape, gram.term_count) == (5, (64, 64), 21)
    assert merged and max(merged) > 1, merged
