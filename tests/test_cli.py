"""CLI: report schema, formats, exit codes."""

import argparse
import csv
import io
import json
import time

import pytest

from orthosum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def spec_file(tmp_path, **kw):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(kw))
    return str(path)


def test_mobius_report_schema(capsys):
    code, out, _ = run(capsys, "mobius", "--m", "4")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "params", "seed", "results", "assertions"}
    assert report["command"] == "mobius"
    assert report["results"]["abs_sum"] == 24
    assert all(a["ok"] for a in report["assertions"])


def test_mobius_size_limit_exits_2(capsys):
    code, out, err = run(capsys, "mobius", "--m", "11")
    assert code == 2
    assert "size limit" in err


def test_dissociate_canonical(capsys):
    code, out, _ = run(capsys, "dissociate", "--family", "canonical:2,2", "--p", "4")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["ok"] is True


def test_dissociate_witness_on_failure(tmp_path, capsys):
    path = tmp_path / "words.json"
    path.write_text(json.dumps({"1": "g1", "2": "g1"}))
    code, out, _ = run(capsys, "dissociate", "--family", str(path), "--p", "2")
    assert code == 1
    report = json.loads(out)
    (assertion,) = report["assertions"]
    assert assertion["ok"] is False
    assert assertion["witness"] == [[1], [2]]


def test_ortho_pass_and_fail(tmp_path, capsys):
    good = spec_file(
        tmp_path, kind="rademacher", n=2, d=2, p=4, dim=1, seed=3
    )
    code, out, _ = run(capsys, "ortho", "--spec", good)
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 3
    assert report["results"]["max_abs_violation"] <= 1e-12

    bad = spec_file(tmp_path, kind="random_matrix", n=2, d=1, p=2, dim=2, seed=7)
    code, out, _ = run(capsys, "ortho", "--spec", bad)
    assert code == 1
    report = json.loads(out)
    assert report["assertions"][0]["ok"] is False
    assert report["assertions"][0]["witness"]


def test_ortho_seed_override(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="rademacher", n=2, d=1, p=4, dim=1, seed=3)
    code, out, _ = run(capsys, "ortho", "--spec", spec, "--seed", "99")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_decompose(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=2, p=4, dim=2, seed=11)
    code, out, _ = run(capsys, "decompose", "--spec", spec)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["abs_err"] <= 1e-8 * report["results"]["scale"]
    assert {"real", "imag"} == set(report["results"]["lhs"])


def test_factorize_all_tuples_small(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=1, p=2, dim=2, seed=13)
    code, out, _ = run(capsys, "factorize", "--spec", spec)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["tuples_checked"] == 1  # only the two-element block
    names = {a["name"] for a in report["assertions"]}
    assert names == {
        "factorization_identity",
        "common_singleton_norm_equality",
        "holder_bound",
    }


def test_factorize_with_sigmas_file(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=2, p=4, dim=2, seed=13)
    sig = tmp_path / "sigmas.json"
    sig.write_text(json.dumps(["1,2|3,4", "1,3|2,4"]))
    code, out, _ = run(capsys, "factorize", "--spec", spec, "--sigmas", str(sig))
    assert code == 0
    assert json.loads(out)["results"]["tuples_checked"] == 1


def test_factorize_rejects_group_algebra_specs(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="free_generators", n=2, d=1, p=2)
    code, _, err = run(capsys, "factorize", "--spec", spec)
    assert code == 2
    assert "matrix" in err


def test_inequality_pass(tmp_path, capsys):
    spec = spec_file(
        tmp_path, kind="martingale_rademacher", n=4, d=1, p=4, dim=2, seed=17
    )
    code, out, _ = run(capsys, "inequality", "--spec", spec)
    assert code == 0
    report = json.loads(out)
    for key in ("A", "B", "C", "D", "ratio", "pisier_ok"):
        assert key in report["results"]
    names = {a["name"] for a in report["assertions"]}
    assert "pisier_bound" in names


def test_inequality_precondition_failure(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=1, p=2, dim=2, seed=19)
    code, out, _ = run(capsys, "inequality", "--spec", spec)
    assert code == 1
    report = json.loads(out)
    (assertion,) = report["assertions"]
    assert assertion["name"] == "p_orthogonal_precondition"
    assert assertion["ok"] is False


def test_khintchine(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=2, p=4, dim=2, seed=23)
    code, out, _ = run(capsys, "khintchine", "--spec", spec)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["S_norm"] > 0
    assert all(a["ok"] for a in report["assertions"])


def test_sublemma(capsys):
    code, out, _ = run(capsys, "sublemma", "--p", "4", "--D", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["root"] <= report["results"]["bound"]


def test_csv_format(capsys):
    code, out, _ = run(capsys, "sublemma", "--p", "2", "--D", "1.0", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["section", "name", "value"]
    sections = {r[0] for r in rows[1:]}
    assert {"meta", "param", "result", "assertion"} <= sections
    assertion_rows = [r for r in rows if r[0] == "assertion"]
    assert assertion_rows == [["assertion", "root_bound", "true"]]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "mobius", "--m", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["results"]["abs_sum"] == 6


def test_missing_spec_file_exits_2(capsys):
    code, _, err = run(capsys, "ortho", "--spec", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_budget_flag_threads_through(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="rademacher", n=2, d=2, p=4, dim=1, seed=3)
    code, _, err = run(capsys, "ortho", "--spec", spec, "--budget", "10")
    assert code == 2
    assert "size limit" in err


def write(tmp_path, text):
    path = tmp_path / "raw.json"
    path.write_text(text)
    return str(path)


def family_file_spec(tmp_path, text):
    return spec_file(tmp_path, kind="file", path=write(tmp_path, text), p=4)


def nan_family_spec(tmp_path):
    """A file spec holding scalar ones on [4]^1 with NaN at index 1."""
    values = {str(i): {"dim": 1, "entries": [[1.0, 0.0]]} for i in range(1, 5)}
    values["1"]["entries"] = [[float("nan"), 0.0]]
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"n": 4, "d": 1, "values": values}))
    return spec_file(tmp_path, kind="file", path=str(family), p=4)


@pytest.mark.parametrize("command", ["ortho", "decompose", "inequality"])
def test_nan_family_exits_2(tmp_path, capsys, command):
    code, out, err = run(capsys, command, "--spec", nan_family_spec(tmp_path))
    assert code == 2
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda tmp: ["ortho", "--spec", spec_file(tmp, n=2, d=1, p=4)], id="no-kind"),
        pytest.param(lambda tmp: ["ortho", "--spec", write(tmp, "5")], id="spec-not-object"),
        pytest.param(lambda tmp: ["sublemma", "--p", "4", "--D", "inf"], id="D-inf"),
        pytest.param(lambda tmp: ["sublemma", "--p", "4", "--D", "nan"], id="D-nan"),
        pytest.param(lambda tmp: ["ortho", "--spec", family_file_spec(tmp, "5")], id="family-not-object"),
        pytest.param(
            lambda tmp: ["ortho", "--spec", family_file_spec(tmp, '{"n": 1, "d": 1, "values": 5}')],
            id="family-values-not-object",
        ),
        pytest.param(
            lambda tmp: ["ortho", "--spec", family_file_spec(tmp, '{"values": {}}')],
            id="family-without-n",
        ),
        pytest.param(
            lambda tmp: [
                "factorize", "--spec", spec_file(tmp, kind="random_matrix", n=2, d=1, p=2),
                "--sigmas", write(tmp, "5"),
            ],
            id="sigmas-not-list",
        ),
        pytest.param(
            lambda tmp: ["ortho", "--spec", spec_file(tmp, kind="rademacher", n=2, d=1, p=4.9)],
            id="p-float",
        ),
        pytest.param(
            lambda tmp: ["ortho", "--spec", spec_file(tmp, kind="rademacher", n=True, d=1, p=4)],
            id="n-bool",
        ),
        pytest.param(
            lambda tmp: ["ortho", "--spec", write(tmp, '{"kind": "rademacher", "n": 1e400, "p": 4}')],
            id="n-overflows",
        ),
        pytest.param(
            lambda tmp: ["ortho", "--spec", spec_file(tmp, kind="rademacher", n=2, p=4, seed=-5)],
            id="seed-negative",
        ),
        pytest.param(
            lambda tmp: ["ortho", "--spec", spec_file(tmp, kind="rademacher", n=2, p=4, seed=2**65)],
            id="seed-beyond-64-bits",
        ),
        pytest.param(
            lambda tmp: ["ortho", "--spec", spec_file(tmp, kind="rademacher", n=2, p=4), "--seed", "-5"],
            id="seed-flag-negative",
        ),
        pytest.param(
            lambda tmp: [
                "ortho", "--spec",
                family_file_spec(tmp, '{"n": 1, "d": 1.0, "values": {"1": {"dim": 1, "entries": [[1, 0]]}}}'),
            ],
            id="family-d-float",
        ),
        *(
            pytest.param(
                lambda tmp, value=value: [
                    "ortho", "--spec",
                    family_file_spec(tmp, json.dumps({"n": 1, "d": 1, "values": {"1": value}})),
                ],
                id=name,
            )
            for name, value in [
                ("family-value-not-object", 5),
                ("matrix-without-entries", {"dim": 1}),
                ("matrix-entry-not-pair", {"dim": 1, "entries": [1]}),
                ("matrix-entry-not-number", {"dim": 1, "entries": [["a", 0]]}),
                ("term-without-coeff", {"arity": 1, "n": 1, "terms": [{"words": ["g1"]}]}),
            ]
        ),
        pytest.param(
            lambda tmp: ["dissociate", "--family", write(tmp, "[1]"), "--p", "2"],
            id="word-family-not-object",
        ),
        pytest.param(
            lambda tmp: ["dissociate", "--family", write(tmp, '{"1": 5}'), "--p", "2"],
            id="word-not-string",
        ),
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    code, out, err = run(capsys, *case(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_non_finite_result_is_not_printed(monkeypatch, capsys):
    from orthosum import cli

    def nan_report(args):
        return {"root": float("nan")}, [cli._assertion("root_bound", True)], None

    monkeypatch.setitem(cli._HANDLERS, "sublemma", nan_report)
    code, out, err = run(capsys, "sublemma", "--p", "4", "--D", "1.0")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("p,D", [(116, "1"), (58, "1000"), (400, "1"), (100000, "1")])
def test_sublemma_out_of_double_range_exits_2_fast(capsys, p, D):
    start = time.perf_counter()
    code, out, err = run(capsys, "sublemma", "--p", str(p), "--D", D)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "range" in err


@pytest.mark.parametrize(
    "command,shape",
    [
        ("factorize", {"n": 1, "d": 2, "p": 4}),
        ("factorize", {"n": 1, "d": 3, "p": 6}),
        ("decompose", {"n": 1, "d": 1, "p": 10}),
    ],
)
def test_partition_sweeps_are_budgeted(tmp_path, capsys, command, shape):
    spec = spec_file(tmp_path, kind="random_matrix", dim=1, **shape)
    code, out, err = run(capsys, command, "--spec", spec, "--budget", "100")
    assert code == 2
    assert out == ""
    assert "size limit" in err


def test_factorize_charges_the_factor_terms_to_the_budget(tmp_path, capsys):
    # one index function fits a budget of 1, the p * n^d = 2 factor terms do not
    spec = spec_file(tmp_path, kind="random_matrix", n=1, d=1, p=2, dim=1, seed=3)
    sigmas = tmp_path / "sigmas.json"
    sigmas.write_text(json.dumps(["1,2"]))
    argv = ["factorize", "--spec", spec, "--sigmas", str(sigmas)]
    code, _, _ = run(capsys, *argv, "--budget", "2")
    assert code == 0
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == 2
    assert out == ""
    assert "size limit" in err and "factor term" in err


def test_iteration_sandwich_violation_is_an_assertion_failure(tmp_path, capsys, monkeypatch):
    from orthosum import lab

    true_c = lab.max_flattening_norm
    monkeypatch.setattr(lab, "max_flattening_norm", lambda *a, **kw: 0.1 * true_c(*a, **kw))
    spec = spec_file(tmp_path, kind="rademacher", n=2, d=2, p=4, dim=1, seed=3)
    code, out, err = run(capsys, "inequality", "--spec", spec)
    assert code == 1
    assert err == ""
    assertions = {a["name"]: a for a in json.loads(out)["assertions"]}
    upper = assertions["iteration_upper"]
    assert upper["ok"] is False
    assert set(upper["witness"]) == {"B", "C", "2^d C"}
    assert upper["witness"]["B"] > upper["witness"]["2^d C"]
    assert assertions["iteration_converse"]["ok"] is True


def overflowing_family_spec(tmp_path):
    """A file spec of 2 x 2 members with entries +-1e200 on [4]^1."""
    entries = [[1e200, 0.0], [-1e200, 0.0], [1e200, 0.0], [1e200, 0.0]]
    values = {str(i): {"dim": 2, "entries": entries} for i in range(1, 5)}
    return family_file_spec(tmp_path, json.dumps({"n": 4, "d": 1, "values": values}))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["ortho", "decompose", "inequality", "khintchine"])
def test_overflowed_family_exits_2(tmp_path, capsys, command, fmt):
    spec = overflowing_family_spec(tmp_path)
    code, out, err = run(capsys, command, "--spec", spec, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not finite" in err
    code, out, err = run(capsys, "ortho", "--spec", spec, "--tol", "1", "--format", fmt)
    assert code == 2 and "not finite" in err


def test_main_builds_no_parser(monkeypatch, capsys):
    from orthosum import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or argparse.ArgumentParser())
    for _ in range(2):
        code, out, _ = run(capsys, "sublemma", "--p", "4", "--D", "1.0")
        assert code == 0 and json.loads(out)["command"] == "sublemma"
    assert built == []
