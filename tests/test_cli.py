"""CLI: report schema, formats, exit codes."""

import argparse
import csv
import io
import json
import os
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


def test_mobius_honours_the_budget(capsys):
    code, out, err = run(capsys, "mobius", "--m", "6", "--budget", "100")
    assert (code, out) == (2, "")
    assert err == "size limit: refinement pairs needs 2471 items, exceeding the budget of 100\n"


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


def test_ortho_keeps_the_exact_zeros_of_a_martingale_family(tmp_path, capsys):
    """Every injective moment of this family multiplies out to exactly 0.0."""
    fields = dict(kind="martingale_rademacher", n=5, d=1, p=4, dim=2, seed=3)
    code, out, _ = run(capsys, "ortho", "--spec", spec_file(tmp_path, **fields))
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["max_abs_violation"], results["count_checked"]) == (0.0, 120)


@pytest.mark.parametrize("element_first", [False, True])
def test_a_family_file_of_mixed_kinds_exits_2_with_one_error_line(tmp_path, capsys, element_first):
    matrix = {"dim": 1, "entries": [[1.0, 0.0]]}
    element = {"arity": 1, "n": 1, "terms": [{"words": ["g1"], "coeff": matrix}]}
    values = {"1": element, "2": matrix} if element_first else {"1": matrix, "2": element}
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 2, "d": 1, "values": values}))
    spec = spec_file(tmp_path, kind="file", n=2, d=1, p=2, path=str(path))
    code, out, err = run(capsys, "ortho", "--spec", spec)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "mix kinds" in err


def test_a_failed_dissociate_construction_names_its_witness(tmp_path, capsys):
    words = tmp_path / "words.json"
    words.write_text(json.dumps({"1": "g1", "2": "g1"}))
    spec = spec_file(tmp_path, kind="dissociate", n=2, d=1, p=2, path=str(words))
    code, out, err = run(capsys, "inequality", "--spec", spec)
    assert (code, out) == (2, "")
    assert err == (
        "error: word family is not 2-dissociate: the alternating product along"
        " index function ((1,), (2,)) is the identity\n"
    )


def _term(words, dim=1):
    return {"words": words, "coeff": {"dim": dim, "entries": [[1.0, 0.0]] * dim * dim}}


@pytest.mark.parametrize(
    "terms,fault",
    [
        ([_term(["g1", "g1"])], "word tuple arity 2 != 1"),
        ([_term(["g3"])], "word tuple uses generator beyond 2"),
        ([_term(["g1"]), _term(["g2"], dim=2)], "coefficient shape (1, 1) != (2, 2)"),
    ],
    ids=["word-count-not-arity", "generator-beyond-n", "coefficient-dims-differ"],
)
def test_a_family_file_term_fault_exits_2_and_names_it(tmp_path, capsys, terms, fault):
    element = {"arity": 1, "n": 2, "terms": terms}
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 1, "d": 1, "values": {"1": element}}))
    spec = spec_file(tmp_path, kind="file", n=1, d=1, p=2, path=str(path))
    code, out, err = run(capsys, "ortho", "--spec", spec)
    assert (code, out, err) == (2, "", f"error: {fault}\n")


def test_a_word_family_file_off_the_spec_grid_exits_2_and_names_it(tmp_path, capsys):
    words = tmp_path / "words.json"
    words.write_text(json.dumps({"1": "g1", "2": "g2", "3": "g3"}))
    spec = spec_file(tmp_path, kind="dissociate", n=2, d=1, p=2, path=str(words))
    code, out, err = run(capsys, "inequality", "--spec", spec)
    assert (code, out) == (2, "")
    assert err == "error: word family index grid does not match the spec\n"


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


def test_factorize_witnesses_name_their_partition_tuple(tmp_path, capsys, monkeypatch):
    """Hoelder names the first tuple that fails, the other two the tuple of largest error."""
    from orthosum import factorization

    # culprits of the enumeration: the 2nd tuple, its factor norms 0 and its psi off by 1;
    # the 10th, its norms tripled (relative error 2 against 1) and its psi off by 2
    norm_scale = {"1|2,4|3": 0.0, "1,2|3|4": 3.0}
    psi_shift = {"1|2,4|3": 1.0, "1,2|3|4": 2.0}
    real_report, norm, psi = (
        factorization.factor_norm_report, factorization.ga_even_norm, factorization.psi
    )
    current = []

    def spied_report(fam, sig, *args):
        current[:] = [str(sig[0])]
        return real_report(fam, sig, *args)

    monkeypatch.setattr(factorization, "factor_norm_report", spied_report)
    monkeypatch.setattr(
        factorization, "ga_even_norm", lambda *a: norm_scale.get(current[0], 1.0) * norm(*a)
    )
    monkeypatch.setattr(factorization, "psi", lambda *a: psi(*a) + psi_shift.get(current[0], 0.0))
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=1, p=4, dim=2, seed=13)
    code, out, _ = run(capsys, "factorize", "--spec", spec)
    assert code == 1
    report = json.loads(out)
    witnesses = {a["name"]: a["witness"] for a in report["assertions"]}
    assert witnesses["holder_bound"]["sigmas"] == ["1|2,4|3"]
    assert witnesses["holder_bound"]["norms_product"] == 0.0
    assert witnesses["common_singleton_norm_equality"]["sigmas"] == ["1,2|3|4"]
    assert witnesses["common_singleton_norm_equality"]["rel_err"] == pytest.approx(2.0)
    assert witnesses["factorization_identity"]["sigmas"] == ["1,2|3|4"]
    assert witnesses["factorization_identity"]["abs_err"] == pytest.approx(2.0)
    assert report["results"]["max_abs_err"] == witnesses["factorization_identity"]["abs_err"]


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


def test_refused_canonical_family_is_never_built(monkeypatch, capsys):
    from orthosum import cli

    calls = []
    original = cli.canonical_dissociate
    monkeypatch.setattr(
        cli, "canonical_dissociate", lambda n, d: calls.append((n, d)) or original(n, d)
    )
    argv = ["dissociate", "--family", "canonical:4,2", "--p", "2", "--budget", "10"]
    code, out, err = run(capsys, *argv)
    assert (code, out, calls) == (2, "", [])
    assert "family members needs 16 items" in err


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


#: --tol values that are no tolerance: negative or not finite
BAD_TOLS = ("-1", "nan", "inf")


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
        *(
            pytest.param(
                lambda tmp, kind=kind, path=path: [
                    "ortho", "--spec", spec_file(tmp, kind=kind, n=2, d=1, p=2, path=path),
                ],
                id=f"{kind}-path-{name}",
            )
            for kind in ("file", "dissociate")
            for name, path in [("float", 2.5), ("list", [1]), ("int", 2), ("bool", True)]
        ),
        *(
            pytest.param(
                lambda tmp, command=command: [
                    command, "--spec", spec_file(tmp, kind="random_matrix", n=2, d=1, p=4),
                    "--p", "0",
                ],
                id=f"{command}-p-0",
            )
            for command in ("ortho", "decompose", "factorize", "inequality")
        ),
        pytest.param(
            lambda tmp: ["dissociate", "--family", write(tmp, "[1]"), "--p", "2"],
            id="word-family-not-object",
        ),
        pytest.param(
            lambda tmp: ["dissociate", "--family", write(tmp, '{"1": 5}'), "--p", "2"],
            id="word-not-string",
        ),
        *(
            pytest.param(
                lambda tmp, tol=tol: [
                    "ortho", "--spec", spec_file(tmp, kind="rademacher", n=2, d=1, p=4),
                    "--tol", tol,
                ],
                id=f"tol-{tol}",
            )
            for tol in BAD_TOLS
        ),
        pytest.param(
            lambda tmp: ["dissociate", "--family", "canonical:2", "--p", "2"],
            id="canonical-one-field",
        ),
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, case):
    code, out, err = run(capsys, *case(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_ortho_refuses_a_negative_or_non_finite_tol_by_name(tmp_path, capsys, tol):
    spec = spec_file(tmp_path, kind="rademacher", n=2, d=1, p=4)
    code, out, err = run(capsys, "ortho", "--spec", spec, "--tol", tol)
    assert (code, out) == (2, "")
    assert err == f"error: --tol must be finite and >= 0, got {float(tol)}\n"


@pytest.mark.parametrize("family", ["canonical:2", "canonical:2,1,1", "canonical:a,b", "canonical:"])
def test_dissociate_names_the_canonical_form_of_a_bad_family(capsys, family):
    code, out, err = run(capsys, "dissociate", "--family", family, "--p", "2")
    assert (code, out) == (2, "")
    assert err == f"error: --family {family!r} is not of the form canonical:n,d\n"


def fd_is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


def test_spec_paths_never_open_the_standard_streams(tmp_path, capsys):
    saved = {fd: os.dup(fd) for fd in (1, 2)}
    try:
        for kind, path in [("file", 2), ("file", True), ("dissociate", 2), ("dissociate", True)]:
            spec = spec_file(tmp_path, kind=kind, n=2, d=1, p=2, path=path)
            main(["ortho", "--spec", spec])
        closed = [fd for fd in saved if not fd_is_open(fd)]
    finally:
        for fd, copy in saved.items():
            if not fd_is_open(fd):
                os.dup2(copy, fd)
            os.close(copy)
    capsys.readouterr()
    assert closed == []


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
    ],
)
def test_partition_sweeps_are_budgeted(tmp_path, capsys, command, shape):
    spec = spec_file(tmp_path, kind="random_matrix", dim=1, **shape)
    code, out, err = run(capsys, command, "--spec", spec, "--budget", "100")
    assert code == 2
    assert out == ""
    assert "size limit" in err


@pytest.mark.parametrize(
    "shape,budget",
    [
        # 10 index-function products, with Bell(10) refinements below {{1..10}}
        ({"n": 1, "d": 1, "p": 10}, "100"),
        # past p = 12, the ceiling of partition enumeration
        ({"n": 2, "d": 1, "p": 14}, "10000000"),
    ],
)
def test_decompose_enumerates_no_refinement(tmp_path, capsys, shape, budget):
    spec = spec_file(tmp_path, kind="random_matrix", dim=1, seed=5, **shape)
    code, out, err = run(capsys, "decompose", "--spec", spec, "--budget", budget)
    assert (code, err) == (0, "")
    (assertion,) = json.loads(out)["assertions"]
    assert assertion["name"] == "decomposition_identity" and assertion["ok"] is True


@pytest.mark.parametrize("budget", [15, 63])
def test_decompose_below_its_index_function_products_exits_2(tmp_path, capsys, budget):
    # n^(dp) = 16 index functions and p n^(dp) = 64 products at n = 2, d = 1, p = 4
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=1, p=4, dim=2, seed=5)
    code, out, err = run(capsys, "decompose", "--spec", spec, "--budget", str(budget))
    assert (code, out) == (2, "")
    assert err.startswith("size limit: index-function")
    code, _, _ = run(capsys, "decompose", "--spec", spec, "--budget", "64")
    assert code == 0


def _decompose_witness(tmp_path, capsys):
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=2, p=4, dim=3, seed=1)
    code, out, err = run(capsys, "decompose", "--spec", spec)
    (assertion,) = json.loads(out)["assertions"]
    assert (code, err, assertion["name"], assertion["ok"]) == (1, "", "decomposition_identity", False)
    return assertion["witness"]


def test_decompose_fails_on_wrong_moments_naming_the_lhs(tmp_path, capsys, monkeypatch):
    from orthosum import orthogonality

    walk = orthogonality._prefix_walk

    def wrong(*args):
        for hs, moments in walk(*args):
            yield hs, 1.5 * moments + 0.3

    # rhs regroups the same wrong moments, so only the sum norm can tell
    monkeypatch.setattr(orthogonality, "_prefix_walk", wrong)
    witness = _decompose_witness(tmp_path, capsys)
    assert list(witness) == ["lhs_vs_sum_norm"] and witness["lhs_vs_sum_norm"] > 1.0


def test_decompose_fails_on_a_wrong_resummation_naming_the_rhs(tmp_path, capsys, monkeypatch):
    import dataclasses

    from orthosum import orthogonality

    check = orthogonality.mobius_decomposition_check

    def wrong(*args):
        report = check(*args)
        return dataclasses.replace(report, rhs=report.rhs + 1.0, abs_err=abs(report.abs_err - 1.0))

    monkeypatch.setattr(orthogonality, "mobius_decomposition_check", wrong)
    witness = _decompose_witness(tmp_path, capsys)
    assert list(witness) == ["rhs_vs_lhs"] and witness["rhs_vs_lhs"] > 0.5


def test_decompose_refuses_an_overflowing_sum_norm_power_by_name(tmp_path, capsys, monkeypatch):
    from orthosum import cli

    # a finite norm whose float power overflows: 1e100 ** 4
    monkeypatch.setattr(cli, "family_sum_norm", lambda *args: 1e100)
    spec = spec_file(tmp_path, kind="random_matrix", n=2, d=1, p=4, dim=2, seed=5)
    code, out, err = run(capsys, "decompose", "--spec", spec)
    assert (code, out) == (2, "")
    assert err == "error: the family sum norm to the power p=4 is not finite\n"


def test_factorize_charges_the_factor_terms_to_the_budget(tmp_path, capsys):
    # the p * n^d = 2 factor terms fit a budget of 2; at 1 the table's p products of its
    # one index function, which bound them (p n^(dp) >= p n^d), are refused first, and
    # test_factorization pins the factor-term charge behind a given table
    spec = spec_file(tmp_path, kind="random_matrix", n=1, d=1, p=2, dim=1, seed=3)
    sigmas = tmp_path / "sigmas.json"
    sigmas.write_text(json.dumps(["1,2"]))
    argv = ["factorize", "--spec", spec, "--sigmas", str(sigmas)]
    code, _, _ = run(capsys, *argv, "--budget", "2")
    assert code == 0
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == 2
    assert out == ""
    assert "size limit: index-function products needs 2 items" in err


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


@pytest.mark.parametrize(
    "argv, shape",
    [
        (["dissociate", "--family", "canonical:10,1000000", "--p", "2"], "10^1000000"),
        (["dissociate", "--family", "canonical:1000000,1000000", "--p", "2"], "1000000^1000000"),
        (["ortho", "--spec", {"kind": "random_matrix", "n": 10, "d": 100000, "p": 2}], "10^100000"),
    ],
)
def test_huge_shapes_are_refused_by_their_shape_without_forming_it(tmp_path, capsys, argv, shape):
    argv = [spec_file(tmp_path, **a) if isinstance(a, dict) else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert err.startswith("size limit: family members needs " + shape + " items")


def test_canonical_word_letters_are_charged_before_the_words_are_built(capsys):
    argv = ["dissociate", "--family", "canonical:1,1000", "--p", "2", "--budget", "100"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "word letters needs 1000 items" in err


def _peak_traced(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "command, files",
    [
        # a family file on [1500]^2 holding one value
        (
            ["ortho", "--spec", "spec.json", "--budget", "10"],
            {"family.json": {"n": 1500, "d": 2, "values": {"1,1": {"dim": 1, "entries": [[1, 0]]}}},
             "spec.json": {"kind": "file", "path": "family.json", "p": 2}},
        ),
        # a word family whose keys imply [1500]^2
        (
            ["dissociate", "--family", "words.json", "--p", "2"],
            {"words.json": {"1,1": "g1", "1500,1500": "g2"}},
        ),
        # a partition of 1..3000000 with two elements
        (
            ["factorize", "--spec", "spec.json", "--sigmas", "sigmas.json"],
            {"sigmas.json": ["1|3000000"],
             "spec.json": {"kind": "random_matrix", "n": 2, "d": 1, "p": 4, "dim": 1}},
        ),
    ],
)
def test_validators_count_instead_of_enumerating(tmp_path, capsys, command, files):
    for name, content in files.items():
        if "path" in content:
            content = {**content, "path": str(tmp_path / content["path"])}
        (tmp_path / name).write_text(json.dumps(content))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    (code, out, err), peak = _peak_traced(lambda: run(capsys, *argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert peak < 4 << 20
