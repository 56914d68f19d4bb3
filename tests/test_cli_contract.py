"""Property test of the CLI contract on generated argv and input files.

Every run goes through ``cli.main`` in-process under a small ``--budget``:
the exit code is 0, 1 or 2; exit 2 prints nothing on stdout and no traceback,
and past argument parsing one stderr line; exit 0 and 1 print a strict-JSON
report with the README schema and nothing on stderr; and a valid
``random_matrix`` spec agrees with the numpy-only ``bench/oracle.py``.  A
warning counts as stderr output, as it would outside a test run.

Integer fields, the order p among them, take extreme values too (2^63,
10^100, ...), which the budget and the counting validators refuse before
anything of that size is built or any loop of that length runs.
"""

import contextlib
import importlib.util
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthosum.cli import main

_PATH = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
_SPEC = importlib.util.spec_from_file_location("bench_oracle", _PATH)
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

#: The agreement tolerance of the benchmark's oracle checks (relative).
ORACLE_RTOL = 1e-9
SCHEMA = {"command", "params", "seed", "results", "assertions"}
FAMILY_COMMANDS = ("ortho", "decompose", "factorize", "inequality", "khintchine")
KINDS = ("free_generators", "dissociate", "rademacher", "random_matrix", "martingale_rademacher")

EXTREME = (0, -1, 2**40, 2**63, 2**64, 10**6, 10**100)
extreme_int = st.sampled_from(EXTREME)
malformed = st.sampled_from([None, True, 2.5, 1e400, "2", [], {}])
small_p = st.sampled_from([-2, 0, 1, 2, 3, 4, 6])
bad_value = st.one_of(extreme_int, malformed, small_p)


def mutated(draw, obj, bad):
    """``obj``, or a third of the time a copy with one key set to a value from ``bad[key]``."""
    if draw(st.integers(0, 2)) < 2:
        return obj
    key = draw(st.sampled_from(sorted(bad)))
    return {**obj, key: draw(bad[key])}


def maybe_mutated(draw, obj, bad, well_formed):
    return obj if well_formed else mutated(draw, obj, bad)


@st.composite
def matrix(draw, dim=None, well_formed=False):
    dim = dim or draw(st.integers(1, 2))
    entries = [[draw(st.sampled_from([0.5, -1.0, 2.0])), 0.0]] * dim**2
    bad = dict.fromkeys(["dim", "entries"], bad_value)
    return maybe_mutated(draw, {"dim": dim, "entries": entries}, bad, well_formed)


#: Words on F_2, some of them reduced only by parsing; then words that an element
#: on F_2 refuses: a generator beyond 2, and two that do not parse.
GOOD_WORDS = ["g1", "G2 g1", "e", "g1 g1", "g1 G1 g2", "g2 G1 g1 G2"]
BAD_WORDS = ["g99999999999", "x1", "g1 e"]


@st.composite
def element(draw, dim=None, well_formed=False):
    words = GOOD_WORDS if well_formed else GOOD_WORDS + BAD_WORDS
    terms = [
        {"words": [draw(st.sampled_from(words))], "coeff": draw(matrix(dim, well_formed))}
        for _ in range(draw(st.integers(1, 3)))
    ]
    bad = dict.fromkeys(["arity", "n", "terms"], bad_value)
    return maybe_mutated(draw, {"arity": 1, "n": 2, "terms": terms}, bad, well_formed)


grid_key = st.lists(st.integers(1, 2), min_size=1, max_size=2).map(lambda g: ",".join(map(str, g)))
bad_key = st.sampled_from(["1500,1500", "0", "-1", "1,x", "", "9" * 30])


MIXED_KINDS = [[matrix, element], [element, matrix]]


@st.composite
def family_file(draw, mixed=False):
    """Two times in three well-formed values of one dim on the grid keys: matrices,
    elements, or the two in turn (mixed kinds, which a family file refuses).  With
    ``mixed``, always the two in turn, on a grid of at least two keys."""
    n, d = draw(st.integers(2 if mixed else 1, 2)), draw(st.integers(1, 2))
    keys = [",".join(map(str, g)) for g in oracle.grid(n, d)]
    well_formed = mixed or draw(st.integers(0, 2)) < 2
    if well_formed:
        dim = draw(st.integers(1, 2))
        kinds = draw(st.sampled_from(MIXED_KINDS if mixed else [[matrix], [element]] + MIXED_KINDS))
        values = {k: draw(kinds[i % len(kinds)](dim, well_formed=True)) for i, k in enumerate(keys)}
        return {"n": n, "d": d, "values": values}
    if draw(st.booleans()):
        keys = draw(st.lists(st.one_of(grid_key, bad_key), max_size=3))
    values = {k: draw(st.one_of(matrix(), element())) for k in keys}
    return mutated(draw, {"n": n, "d": d, "values": values}, dict.fromkeys(["n", "d"], bad_value))


word_file = st.one_of(
    st.dictionaries(
        st.one_of(grid_key, bad_key), st.sampled_from(["g1", "g2", "g1 g2", "G1", "e", "q"]),
        max_size=4,
    ),
    st.just({"1,1": "g1", "1500,1500": "g2"}),
    st.just(["g1"]),
)
sigmas_file = st.one_of(
    st.lists(st.sampled_from(["1,2", "1,2|3,4", "1,3|2,4", "1|2|3|4", "1|3000000",
                              "m=3000000:1", "1,1", "", "a"]), max_size=3),
    st.just([5]),
    st.just("1,2"),
)


@st.composite
def spec(draw):
    # a file spec as often as all other kinds, so a family file under a family command is common
    out = {
        "kind": draw(st.one_of(st.just("file"), st.sampled_from(KINDS))),
        "n": draw(st.integers(1, 3)),
        "d": draw(st.integers(1, 2)),
        "p": draw(st.sampled_from([2, 4])),
        "dim": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    if out["kind"] == "file" or out["kind"] == "dissociate" and draw(st.booleans()):
        out["path"] = "family.json" if out["kind"] == "file" else "words.json"
    return mutated(draw, out, dict.fromkeys(["n", "d", "p", "dim", "seed"], bad_value))


@st.composite
def invocation(draw):
    """(argv, files): the files are written to a fresh directory, argv names them."""
    files = {
        "family.json": draw(family_file()),
        "words.json": draw(word_file),
        "sigmas.json": draw(sigmas_file),
        "spec.json": draw(spec()),
    }
    command = draw(st.sampled_from(FAMILY_COMMANDS + ("dissociate", "mobius", "sublemma")))
    if command in FAMILY_COMMANDS:
        if draw(st.integers(0, 5)) == 5:  # a well-formed file spec on a mixed-kind family file
            files["family.json"] = draw(family_file(mixed=True))
            files["spec.json"] = {"kind": "file", "path": "family.json", "p": draw(st.sampled_from([2, 4]))}
        argv = [command, "--spec", "spec.json"]
        if command != "khintchine" and draw(st.integers(0, 2)) == 2:
            argv += ["--p", str(draw(small_p | extreme_int))]
        if command == "factorize" and draw(st.booleans()):
            argv += ["--sigmas", "sigmas.json"]
        if draw(st.integers(0, 3)) == 3:
            argv += ["--seed", str(draw(st.one_of(st.integers(0, 2**64 - 1), extreme_int)))]
    elif command == "dissociate":
        n, d = draw(extreme_int | st.integers(1, 3)), draw(extreme_int | st.integers(1, 2))
        family = draw(st.sampled_from([f"canonical:{n},{d}", "words.json", "canonical:2", "canonical:x,1"]))
        argv = [command, "--family", family, "--p", str(draw(small_p | extreme_int))]
    elif command == "mobius":
        argv = [command, "--m", str(draw(st.integers(-1, 6) | extreme_int))]
    else:
        p = draw(small_p | extreme_int)
        D = draw(st.sampled_from(["1.0", "0.5", "0", "-1", "nan", "inf", "1e-300", "1e300"]))
        argv = [command, "--p", str(p), "--D", D]
    return argv + ["--budget", str(draw(st.sampled_from([10000, 300, 10])))], files


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_cli(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in files.items():
            if name == "spec.json" and "path" in content:
                content = {**content, "path": str(root / content["path"])}
            (root / name).write_text(json.dumps(content))
        argv = [str(root / a) if a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    # outside a test run every warning would be printed to stderr
    shown = (warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, out.getvalue(), "".join(shown) + err.getvalue()


def effective_matrix_spec(argv, files):
    """(n, d, p, dim, seed) of a valid random_matrix spec, or None."""
    spec = files["spec.json"]
    if argv[0] not in FAMILY_COMMANDS or spec["kind"] != "random_matrix":
        return None
    fields = [spec[k] for k in ("n", "d", "p", "dim", "seed")]
    if "--p" in argv:
        fields[2] = int(argv[argv.index("--p") + 1])
    if "--seed" in argv:
        fields[4] = int(argv[argv.index("--seed") + 1])
    if not all(type(x) is int for x in fields):
        return None
    n, d, p, dim, seed = fields
    if 1 <= n <= 3 and 1 <= d <= 2 and 1 <= dim <= 2 and p in (2, 4, 6) and 0 <= seed < 2**64:
        return n, d, p, dim, seed
    return None


def close(got, want):
    return abs(got - want) <= ORACLE_RTOL * abs(want)


def check_against_oracle(report, shape):
    n, d, p, dim, seed = shape
    family = oracle.family_matrices("random_matrix", n, d, dim, seed)
    results = report["results"]
    assert report["seed"] == seed
    if "scale" in results:
        assert close(results["scale"], oracle.family_scale(family, p))
    if "lhs" in results:
        assert close(results["lhs"]["real"], oracle.sum_moment(family, p))
    if "A" in results:
        assert close(results["A"], oracle.sum_norm(family, p))
    if "C" in results:
        assert close(results["C"], oracle.max_flattening_norm(family, n, d, p))


def random_matrix_spec(n, d, p, dim=2, seed=5, **extra):
    return {"kind": "random_matrix", "n": n, "d": d, "p": p, "dim": dim, "seed": seed, **extra}


PLAIN_FILES = {
    "family.json": {"n": 1, "d": 1, "values": {"1": {"dim": 1, "entries": [[1.0, 0.0]]}}},
    "words.json": {"1": "g1", "2": "g2"},
    "sigmas.json": ["1,2|3,4"],
}


def spec_case(command, spec, budget):
    return [command, "--spec", "spec.json", "--budget", str(budget)], {**PLAIN_FILES, "spec.json": spec}


def one_member_spec(kind, p, **extra):
    return {"kind": kind, "n": 1, "d": 1, "p": p, **extra}


#: Runs that once ran work growing with d or p unbudgeted, raised MemoryError or
#: printed numpy warnings, and the start of the one stderr line each now prints.
REFUSED = [
    # 2^18 flattenings
    (spec_case("inequality", random_matrix_spec(1, 18, 2, dim=1), 100000),
     "size limit: flattening splits needs 2^18 items"),
    # about p/4 products of one-term elements
    (spec_case("ortho", one_member_spec("free_generators", 2**40), 1000),
     "size limit: even-norm products"),
    (spec_case("inequality", one_member_spec("rademacher", 2**40), 1000),
     "size limit: even-norm products"),
    (spec_case("khintchine", one_member_spec("rademacher", 2**40), 1000),
     "size limit: even-norm products"),
    # a label pool of p rows and a walk of p steps
    (spec_case("decompose", one_member_spec("rademacher", 2**40), 1000),
     "size limit: index-function products"),
    (spec_case("factorize", one_member_spec("rademacher", 2**40), 1000),
     "size limit: index-function products"),
    # overflowing products warned before the error named the scale
    (spec_case("ortho", one_member_spec("dissociate", 4096, dim=2), 1000),
     "size limit: even-norm products"),
    (spec_case("ortho", one_member_spec("dissociate", 4096, dim=2), 10000),
     "error: family scale is not finite"),
    (spec_case("ortho", one_member_spec("random_matrix", 4096, dim=2), 1000),
     "error: family scale is not finite"),
]


def pinned(cases):
    """Pin each case as an explicit example of a Hypothesis test."""
    def pin(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test
    return pin


@settings(max_examples=200, deadline=None, derandomize=True)
@given(invocation())
# the refusals that once enumerated or formed their whole input first
@example((["dissociate", "--family", "canonical:10,1000000", "--p", "2", "--budget", "10"],
          {**PLAIN_FILES, "spec.json": random_matrix_spec(1, 1, 2)}))
@example((["ortho", "--spec", "spec.json", "--budget", "10"],
          {**PLAIN_FILES, "spec.json": random_matrix_spec(10, 100000, 2)}))
@example((["ortho", "--spec", "spec.json", "--budget", "10"],
          {**PLAIN_FILES, "spec.json": {"kind": "rademacher", "n": 10, "d": 1, "p": 2}}))
@example((["ortho", "--spec", "spec.json", "--budget", "10"],
          {**PLAIN_FILES, "family.json": {"n": 1500, "d": 2, "values": {
              "1,1": {"dim": 1, "entries": [[1.0, 0.0]]}}},
           "spec.json": {"kind": "file", "path": "family.json", "p": 2}}))
@example((["dissociate", "--family", "words.json", "--p", "2", "--budget", "10"],
          {**PLAIN_FILES, "words.json": {"1,1": "g1", "1500,1500": "g2"},
           "spec.json": random_matrix_spec(1, 1, 2)}))
@example((["factorize", "--spec", "spec.json", "--sigmas", "sigmas.json", "--budget", "3000"],
          {**PLAIN_FILES, "sigmas.json": ["1|3000000"], "spec.json": random_matrix_spec(2, 1, 4)}))
@example((["ortho", "--spec", "spec.json", "--budget", "300"],
          {**PLAIN_FILES, "spec.json": random_matrix_spec(1, 10**6, 2, dim=1)}))
@example((["dissociate", "--family", "canonical:1,1000", "--p", "2", "--budget", "300"],
          {**PLAIN_FILES, "spec.json": random_matrix_spec(1, 1, 2)}))
# found by the generator: a negative exponent reached the budget guard
@example((["dissociate", "--family", "canonical:0,-1", "--p", "-2", "--budget", "10000"],
          {**PLAIN_FILES, "spec.json": random_matrix_spec(1, 1, 2)}))
# D at p = 172 (once an OverflowError traceback), a count past 4300 digits and a
# negative matrix dim (once Python's and numpy's messages)
@example((["inequality", "--spec", "spec.json", "--budget", "1000"],
          {**PLAIN_FILES, "spec.json": {"kind": "rademacher", "n": 1, "d": 1, "p": 172}}))
@example((["ortho", "--spec", "spec.json", "--budget", "1000"],
          {**PLAIN_FILES, "spec.json": random_matrix_spec(1, 1, 2, dim=10**3000)}))
@example((["ortho", "--spec", "spec.json", "--budget", "1000"],
          {**PLAIN_FILES, "family.json": {"n": 1, "d": 1, "values": {
              "1": {"dim": -1, "entries": [[1.0, 0.0]]}}},
           "spec.json": {"kind": "file", "path": "family.json", "p": 2}}))
# a finite member norm whose 10th power overflows a float (once an OverflowError traceback)
@example((["ortho", "--spec", "spec.json", "--budget", "1000"],
          {**PLAIN_FILES, "family.json": {"n": 1, "d": 1, "values": {
              "1": {"dim": 1, "entries": [[6.6906999803886e30, 0.0]]}}},
           "spec.json": {"kind": "file", "path": "family.json", "p": 10}}))
# a family file of matrix and group-algebra values, in both orders (once a traceback)
@example((["ortho", "--spec", "spec.json", "--budget", "1000"],
          {**PLAIN_FILES, "family.json": {"n": 2, "d": 1, "values": {
              "1": {"dim": 1, "entries": [[1.0, 0.0]]},
              "2": {"arity": 1, "n": 2, "terms": [{"words": ["g1"], "coeff": {
                  "dim": 1, "entries": [[1.0, 0.0]]}}]}}},
           "spec.json": {"kind": "file", "path": "family.json", "p": 2}}))
@example((["ortho", "--spec", "spec.json", "--budget", "1000"],
          {**PLAIN_FILES, "family.json": {"n": 2, "d": 1, "values": {
              "1": {"arity": 1, "n": 2, "terms": [{"words": ["g1"], "coeff": {
                  "dim": 1, "entries": [[1.0, 0.0]]}}]},
              "2": {"dim": 1, "entries": [[1.0, 0.0]]}}},
           "spec.json": {"kind": "file", "path": "family.json", "p": 2}}))
# valid random_matrix reports against the oracle
@example((["inequality", "--spec", "spec.json", "--budget", "3000"],
          {**PLAIN_FILES, "spec.json": random_matrix_spec(2, 2, 4)}))
@example((["decompose", "--spec", "spec.json", "--p", "4", "--budget", "3000"],
          {**PLAIN_FILES, "spec.json": random_matrix_spec(3, 1, 2, seed=9)}))
# extreme d and p: work that grew with them unbudgeted, or warnings before the error
@pinned([case for case, _ in REFUSED])
def test_cli_keeps_its_contract_on_generated_input(case):
    argv, files = case
    code, out, err = run_cli(argv, files)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("usage:") or err.count("\n") == 1, err
        return
    assert err == ""
    report = json.loads(out, parse_constant=_reject_constant)
    assert set(report) == SCHEMA
    assert report["command"] == argv[0]
    assert all({"name", "ok"} <= set(a) for a in report["assertions"])
    assert (code == 0) == all(a["ok"] for a in report["assertions"])
    shape = effective_matrix_spec(argv, files)
    if shape is not None:
        check_against_oracle(report, shape)


@st.composite
def valid_matrix_invocation(draw):
    """A valid random_matrix spec under one family command, for the oracle."""
    n, d, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.sampled_from([2, 4]))
    spec = random_matrix_spec(n, d, p, dim=draw(st.integers(1, 2)), seed=draw(st.integers(0, 2**64 - 1)))
    command = draw(st.sampled_from(FAMILY_COMMANDS))
    # the 3^8 index functions of n = 3, d = 2, p = 4 take p products each
    argv = [command, "--spec", "spec.json", "--budget", "30000"]
    sigmas = ["1,2"] * d
    if command == "factorize":
        if p == 4:
            sigmas = draw(st.lists(st.sampled_from(["1,2|3,4", "1,3|2,4", "1|2,3|4", "1,2,3,4"]),
                                   min_size=d, max_size=d))
        argv += ["--sigmas", "sigmas.json"]
    return argv, {**PLAIN_FILES, "sigmas.json": sigmas, "spec.json": spec}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(valid_matrix_invocation())
def test_valid_random_matrix_reports_agree_with_the_oracle(case):
    argv, files = case
    code, out, err = run_cli(argv, files)
    assert code in (0, 1), err
    check_against_oracle(json.loads(out, parse_constant=_reject_constant), effective_matrix_spec(*case))


@pytest.mark.parametrize("case, start", REFUSED)
def test_extreme_shapes_are_refused_at_once_on_one_stderr_line(case, start):
    began = time.perf_counter()
    code, out, err = run_cli(*case)
    assert time.perf_counter() - began < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(start) and err.count("\n") == 1, err
