"""Compare two checkouts report by report over every benchmark report of some seeds.

    python3 tools/compare_reports.py PARENT_DIR CHANGE_DIR --seeds 1 2

Each checkout runs in one subprocess of its own: it imports ``orthosum`` from
its ``src/`` and the workloads from its ``bench/workloads.py``, writes each
workload's spec and partition files for every seed into a temporary
directory, and runs every report as an in-process ``orthosum.cli.main`` call
with BLAS pinned to one thread, as ``bench/run.py`` does.  Besides those it
runs fixed lists once: ``ORTHO_SPECS``, under the workload name
``ortho``, since no benchmark workload runs ``ortho``, yet its
``max_abs_violation`` is the number a change to the moment walk can move; and
``FACTORIZE_SPECS``, under ``factorize_all``, every partition tuple of shapes
the benchmark's ``factorize`` workload does not reach; and ``DECOMPOSE_SPECS``,
under ``decompose_dims``, moment tables at member sides, in runs and at odd d
the benchmark's ``decompose`` (d = 2, p = 6 at side 3, one run) does not
reach; and ``INEQUALITY_SPECS``, under ``inequality_kinds``, one main-estimate
report per benchmark kind at p = 4 and one at p = 8, at fixed seeds; and
``MULTI_BATCH_SPECS``, under ``inequality_batches``, a martingale report at
p = 8 whose products merge over several batches (of the benchmark's seed-1
reports only the five ``martingale_rademacher`` (2, 2, 6) ``inequality``
reports do: the square of B's gram is 81 products of 32 x 32 in two batches);
and the word
files, which no benchmark report parses: ``FILE_SPECS``, group-algebra
family files of multi-term, unreduced and cancelling words, under
``file_ortho``, ``file_decompose`` and ``file_inequality``, and
``WORD_FILE_SPECS``, word-family files of unreduced words, under
``file_dissociate``.  A spec's ``family`` is written to a file of its own: the
spec file names it as ``path``, or ``dissociate --family`` reads it.
Nothing under ``bench/`` is written.  Two reports match when their exit codes
are equal and their JSON is equal outside ``params``, which holds each
checkout's own file paths.  The tool prints how many reports differ and names
the first few; it exits 0 when none differ, 1 when some do and 2 when a
checkout fails to run.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

#: Runs in the checkout's directory; argv[1] is the JSON list of seeds and
#: argv[2] the JSON object ``EXTRA_REPORTS``.
_RUNNER = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path

sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "bench")]
from orthosum import cli
from workloads import WORKLOADS

records = []

def run(workload, seed, index, spec, argv, out):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    report = out.read_text() if out.exists() else None
    records.append({"workload": workload, "seed": seed, "index": index,
                    "spec": spec, "rc": rc, "report": report})

for seed in json.loads(sys.argv[1]):
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for index, job in enumerate(workload.jobs(seed, Path(tmp))):
                run(name, seed, index, job.spec, job.argv, job.out)
with tempfile.TemporaryDirectory() as tmp:
    for workload, (command, specs) in json.loads(sys.argv[2]).items():
        for index, spec in enumerate(specs):
            path = Path(tmp) / f"{workload}-spec-{index}.json"
            out = Path(tmp) / f"{workload}-{index}.json"
            written = dict(spec)
            if "family" in spec:
                family = Path(tmp) / f"{workload}-family-{index}.json"
                family.write_text(json.dumps(written.pop("family")))
                written["path"] = str(family)
            path.write_text(json.dumps(written))
            argv = [command, "--spec", str(path), "--out", str(out)]
            if command == "dissociate":
                argv = [command, "--family", str(family), "--p", str(spec["p"]), "--out", str(out)]
            run(workload, spec["seed"], index, spec, argv, out)
json.dump(records, sys.stdout)
"""

#: The ``ortho`` reports run besides the benchmark's: Rademacher martingales,
#: whose injective moments multiply out to exact zeros, a Rademacher family
#: on 64 x 64 members, dense random members whose last products are traced in
#: blocks (these exit 1, with non-zero violations), and the two word-based
#: kinds, which take the group-algebra walk.
ORTHO_SPECS = (
    [
        {"kind": "martingale_rademacher", "n": n, "d": 1, "p": 4, "dim": 2, "seed": 3}
        for n in (4, 5, 6)
    ]
    + [{"kind": "rademacher", "n": 3, "d": 2, "p": 2, "dim": 1, "seed": 5}]
    + [
        {"kind": "random_matrix", "n": 4, "d": 1, "p": 4, "dim": dim, "seed": 7}
        for dim in (8, 16, 24)
    ]
    + [
        {"kind": "free_generators", "n": 4, "d": 1, "p": 4, "dim": 2, "seed": 0},
        {"kind": "dissociate", "n": 3, "d": 2, "p": 2, "dim": 2, "seed": 11},
    ]
)

#: The all-tuple ``factorize`` reports run besides the benchmark's, whose only
#: ``factorize`` shape is d = 2, p = 4: one coordinate with six positions, and
#: three coordinates (2744 partition tuples).
FACTORIZE_SPECS = [
    {"kind": "random_matrix", "n": 2, "d": 1, "p": 6, "dim": 2, "seed": 13},
    {"kind": "random_matrix", "n": 2, "d": 3, "p": 4, "dim": 1, "seed": 17},
]

#: The ``decompose`` reports run besides the benchmark's: member sides below,
#: at and above the 8 x 8 blocks of the traced last factor, on both sides of
#: side 4, where the traced diagonals stop being summed in whole-array adds,
#: one shape whose 9^4 index functions at side 8 the walk splits into
#: several runs, and two of odd d, where the non-injective labels weigh -1.
DECOMPOSE_SPECS = [
    {"kind": "random_matrix", "n": 2, "d": 2, "p": 4, "dim": dim, "seed": 19}
    for dim in (1, 2, 3, 4, 5, 8, 12, 16)
] + [
    {"kind": "random_matrix", "n": 3, "d": 2, "p": 4, "dim": 8, "seed": 23},
    {"kind": "random_matrix", "n": 2, "d": 1, "p": 8, "dim": 3, "seed": 29},
    {"kind": "random_matrix", "n": 2, "d": 3, "p": 4, "dim": 2, "seed": 31},
]

#: The ``inequality`` reports run besides the benchmark's, whose spec seeds
#: change with its seed: each of its four kinds once at p = 4, martingale n = 6
#: (six 128 x 128 members, the benchmark's heaviest report) among them, and
#: one at p = 8, where B pairs the square of the 13-word gram of side 32.  The
#: two martingale seeds are ones at which summing B's paired diagonals in
#: another order moves the last bit of B.
INEQUALITY_SPECS = [
    {"kind": "martingale_rademacher", "n": 6, "d": 1, "p": 4, "dim": 2, "seed": 44},
    {"kind": "free_generators", "n": 2, "d": 2, "p": 4, "dim": 2, "seed": 47},
    {"kind": "rademacher", "n": 3, "d": 2, "p": 4, "dim": 1, "seed": 53},
    {"kind": "dissociate", "n": 3, "d": 2, "p": 4, "dim": 2, "seed": 59},
    {"kind": "martingale_rademacher", "n": 4, "d": 1, "p": 8, "dim": 2, "seed": 41},
]

#: ``inequality`` reports whose products merge over several batches: B's gram
#: of martingale n = 5, 25 products of 64 x 64 coefficients, takes two, so a
#: merge that misplaces a row across a batch boundary moves B.
MULTI_BATCH_SPECS = [
    {"kind": "martingale_rademacher", "n": 5, "d": 1, "p": 8, "dim": 2, "seed": 1},
]


def _term(words: list[str], *entries: tuple[float, float]) -> dict:
    """A group-algebra term: one word per factor and a coefficient of [re, im] entries."""
    dim = {1: 1, 4: 2}[len(entries)]
    return {"words": words, "coeff": {"dim": dim, "entries": [list(z) for z in entries]}}


#: Group-algebra family files whose words parse through free reduction: each
#: member has several terms, some words reduce (``g1 G1 g2`` is ``g2``, ``g2
#: G2`` the identity) and some terms merge into one word.  The first is one
#: index at p = 4 with 2 x 2 coefficients; the second two indices at p = 2 on
#: F_3 x F_3, its members on disjoint words, so p-orthogonal.
FILE_SPECS = [
    {
        "kind": "file", "n": 2, "d": 1, "p": 4, "seed": 37,
        "family": {"n": 2, "d": 1, "values": {
            "1": {"arity": 1, "n": 2, "terms": [
                _term(["g1 G1 g2"], (1.0, 0.0), (0.5, -0.5), (0.0, 0.25), (-1.0, 0.0)),
                _term(["g2"], (0.5, 0.0), (0.0, 0.0), (0.25, 0.5), (1.0, -0.25)),
                _term(["g1 g1 G1"], (0.0, 1.0), (-0.5, 0.0), (0.5, 0.5), (0.0, -1.0)),
            ]},
            "2": {"arity": 1, "n": 2, "terms": [
                _term(["g2 G2"], (2.0, 0.0), (0.0, 0.0), (0.0, 0.0), (-1.0, 0.5)),
                _term(["G1 g2 G2"], (0.25, -0.25), (1.0, 0.0), (0.0, 0.5), (0.5, 0.0)),
                _term(["G1"], (-0.25, 0.0), (0.0, 0.0), (0.5, 0.0), (0.0, 0.0)),
            ]},
        }},
    },
    {
        "kind": "file", "n": 2, "d": 2, "p": 2, "seed": 41,
        "family": {"n": 2, "d": 2, "values": {
            f"{i},{j}": {"arity": 2, "n": 3, "terms": [
                _term([f"g{i}", f"G3 g3 g{j}"], (1.0, -0.5)),
                _term([f"g{i} g3", f"g{j} g1 G1"], (0.5, float(i - j))),
                _term([f"g{i} g3 G3", f"g{j}"], (-0.25, 0.25 * i)),
            ]}
            for i in (1, 2) for j in (1, 2)
        }},
    },
]

#: ``dissociate`` on word-family files of unreduced words: ``g1 G2 g2`` and
#: ``g2 g1 G1`` reduce to the free generators (2-dissociate), ``g1 g2 G2``
#: and ``G3 g3 g1`` both to g1 (not, with a witness).
WORD_FILE_SPECS = [
    {"p": 4, "seed": 0, "family": {"1": "g1 G2 g2", "2": "g2 g1 G1"}},
    {"p": 2, "seed": 0, "family": {"1": "g1 g2 G2", "2": "G3 g3 g1"}},
]

#: The extra reports by workload name: the CLI command, and its specs.
EXTRA_REPORTS = {
    "ortho": ("ortho", ORTHO_SPECS),
    "factorize_all": ("factorize", FACTORIZE_SPECS),
    "decompose_dims": ("decompose", DECOMPOSE_SPECS),
    "inequality_kinds": ("inequality", INEQUALITY_SPECS),
    "inequality_batches": ("inequality", MULTI_BATCH_SPECS),
    "file_ortho": ("ortho", FILE_SPECS),
    "file_decompose": ("decompose", FILE_SPECS),
    "file_inequality": ("inequality", FILE_SPECS),
    "file_dissociate": ("dissociate", WORD_FILE_SPECS),
}

#: Differences named in the printout.
SHOWN = 5
_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def collect(checkout: Path, seeds: list[int]) -> list[dict]:
    """Every benchmark report of ``seeds`` in ``checkout``, then the ``EXTRA_REPORTS``.

    Each record holds the report's key, spec, exit code and text.
    """
    env = dict(os.environ, **dict.fromkeys(_THREADS, "1"))
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-c", _RUNNER, json.dumps(seeds), json.dumps(EXTRA_REPORTS)]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: report runner exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def _outside_params(text: str | None) -> str | None:
    if text is None:
        return None
    report = json.loads(text)
    report.pop("params", None)
    return json.dumps(report, sort_keys=True)


def _label(record: dict) -> str:
    spec = json.dumps(record["spec"], sort_keys=True)
    return f"{record['workload']} seed {record['seed']} report {record['index']} {spec}"


def differences(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per report that is missing on a side or differs, in the parent's order."""
    key = lambda r: (r["workload"], r["seed"], r["index"])
    theirs = {key(r): r for r in change}
    out = []
    for mine in parent:
        other = theirs.pop(key(mine), None)
        if other is None:
            out.append(f"{_label(mine)}: missing in the change")
        elif mine["rc"] != other["rc"]:
            out.append(f"{_label(mine)}: exit code {mine['rc']} != {other['rc']}")
        elif _outside_params(mine["report"]) != _outside_params(other["report"]):
            out.append(f"{_label(mine)}: report differs outside params")
    out += [f"{_label(r)}: missing in the parent" for r in theirs.values()]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    try:
        parent, change = (collect(c, args.seeds) for c in (args.parent, args.change))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    diff = differences(parent, change)
    seeds = " ".join(map(str, args.seeds))
    print(f"{len(diff)} of {len(parent)} reports differ (seeds {seeds})")
    for line in diff[:SHOWN]:
        print(f"  {line}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
