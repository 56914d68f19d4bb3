"""Compare two checkouts report by report over every benchmark report of some seeds.

    python3 tools/compare_reports.py PARENT_DIR CHANGE_DIR --seeds 1 2

Each checkout runs in one subprocess of its own: it imports ``orthosum`` from
its ``src/`` and the workloads from its ``bench/workloads.py``, writes each
workload's spec and partition files for every seed into a temporary
directory, and runs every report as an in-process ``orthosum.cli.main`` call
with BLAS pinned to one thread, as ``bench/run.py`` does.  Besides those it
runs three fixed lists once: ``ORTHO_SPECS``, under the workload name
``ortho``, since no benchmark workload runs ``ortho``, yet its
``max_abs_violation`` is the number a change to the moment walk can move; and
``FACTORIZE_SPECS``, under ``factorize_all``, every partition tuple of shapes
the benchmark's ``factorize`` workload does not reach; and ``DECOMPOSE_SPECS``,
under ``decompose_dims``, moment tables at member sides, in runs and at odd d
the benchmark's ``decompose`` (d = 2, p = 6 at side 3, one run) does not
reach.
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
            path.write_text(json.dumps(spec))
            argv = [command, "--spec", str(path), "--out", str(out)]
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

#: The extra reports by workload name: the CLI command, and its specs.
EXTRA_REPORTS = {
    "ortho": ("ortho", ORTHO_SPECS),
    "factorize_all": ("factorize", FACTORIZE_SPECS),
    "decompose_dims": ("decompose", DECOMPOSE_SPECS),
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
