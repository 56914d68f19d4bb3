"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload inequality \
        --seed 1 --pairs 10

Each pair runs ``python3 bench/run.py`` once in each checkout, for the
``run_seconds`` of ``BENCHMARK.json``, the parent first in even pairs and the
change first in odd ones, so that a drift in host speed does not fall on one
side alone.  Every run's end-to-end metrics are printed as it finishes.  At
the end, for each end-to-end metric of ``BENCHMARK.json``, the table gives
each side's median and quartiles, the pairs the change won (ties count for
neither side) and a verdict:

* ``gain``: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's quartile distance;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound, taken relative to the parent's median;
* ``unresolved``: either side spreads, as (q3 - q1) / median, wider than the
  bound, and not every run of the change beats every run of the parent;
* ``no worse``: none of the above.

A ``gain`` does not stand when a larger share of the change's attempted
reports failed than of the parent's; the verdict then reads ``more failed``.
A gain is claimed on at least ten pairs; a verdict from fewer only describes
the runs made.
Quartiles are ``statistics.quantiles(values, n=4)``, as bench/README.md takes
them.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as bench/README.md takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare the runs of one metric, paired by position; see the module docstring."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change run per pair")
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (cm - pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if 10 * wins >= 9 * len(parent) and gap > p3 - p1:
        word = "gain"
    elif -gap > bound * abs(pm):
        word = "worse"
    elif spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        word = "unresolved"
    else:
        word = "no worse"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "pairs": len(parent),
        "verdict": word,
    }


def table(runs: dict[str, list[dict]], metrics: list[dict]) -> list[dict]:
    """One verdict per end-to-end metric over both sides' run results.

    A ``gain`` becomes ``more failed`` when the change failed a larger share
    of its attempted reports than the parent did.
    """
    failed, attempted = (
        {side: sum(r[key] for r in runs[side]) for side in SIDES}
        for key in ("failed", "attempted")
    )
    more_failed = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    rows = []
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES}
        v = verdict(values["parent"], values["change"], m["better"], m["bound"])
        row = {"name": m["name"], **v}
        if row["verdict"] == "gain" and more_failed:
            row["verdict"] = "more failed"
        rows.append(row)
    return rows


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; its closing JSON object."""
    cmd = [
        sys.executable, "bench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed, seconds)
            runs[side].append(result)
            values = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics
            )
            print(
                f"pair {i + 1} {side}: failed={result['failed']}/{result['attempted']} {values}",
                flush=True,
            )

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, {seconds:g} s runs")
    print("metric | parent q1 / median / q3 | change q1 / median / q3 | wins | verdict")
    for row in table(runs, metrics):
        cells = [" / ".join(f"{x:.4g}" for x in row[side]) for side in SIDES]
        wins = f"{row['wins']}/{row['pairs']}"
        print(f"{row['name']} | {cells[0]} | {cells[1]} | {wins} | {row['verdict']}")
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: failed {failed} of {attempted} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
