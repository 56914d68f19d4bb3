"""orthosum benchmark: seeded CLI reports, timed end to end or traced per layer.

    python3 bench/run.py --workload decompose|factorize|inequality \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  One run sets up (imports orthosum, writes the workload's
spec files, runs one untimed warm-up report), then works through the fixed
report list of the workload in whole passes, each report an in-process
``orthosum.cli.main([...])`` call, until another pass would not fit in S
seconds and at least MIN_REPORTS reports have run.  Every report is checked
outside its timed call.  With ``--trace 1`` each report runs twice in a pass,
untraced and traced.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The same
object and, for a traced run, the spans are also written under ``bench/out``.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
#: Every run times at least this many reports, so its p90 has ten beyond it.
MIN_REPORTS = 100
#: Set-ups behind the set-up median at least: the run's own, then one in a
#: fresh process after each timed pass.
SETUP_SAMPLES = 5


def setup(workload: str, seed: int, workdir: Path):
    """Import orthosum, write the inputs and run one warm-up report.

    Returns the seconds this took, the CLI entry point, the workload and its jobs.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from orthosum import cli

    import workloads

    wl = workloads.WORKLOADS[workload]
    jobs = wl.jobs(seed, workdir)
    cli.main(jobs[0].argv)  # checked with the rest in the passes
    return time.perf_counter() - t0, cli, wl, jobs


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--probe-setup",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def read_report(wl, job, rc: int) -> tuple[dict | None, bool]:
    """Read back and check one report; returns it and whether it failed."""
    try:
        report = json.loads(job.out.read_text())
        job.out.unlink()
    except FileNotFoundError:
        report = None
    reason = wl.check(job, rc, report)
    if reason:
        print(f"{' '.join(job.argv)}: {reason}", file=sys.stderr)
    return report, bool(reason)


def run_pass(cli, wl, jobs: list, times: list[float]) -> tuple[float, int]:
    """Run every job once, then check the reports.

    Appends each report's wall time to ``times``; returns the pass's wall
    time and the number of failed reports.
    """
    clock = time.perf_counter
    codes = []
    start = clock()
    for job in jobs:
        t0 = clock()
        codes.append(cli.main(job.argv))
        times.append(clock() - t0)
    wall = clock() - start
    return wall, sum(read_report(wl, job, rc)[1] for job, rc in zip(jobs, codes))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(cli, wl, jobs, seconds: float, setup_s: float, probe) -> dict:
    """Timed passes, each followed by one set-up in a fresh process."""
    times: list[float] = []
    walls: list[float] = []
    setup_samples = [setup_s]
    failed = 0
    start = time.perf_counter()
    while True:
        wall, bad = run_pass(cli, wl, jobs, times)
        walls.append(wall)
        failed += bad
        setup_samples.append(probe())
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_REPORTS and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(probe())
    problem = wl.final_check(jobs)
    if problem:
        print(problem, file=sys.stderr)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "reports_per_s": (len(times) / sum(walls), "1/s"),
        "report_p50_s": (percentile(times, 50), "s"),
        "report_p90_s": (percentile(times, 90), "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    return {
        "correct": problem is None,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def trace(cli, wl, jobs, seconds: float, spans_path: Path) -> dict:
    """Traced passes while the time lasts; each report runs untraced and traced.

    The per-layer metrics are totals per pass, averaged over the passes.  The
    overhead is the traced runs' wall time over the untraced runs'; running
    the two back to back keeps drift in host speed out of it.
    """
    import tracer

    tr = tracer.Tracer()
    clock = time.perf_counter
    attempted = failed = 0
    wall = {False: 0.0, True: 0.0}
    report: dict[bool, dict | None] = {}
    per_pass: list[dict] = []
    spans: list = []
    problems = []
    start = clock()
    while True:
        for i, job in enumerate(jobs):
            # alternate which runs first: a repeat finds warmer caches
            for traced in (i % 2 == 1, i % 2 == 0):
                with tr.installed() if traced else contextlib.nullcontext():
                    t0 = clock()
                    rc = cli.main(job.argv)
                    wall[traced] += clock() - t0
                report[traced], bad = read_report(wl, job, rc)
                attempted += 1
                failed += bad
            plain, traced = report[False], report[True]
            if plain and traced and plain["results"] != traced["results"]:
                problems.append(f"traced results differ on {' '.join(job.argv)}")
        taken = tr.take()
        spans.extend(taken)
        per_pass.append(tracer.layer_metrics(taken))
        elapsed = clock() - start
        if elapsed * (len(per_pass) + 1) / len(per_pass) > seconds:
            break
    for name in tracer.COUNTS:
        if len({m[name] for m in per_pass}) != 1:
            problems.append(f"{name} differs between passes: {[m[name] for m in per_pass]}")
    problem = wl.final_check(jobs)
    if problem:
        problems.append(problem)
    for p in problems:
        print(p, file=sys.stderr)
    tracer.Tracer.dump(spans, spans_path)
    metrics = {}
    for name in per_pass[0]:
        if name in tracer.COUNTS:
            value = per_pass[0][name]
        else:
            value = statistics.mean(m[name] for m in per_pass)
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead"] = {"value": wall[True] / wall[False], "unit": "ratio"}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("decompose", "factorize", "inequality")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "orthosum" / "__init__.py").is_file():
        print(f"no orthosum package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s, cli, wl, jobs = setup(args.workload, args.seed, workdir)
        if Path(cli.__file__).resolve().parent.parent != SRC:
            print(f"orthosum was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.probe_setup:
            print(setup_s)
            return 0
        label = f"{args.workload}-seed{args.seed}"
        if args.trace:
            result = trace(cli, wl, jobs, args.seconds, OUT_DIR / f"{label}.spans.json")
        else:
            probe = functools.partial(probe_setup, args.workload, args.seed)
            result = measure(cli, wl, jobs, args.seconds, setup_s, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    (OUT_DIR / f"{label}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
