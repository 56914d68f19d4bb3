"""Committed pins of the extra-list reports, and the check against them.

    python3 tools/report_digests.py

runs every report of ``compare_reports.EXTRA_REPORTS`` in this checkout, as
``tools/compare_reports.py`` runs them, and writes ``tests/report_digests.json``:
each record with its report's JSON outside ``params``, beside the build that
made them (numpy version, BLAS, the SIMD extensions numpy found on the CPU
and, where threadpoolctl is installed, the OpenBLAS cores in use).  A change
that moves a number on purpose writes the manifest again in the same commit
and names the reports that moved.

:func:`first_difference` is the tier-1 check.  On the recorded build every
report must keep its bits.  On another build, a CPU included (OpenBLAS picks
its kernels from the CPU it runs on), the last bits of a report may move, so
there every number is compared instead, within ``RTOL`` of the larger of its
pinned value and the report's ``scale``: rounding residues such as ``abs_err``
are small against the numbers they compare, and are measured against that
scale.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from compare_reports import collect, differences  # this script's directory is on sys.path

MANIFEST = Path(__file__).resolve().parent.parent / "tests" / "report_digests.json"
RTOL = 1e-12


def numpy_build() -> dict:
    """The numpy version, BLAS build and CPU kernels of this interpreter."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        cores = None
    else:
        pools = threadpool_info()
        cores = sorted(i.get("architecture", "") for i in pools if i["internal_api"] == "openblas")
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd": config["SIMD Extensions"]["found"],
        "openblas_cores": cores,
    }


def pinned(record: dict) -> dict:
    """A record of ``compare_reports.collect`` as the manifest keeps it, params left out."""
    report = None if record["report"] is None else json.loads(record["report"])
    if report is not None:
        report.pop("params", None)
    return {**record, "report": report}


def _close(got, want, scale: float) -> bool:
    """Equal JSON, but that each float is within RTOL of max(|want|, scale)."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_close(got[k], want[k], scale) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, scale) for g, w in zip(got, want))
        )
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= RTOL * max(abs(want), scale)
    return got == want


def first_difference(records: list[dict], manifest: dict, build: dict) -> str | None:
    """The first of ``records`` that differs from ``manifest``, named; None when all match.

    ``build`` is the build that made ``records``: on the manifest's, reports
    must be equal; on another, a report within RTOL of its pin counts as it.
    """
    pins = [_unpinned(pin, pin["report"]) for pin in manifest["reports"]]
    if build != manifest["build"]:
        key = lambda r: (r["workload"], r["seed"], r["index"])
        near = {key(p): p["report"] for p in manifest["reports"]}
        records = [_snapped(r, near.get(key(r))) for r in records]
    diffs = differences(pins, records)
    return diffs[0] if diffs else None


def _snapped(record: dict, want) -> dict:
    """``record`` with its pinned report ``want`` in place of its own, if within RTOL of it."""
    got = pinned(record)["report"]
    results = (want or {}).get("results")
    scale = results.get("scale", 0.0) if isinstance(results, dict) else 0.0
    return _unpinned(record, want) if _close(got, want, scale) else record


def _unpinned(record: dict, report) -> dict:
    """``record`` with ``report`` as ``compare_reports.collect`` gives it: text, or None."""
    return {**record, "report": None if report is None else json.dumps(report)}


def main() -> int:
    pins = [pinned(r) for r in collect(MANIFEST.parent.parent, [])]
    head = json.dumps({"build": numpy_build()})[:-1]
    lines = ",\n".join(json.dumps(p, sort_keys=True) for p in pins)
    MANIFEST.write_text(f'{head}, "reports": [\n{lines}\n]}}\n')
    print(f"wrote {len(pins)} report pins to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
