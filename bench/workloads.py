"""The three benchmark workloads: their seeded report lists and their checks.

A workload turns the benchmark seed into a fixed list of ``Job``s (CLI argv
plus the spec behind it), writes the spec and partition files the program
reads, and checks each report against ``oracle`` and the method's own
properties.  ``check`` returns None for a good report and a reason otherwise.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import oracle

#: Relative tolerance between a report and an oracle value.
ORACLE_RTOL = 1e-9


@dataclass
class Job:
    argv: list[str]
    out: Path
    spec: dict
    sigmas: tuple = ()
    expect: dict = field(default_factory=dict)


def _close(got: float, want: float, rtol: float = ORACLE_RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _complex(value: dict) -> complex:
    return complex(value["real"], value["imag"])


def _oracle_family(spec: dict) -> oracle.Family:
    return oracle.family_matrices(spec["kind"], spec["n"], spec["d"], spec["dim"], spec["seed"])


def _spec_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.getrandbits(63) for _ in range(count)]


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _spread(jobs: list[Job], key, rng: random.Random) -> list[Job]:
    """Reorder so that the copies of each kind of report are spread evenly
    through a pass, and a slow stretch of the host does not fall on one kind
    alone.  The first job stays first: it is also the warm-up report."""
    groups: dict = {}
    for job in jobs[1:]:
        groups.setdefault(key(job), []).append(job)
    placed = []
    for members in groups.values():
        offset = rng.random()
        placed += [((k + offset) / len(members), job) for k, job in enumerate(members)]
    placed.sort(key=lambda pair: pair[0])
    return jobs[:1] + [job for _, job in placed]


def _report_status(rc: int, report: dict | None) -> str | None:
    if rc != 0 or report is None:
        return f"exit code {rc}"
    bad = [a["name"] for a in report["assertions"] if not a["ok"]]
    return f"failed assertions {bad}" if bad else None


class Workload:
    name: str

    def final_check(self, jobs: list[Job]) -> str | None:
        """A check outside the timed passes, once per run; None when it holds."""
        return None


class Decompose(Workload):
    """Moment decomposition of random matrix families, one spec seed per report."""

    name = "decompose"
    reports = 50
    shape = {"kind": "random_matrix", "n": 2, "d": 2, "p": 6, "dim": 3}

    def jobs(self, seed: int, workdir: Path) -> list[Job]:
        out = []
        for i, spec_seed in enumerate(_spec_seeds(self.name, seed, self.reports)):
            spec = dict(self.shape, seed=spec_seed)
            path = _write_json(workdir / f"spec-{i}.json", spec)
            report = workdir / f"report-{i}.json"
            out.append(Job(["decompose", "--spec", path, "--out", str(report)], report, spec))
        return out

    def check(self, job: Job, rc: int, report: dict | None) -> str | None:
        status = _report_status(rc, report)
        if status:
            return status
        if not job.expect:
            fam, p = _oracle_family(job.spec), job.spec["p"]
            job.expect = {"moment": oracle.sum_moment(fam, p), "scale": oracle.family_scale(fam, p)}
        res, want = report["results"], job.expect
        lhs, rhs = _complex(res["lhs"]), _complex(res["rhs"])
        if not _close(lhs, want["moment"]):
            return f"lhs {lhs} != oracle moment {want['moment']}"
        if abs(lhs - rhs) > 1e-8 * want["scale"]:
            return f"|lhs - rhs| = {abs(lhs - rhs)} exceeds 1e-8 * scale"
        if not _close(res["scale"], want["scale"]):
            return f"scale {res['scale']} != oracle {want['scale']}"
        return None


class Factorize(Workload):
    """One partition tuple per report, over every tuple of a few random families."""

    name = "factorize"
    families = 2
    shape = {"kind": "random_matrix", "n": 2, "d": 2, "p": 4, "dim": 2}

    def _tuples(self) -> list[tuple]:
        p, d = self.shape["p"], self.shape["d"]
        parts = [s for s in oracle.set_partitions(p) if len(s) < p]
        return list(product(parts, repeat=d))

    def jobs(self, seed: int, workdir: Path) -> list[Job]:
        tuples = self._tuples()
        sigma_paths = [
            _write_json(
                workdir / f"sigmas-{t}.json", [oracle.format_partition(s) for s in sig]
            )
            for t, sig in enumerate(tuples)
        ]
        out = []
        for f, spec_seed in enumerate(_spec_seeds(self.name, seed, self.families)):
            spec = dict(self.shape, seed=spec_seed)
            path = _write_json(workdir / f"spec-{f}.json", spec)
            for t, sig in enumerate(tuples):
                report = workdir / f"report-{f}-{t}.json"
                argv = ["factorize", "--spec", path, "--sigmas", sigma_paths[t]]
                out.append(Job(argv + ["--out", str(report)], report, spec, sig))
        return _spread(out, lambda job: job.sigmas, random.Random(f"{self.name}:{seed}:order"))

    def check(self, job: Job, rc: int, report: dict | None) -> str | None:
        status = _report_status(rc, report)
        if status:
            return status
        if not job.expect:
            job.expect = {"scale": oracle.family_scale(_oracle_family(job.spec), job.spec["p"])}
        res = report["results"]
        if res["tuples_checked"] != 1:
            return f"tuples_checked = {res['tuples_checked']}, not 1"
        if not _close(res["scale"], job.expect["scale"]):
            return f"scale {res['scale']} != oracle {job.expect['scale']}"
        return None

    def final_check(self, jobs: list[Job]) -> str | None:
        """The library's factored trace against brute-force psi, on every
        tuple of the first family."""
        from orthosum import FamilySpec, factorization_check, make_family, parse_partition

        spec = jobs[0].spec
        fam = make_family(FamilySpec.from_json(spec))
        ref = _oracle_family(spec)
        scale = oracle.family_scale(ref, spec["p"])
        for job in jobs:
            if job.spec is not spec:
                continue
            sigmas = [parse_partition(oracle.format_partition(s)) for s in job.sigmas]
            got = factorization_check(fam, sigmas, spec["p"]).psi_factored
            want = oracle.psi(ref, spec["n"], job.sigmas, spec["p"])
            if abs(got - want) > ORACLE_RTOL * scale:
                return f"factored trace {got} != brute-force psi {want} at {job.sigmas}"
        return None


class Inequality(Workload):
    """Main-estimate reports on the four p-orthogonal kinds at d = 1 and d = 2."""

    name = "inequality"
    #: (kind, n, d, p, dim, copies per list).  Sorted by report time the
    #: list is 31 faster reports, 65 of martingale n=5 (the median and the
    #: p90 both fall inside them, clear of their edges), then four slower d=2
    #: reports and the memory-heavy martingale n=6.
    mix = (
        ("martingale_rademacher", 5, 1, 4, 2, 65),
        ("free_generators", 2, 2, 4, 2, 5),
        ("rademacher", 2, 2, 6, 1, 5),
        ("martingale_rademacher", 2, 2, 6, 2, 5),
        ("rademacher", 4, 1, 6, 1, 5),
        ("free_generators", 5, 1, 4, 2, 5),
        ("dissociate", 2, 2, 6, 2, 3),
        ("dissociate", 4, 1, 6, 2, 3),
        ("free_generators", 3, 2, 4, 2, 2),
        ("rademacher", 3, 2, 4, 1, 1),
        ("dissociate", 3, 2, 4, 2, 1),
        ("martingale_rademacher", 6, 1, 4, 2, 1),
    )

    def jobs(self, seed: int, workdir: Path) -> list[Job]:
        shapes = [row[:5] for row in self.mix for _ in range(row[5])]
        out = []
        for i, (shape, spec_seed) in enumerate(
            zip(shapes, _spec_seeds(self.name, seed, len(shapes)))
        ):
            kind, n, d, p, dim = shape
            spec = {"kind": kind, "n": n, "d": d, "p": p, "dim": dim, "seed": spec_seed}
            path = _write_json(workdir / f"spec-{i}.json", spec)
            report = workdir / f"report-{i}.json"
            out.append(Job(["inequality", "--spec", path, "--out", str(report)], report, spec))
        shape = lambda job: tuple(job.spec[k] for k in ("kind", "n", "d", "p", "dim"))
        return _spread(out, shape, random.Random(f"{self.name}:{seed}:order"))

    def check(self, job: Job, rc: int, report: dict | None) -> str | None:
        status = _report_status(rc, report)
        if status:
            return status
        s = job.spec
        res = report["results"]
        A, B, C = res["A"], res["B"], res["C"]
        slack = 1.0 + ORACLE_RTOL
        if not C <= B * slack:
            return f"C = {C} > B = {B}"
        if not B <= 2 ** s["d"] * C * slack:
            return f"B = {B} > 2^d C = {2 ** s['d'] * C}"
        if s["d"] == 1 and not A <= 1.5 * math.pi * s["p"] * C * slack:
            return f"A = {A} > (3 pi / 2) p C"
        if s["kind"] == "free_generators":
            want = oracle.free_generator_norm(s["n"], s["d"], s["p"])
            if not _close(A, want, 1e-12):
                return f"A = {A} != closed form {want}"
        elif s["kind"] != "dissociate":
            if not job.expect:
                fam = _oracle_family(s)
                job.expect = {
                    "A": oracle.sum_norm(fam, s["p"]),
                    "C": oracle.max_flattening_norm(fam, s["n"], s["d"], s["p"]),
                }
            if not _close(A, job.expect["A"]):
                return f"A = {A} != oracle {job.expect['A']}"
            if not _close(C, job.expect["C"]):
                return f"C = {C} != oracle {job.expect['C']}"
        return None


WORKLOADS = {w.name: w for w in (Decompose(), Factorize(), Inequality())}
