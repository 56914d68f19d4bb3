"""Command-line interface.

Every subcommand emits one report with the shape

    {"command", "params", "seed", "results": {...},
     "assertions": [{"name", "ok", "witness"?}]}

as JSON (default) or flattened CSV rows.  Exit status: 0 when every assertion
holds, 1 on an assertion failure (the witness stays in the report), 2 on a
usage or size-limit error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from itertools import product
from typing import Any

import numpy as np

from . import factorization, lab, orthogonality
from .algebra import MATRIX, OperatorFamily, family_scale, family_sum_norm
from .errors import DEFAULT_BUDGET, NotPOrthogonalError, SizeLimitError, check_budget
from .freegroup import canonical_dissociate, is_p_dissociate, word_family_from_json
from .lab import FamilySpec, make_family
from .partitions import (
    SetPartition,
    all_partitions,
    bell,
    format_partition,
    parse_partition,
    verify_mobius_identities,
)


def _jsonable(value: Any) -> Any:
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _assertion(name: str, ok: bool, witness: Any = None) -> dict:
    out = {"name": name, "ok": bool(ok)}
    if witness is not None and not ok:
        out["witness"] = _jsonable(witness)
    return out


def _flatten_for_csv(section: str, prefix: str, value: Any, rows: list[tuple[str, str, str]]):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten_for_csv(section, f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten_for_csv(section, f"{prefix}[{i}]", v, rows)
    else:
        rows.append((section, prefix, str(value)))


def _render(report: dict, fmt: str) -> str:
    """JSON or CSV text; a non-finite number raises ValueError (no bare NaN)."""
    if fmt == "json":
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    rows: list[tuple[str, str, str]] = []
    rows.append(("meta", "command", report["command"]))
    rows.append(("meta", "seed", "" if report["seed"] is None else str(report["seed"])))
    for key, value in report["params"].items():
        rows.append(("param", key, str(value)))
    _flatten_for_csv("result", "", report["results"], rows)
    for item in report["assertions"]:
        rows.append(("assertion", item["name"], str(item["ok"]).lower()))
        _flatten_for_csv("witness", item["name"], item.get("witness", []), rows)  # failed only
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["section", "name", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def _load_family(args: argparse.Namespace) -> tuple[FamilySpec, OperatorFamily]:
    spec = FamilySpec.from_file(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    if getattr(args, "p", None) is not None:
        spec = dataclasses.replace(spec, p=args.p)
    return spec, make_family(spec, args.budget)


def _cmd_mobius(args) -> tuple[dict, list[dict], int | None]:
    report = verify_mobius_identities(args.m, args.budget)
    results = {
        "abs_sum": report.abs_sum,
        "m_factorial": math.factorial(args.m),
        "interval_sums_ok": report.interval_sums_ok,
    }
    assertions = [
        _assertion("abs_sum_equals_m_factorial", report.abs_sum == math.factorial(args.m)),
        _assertion("interval_sums_vanish", report.interval_sums_ok),
    ]
    return results, assertions, None


def _cmd_dissociate(args) -> tuple[dict, list[dict], int | None]:
    if args.family.startswith("canonical:"):
        try:
            n, d = map(int, args.family.split(":", 1)[1].split(","))
        except ValueError:
            raise ValueError(f"--family {args.family!r} is not of the form canonical:n,d") from None
        if n < 1 or d < 1:
            raise ValueError(f"canonical:n,d needs positive n and d, got {n},{d}")
        check_budget(n, args.budget, "family members", d)
        check_budget(n**d * d, args.budget, "word letters")
        family = canonical_dissociate(n, d)
    else:
        with open(args.family) as fh:
            family = word_family_from_json(json.load(fh))
    report = is_p_dissociate(family, args.p, args.budget)
    results = {"n": family.n, "d": family.d, "p": args.p, "ok": report.ok}
    return results, [_assertion("p_dissociate", report.ok, report.witness)], None


def _cmd_ortho(args) -> tuple[dict, list[dict], int | None]:
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    spec, fam = _load_family(args)
    scale = family_scale(fam, spec.p, args.budget)
    tol = args.tol if args.tol is not None else 1e-9 * scale
    report = orthogonality.is_p_orthogonal(fam, spec.p, tol, args.budget)
    results = {
        "max_abs_violation": report.max_abs_violation,
        "count_checked": report.count_checked,
        "tol": tol,
        "scale": scale,
    }
    ok = report.max_abs_violation <= tol
    return results, [_assertion("p_orthogonal", ok, report.worst_h)], spec.seed


def _cmd_decompose(args) -> tuple[dict, list[dict], int | None]:
    """rhs must match lhs, and lhs the p-th power of the sum norm, which the moment
    walk does not compute; the witness names each side that misses, with its error."""
    spec, fam = _load_family(args)
    scale = family_scale(fam, spec.p, args.budget)
    report = orthogonality.mobius_decomposition_check(fam, spec.p, args.budget)
    try:
        sum_norm_p = float(family_sum_norm(fam, spec.p, args.budget)) ** spec.p
    except OverflowError:  # a finite norm whose float power overflows
        sum_norm_p = math.inf
    if not math.isfinite(sum_norm_p):
        raise ValueError(f"the family sum norm to the power p={spec.p} is not finite")
    results = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "abs_err": report.abs_err,
        "injective_sum": report.injective_sum,
        "scale": scale,
    }
    errors = {"rhs_vs_lhs": report.abs_err, "lhs_vs_sum_norm": abs(report.lhs - sum_norm_p)}
    failed = {side: err for side, err in errors.items() if not err <= 1e-8 * scale}
    return results, [_assertion("decomposition_identity", not failed, failed)], spec.seed


def _parse_sigmas(path: str) -> tuple[SetPartition, ...]:
    """The partitions in a JSON list of strings; the factors check their shape."""
    with open(path) as fh:
        texts = json.load(fh)
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError("--sigmas must hold a JSON list of partition strings")
    return tuple(parse_partition(t) for t in texts)


def _cmd_factorize(args) -> tuple[dict, list[dict], int | None]:
    spec, fam = _load_family(args)
    if fam.kind != MATRIX:
        raise ValueError("factorize needs a matrix-valued family spec")
    scale = family_scale(fam, spec.p, args.budget)
    table = orthogonality.MomentTable(fam, spec.p, args.budget)
    if args.sigmas:
        tuples = [_parse_sigmas(args.sigmas)]
    else:
        check_budget(bell(spec.p) - 1, args.budget, "partition-tuple enumeration", fam.d)
        parts = [s for s in all_partitions(spec.p) if s.num_blocks < spec.p]
        tuples = list(product(parts, repeat=fam.d))
    # each witness names its partition tuple as --sigmas takes it: the largest
    # error's first tuple, and the first tuple that fails Hoelder
    named = lambda sig, **err: {"sigmas": [format_partition(s) for s in sig], **err}
    max_err = max_bd_rel = 0.0
    err_witness = bd_witness = holder_witness = None
    for sig in tuples:
        norms = factorization.factor_norm_report(fam, sig, spec.p, args.budget, table)
        if norms.check.abs_err > max_err:
            max_err = norms.check.abs_err
            err_witness = named(sig, abs_err=max_err)
        if norms.bd_max_rel_err > max_bd_rel:
            max_bd_rel = norms.bd_max_rel_err
            bd_witness = named(sig, rel_err=max_bd_rel)
        if holder_witness is None and not norms.holder_ok:
            holder_witness = named(sig, psi_abs=norms.psi_abs, norms_product=norms.norms_product)
    results = {
        "tuples_checked": len(tuples),
        "max_abs_err": max_err,
        "max_common_singleton_rel_err": max_bd_rel,
        "scale": scale,
    }
    assertions = [
        _assertion("factorization_identity", max_err <= 1e-8 * scale, err_witness),
        _assertion("common_singleton_norm_equality", max_bd_rel <= 1e-10, bd_witness),
        _assertion("holder_bound", holder_witness is None, holder_witness),
    ]
    return results, assertions, spec.seed


def _cmd_inequality(args) -> tuple[dict, list[dict], int | None]:
    spec, fam = _load_family(args)
    try:
        report = lab.main_inequality_report(fam, spec.p, args.budget)
    except NotPOrthogonalError as exc:
        witness = exc.report.worst_h if exc.report is not None else None
        results = {"error": str(exc)}
        return results, [_assertion("p_orthogonal_precondition", False, witness)], spec.seed
    q = report.quantities
    results = {
        "A": q.A,
        "B": q.B,
        "C": q.C,
        "D": q.D,
        "ratio": report.ratio,
        "pisier_ok": report.pisier_ok,
    }
    sandwich = {"B": q.B, "C": q.C, "2^d C": 2**fam.d * q.C}
    assertions = [
        _assertion("p_orthogonal_precondition", True),
        _assertion("iteration_upper", report.upper_ok, sandwich),
        _assertion("iteration_converse", report.converse_ok, sandwich),
    ]
    if fam.d == 1:
        assertions.append(_assertion("pisier_bound", bool(report.pisier_ok)))
    return results, assertions, spec.seed


def _cmd_khintchine(args) -> tuple[dict, list[dict], int | None]:
    spec, fam = _load_family(args)
    if fam.kind != MATRIX:
        raise ValueError("khintchine needs a matrix-coefficient family spec")
    report = lab.khintchine_iteration_check(fam.values, fam.n, fam.d, spec.p, args.budget)
    results = {"S_norm": report.S_norm, "C": report.C}
    assertions = [
        _assertion("khintchine_lower", report.lower_ok),
        _assertion("khintchine_upper", report.upper_ok),
    ]
    return results, assertions, spec.seed


def _cmd_sublemma(args) -> tuple[dict, list[dict], int | None]:
    report = lab.sublemma_root_check(args.p, args.D)
    results = {"root": report.root, "bound": 2.0 * args.p * args.D}
    return results, [_assertion("root_bound", report.bound_ok, report.root)], None


_HANDLERS = {
    "mobius": _cmd_mobius,
    "dissociate": _cmd_dissociate,
    "ortho": _cmd_ortho,
    "decompose": _cmd_decompose,
    "factorize": _cmd_factorize,
    "inequality": _cmd_inequality,
    "khintchine": _cmd_khintchine,
    "sublemma": _cmd_sublemma,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthosum",
        description="Exact checks for multi-indexed p-orthogonal sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="override the spec seed")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("mobius", help="factorial and interval-sum identities")
    p.add_argument("--m", type=int, required=True)
    common(p)

    p = sub.add_parser("dissociate", help="certify a word family")
    p.add_argument("--family", required=True, help="JSON file or canonical:n,d")
    p.add_argument("--p", type=int, required=True)
    common(p)

    def family_command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--spec", required=True)
        p.add_argument("--p", type=int, default=None)
        return p

    p = family_command("ortho", "p-orthogonality of a generated family")
    p.add_argument("--tol", type=float, default=None)
    common(p)

    common(family_command("decompose", "moment decomposition identity"))

    p = family_command("factorize", "factorization identity and factor norms")
    p.add_argument("--sigmas", default=None, help="JSON list of partition strings")
    common(p)

    common(family_command("inequality", "main estimate quantities and ratio"))

    p = sub.add_parser("khintchine", help="2^d iteration sandwich")
    p.add_argument("--spec", required=True)
    common(p)

    p = sub.add_parser("sublemma", help="binomial-polynomial root bound")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--D", type=float, required=True)
    common(p)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "format", "out") and v is not None
    }
    try:
        with np.errstate(all="ignore"):  # every non-finite result is refused by name
            results, assertions, seed = _HANDLERS[args.command](args)
        report = {
            "command": args.command,
            "params": _jsonable(params),
            "seed": seed,
            "results": _jsonable(results),
            "assertions": assertions,
        }
        text = _render(report, args.format)
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(a["ok"] for a in assertions) else 1


if __name__ == "__main__":
    sys.exit(main())
