"""Spans around the public functions of each orthosum layer, installed from outside.

``Tracer.installed()`` replaces every traced function in every orthosum module
namespace that holds it, so calls between layers are caught wherever they are
made, and puts the originals back on exit; it is cheap enough to wrap a single
report.  Each span records its parent, the
report it belongs to, and for a few functions a work count taken from the
arguments or the result.  Spans stay in memory; ``layer_metrics`` folds them
into per-layer totals and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable

LAYERS = ("cli", "lab", "orthogonality", "partitions", "freegroup", "algebra", "factorization")

#: Public functions that get a span, by the module that defines them.
TRACED = {
    "cli": ("main",),
    "lab": ("make_family", "compute_quantities", "main_inequality_report"),
    "orthogonality": ("mobius_decomposition_check", "is_p_orthogonal", "psi"),
    "partitions": ("mobius", "refinements", "kernel_partition"),
    "freegroup": ("is_p_dissociate",),
    "algebra": (
        "ga_multiply",
        "ga_even_norm",
        "ga_vv_norm",
        "schatten_even_norm",
        "vv_norm",
        "flatten",
        "ga_flatten",
        "family_scale",
    ),
    "factorization": ("build_factors", "factorization_check", "factor_norm_report"),
}

#: Work counts recorded on a span: (count, peak), from the call's arguments and result.
_WORK: dict[str, Callable[[tuple, Any], tuple[int, int]]] = {
    "algebra.ga_multiply": lambda args, out: (
        len(args[0].terms) * len(args[1].terms),
        len(out.terms),
    ),
    "orthogonality.is_p_orthogonal": lambda args, out: (out.count_checked, 0),
    # MomentTable.__init__ returns None; the table itself is args[0]
    "orthogonality.moment_table": lambda args, out: (args[0].count, 0),
}

# span fields
_ID, _PARENT, _NAME, _T0, _T1, _REPORT, _WORK_FIELD = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        # open spans; a span's report is the id of its outermost ancestor
        self._stack: list[list] = []
        # (namespace, attribute, original, wrapper) for every replacement
        self._patches: list[tuple[Any, str, Any, Any]] = []
        modules = {layer: importlib.import_module(f"orthosum.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("orthosum"), *modules.values()]
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is original:
                            self._patches.append((ns, attr, original, wrapper))
        table = modules["orthogonality"].MomentTable
        wrapper = self._wrap("orthogonality.moment_table", table.__init__)
        self._patches.append((table, "__init__", table.__init__, wrapper))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, ids, work = self.spans, self._stack, self._ids, _WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            if stack:
                record = [sid, stack[-1][_ID], name, 0.0, 0.0, stack[-1][_REPORT], None]
            else:
                record = [sid, -1, name, 0.0, 0.0, sid, None]
            spans.append(record)
            stack.append(record)
            record[_T0] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[_T1] = clock()
                stack.pop()
            if work is not None:
                record[_WORK_FIELD] = work(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Trace every function in TRACED while the block runs."""
        try:
            for ns, attr, _, wrapper in self._patches:
                setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, original, _ in self._patches:
                setattr(ns, attr, original)

    def take(self) -> list[list]:
        """Remove and return the spans recorded so far."""
        out = list(self.spans)
        self.spans.clear()
        return out

    @staticmethod
    def dump(spans: list[list], path) -> None:
        fields = ["id", "parent", "name", "t0", "t1", "report", "work"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": spans}, fh, separators=(",", ":"))


def _inclusive(spans: list[list], by_id: dict[int, list], names: set[str]) -> float:
    """Time inside spans named in ``names``, counting nested ones once."""
    total = 0.0
    for s in spans:
        if s[_NAME] not in names:
            continue
        parent = s[_PARENT]
        while parent >= 0 and by_id[parent][_NAME] not in names:
            parent = by_id[parent][_PARENT]
        if parent < 0:
            total += s[_T1] - s[_T0]
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, inclusive times and self times over one set of spans."""
    by_id = {s[_ID]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[_PARENT] >= 0:
            child_time[s[_PARENT]] = child_time.get(s[_PARENT], 0.0) + s[_T1] - s[_T0]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    work_count: dict[str, int] = {}
    peak = 0
    for s in spans:
        name = s[_NAME]
        self_s[name.split(".")[0]] += s[_T1] - s[_T0] - child_time.get(s[_ID], 0.0)
        calls[name] = calls.get(name, 0) + 1
        if s[_WORK_FIELD] is not None:
            count, top = s[_WORK_FIELD]
            work_count[name] = work_count.get(name, 0) + count
            peak = max(peak, top)

    def incl(*names: str) -> float:
        return _inclusive(spans, by_id, set(names))

    def n(name: str) -> int:
        return calls.get(name, 0)

    return {
        "cli.self_s": self_s["cli"],
        "lab.make_family_calls": n("lab.make_family"),
        "lab.make_family_s": incl("lab.make_family"),
        "lab.compute_quantities_s": incl("lab.compute_quantities"),
        "lab.main_inequality_report_s": incl("lab.main_inequality_report"),
        "lab.self_s": self_s["lab"],
        "orthogonality.moment_table_calls": n("orthogonality.moment_table"),
        "orthogonality.moment_table_s": incl("orthogonality.moment_table"),
        "orthogonality.index_functions": work_count.get("orthogonality.moment_table", 0),
        "orthogonality.mobius_decomposition_check_s": incl(
            "orthogonality.mobius_decomposition_check"
        ),
        "orthogonality.is_p_orthogonal_s": incl("orthogonality.is_p_orthogonal"),
        "orthogonality.moments_checked": work_count.get("orthogonality.is_p_orthogonal", 0),
        "orthogonality.self_s": self_s["orthogonality"],
        "partitions.mobius_calls": n("partitions.mobius"),
        "partitions.refinements_calls": n("partitions.refinements"),
        "partitions.kernel_partition_calls": n("partitions.kernel_partition"),
        "partitions.self_s": self_s["partitions"],
        "freegroup.is_p_dissociate_calls": n("freegroup.is_p_dissociate"),
        "freegroup.is_p_dissociate_s": incl("freegroup.is_p_dissociate"),
        "algebra.ga_multiply_calls": n("algebra.ga_multiply"),
        "algebra.ga_multiply_s": incl("algebra.ga_multiply"),
        "algebra.ga_term_products": work_count.get("algebra.ga_multiply", 0),
        "algebra.ga_peak_terms": peak,
        "algebra.ga_even_norm_calls": n("algebra.ga_even_norm") + n("algebra.ga_vv_norm"),
        "algebra.ga_even_norm_s": incl("algebra.ga_even_norm", "algebra.ga_vv_norm"),
        "algebra.matrix_norm_s": incl("algebra.schatten_even_norm", "algebra.vv_norm"),
        "algebra.flatten_s": incl("algebra.flatten", "algebra.ga_flatten"),
        "algebra.family_scale_calls": n("algebra.family_scale"),
        "algebra.family_scale_s": incl("algebra.family_scale"),
        "algebra.self_s": self_s["algebra"],
        "factorization.build_factors_calls": n("factorization.build_factors"),
        "factorization.build_factors_s": incl("factorization.build_factors"),
        "factorization.factorization_check_s": incl("factorization.factorization_check"),
        "factorization.factor_norm_report_s": incl("factorization.factor_norm_report"),
        "factorization.self_s": self_s["factorization"],
    }


#: Metrics that are counts and must repeat exactly from one pass to the next.
COUNTS = tuple(name for name in layer_metrics([]) if not name.endswith("_s"))
