"""Index-function combinatorics and the Mobius decomposition of moment sums.

An index function h maps positions 1..p to the grid [n]^d.  Its alternating
moment is the trace of f(h1)* f(h2) f(h3)* ... f(hp); the adjoint pattern can
be flipped with ``adjoint_first=False``, which has no effect on any of the
identities checked here.  Kernel partitions group positions with equal k-th
coordinate, and the decomposition identity rewrites the full moment sum as the
injective-projection part plus a signed Mobius combination of the dominated
sums.

Index functions come from the lexicographic enumerator that also certifies
dissociate word families, each with the restricted growth strings of its d
coordinates as kernel codes; h has an injective projection iff one of them is
0, 1, ..., p-1.  ``MomentTable._moment_fn`` evaluates every moment.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    MATRIX,
    OperatorFamily,
    ga_adjoint,
    ga_multiply,
    ga_trace,
)
from .errors import DEFAULT_BUDGET, check_budget
from .freegroup import _index_functions, has_injective_projection
from .partitions import (
    SetPartition,
    kernel_partition,
    mobius,
    refinement_count,
    refinements,
    refines,
)

#: An index function: p multi-indices from [n]^d, 1-based.
IndexFunction = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MomentReport:
    max_abs_violation: float
    worst_h: IndexFunction | None
    count_checked: int


@dataclass(frozen=True)
class DecompositionReport:
    lhs: complex
    rhs: complex
    abs_err: float
    injective_sum: complex


def sigma_of(h: Sequence[tuple[int, ...]], k: int) -> SetPartition:
    """Kernel partition of the k-th coordinate function (k is 1-based)."""
    if not h:
        raise ValueError("empty index function")
    if not 1 <= k <= len(h[0]):
        raise ValueError(f"coordinate {k} out of range 1..{len(h[0])}")
    return kernel_partition([gamma[k - 1] for gamma in h])


def delta_of(h: Sequence[tuple[int, ...]]) -> tuple[SetPartition, ...]:
    """The tuple of all d kernel partitions of h."""
    return tuple(sigma_of(h, k) for k in range(1, len(h[0]) + 1))


def alternating_moment(
    f: OperatorFamily, h: Sequence[tuple[int, ...]], adjoint_first: bool = True
) -> complex:
    """Trace of the alternating adjoint product f(h1)* f(h2) ... f(hp)."""
    if len(h) % 2:
        raise ValueError("index functions must have even length")
    return MomentTable._moment_fn(f, adjoint_first)(tuple(h))


def is_p_orthogonal(
    f: OperatorFamily,
    p: int,
    tol: float,
    budget: int = DEFAULT_BUDGET,
    adjoint_first: bool = True,
) -> MomentReport:
    """Largest alternating moment over index functions with an injective projection."""
    index_functions = _index_functions(f.n, f.d, p, budget, "index-function enumeration")
    moment = MomentTable._moment_fn(f, adjoint_first)
    worst: IndexFunction | None = None
    worst_abs = 0.0
    count = 0
    injective = tuple(range(p))
    for h, codes in index_functions:
        if injective not in codes:
            continue
        count += 1
        val = abs(moment(h))
        if val > worst_abs:
            worst_abs = val
            worst = h
    if worst_abs <= tol:
        worst = None
    return MomentReport(max_abs_violation=worst_abs, worst_h=worst, count_checked=count)


class MomentTable:
    """All alternating moments of a family at fixed p, grouped by kernel tuple.

    Precomputes, in one lexicographic pass over index functions:

    * ``total``: the full moment sum (equal to the p-th power of the norm of
      the family sum);
    * ``injective_sum``: the sub-sum over h with an injective projection;
    * ``phi_map``: kernel tuple -> sum of moments of the h with that kernel.
    """

    def __init__(
        self,
        f: OperatorFamily,
        p: int,
        budget: int = DEFAULT_BUDGET,
        adjoint_first: bool = True,
    ):
        index_functions = _index_functions(
            f.n, f.d, p, budget, "index-function enumeration"
        )
        self.family = f
        self.p = p
        self.adjoint_first = adjoint_first

        moment = self._moment_fn(f, adjoint_first)
        total = injective = 0j
        injective_code = tuple(range(p))
        by_code: dict[tuple[tuple[int, ...], ...], complex] = {}
        for h, codes in index_functions:
            m = moment(h)
            total += m
            by_code[codes] = by_code.get(codes, 0j) + m
            if injective_code in codes:
                injective += m
        # an RGS is its own kernel code, so each distinct code is built once
        parts = {c: kernel_partition(c) for c in {c for codes in by_code for c in codes}}
        phi_map = {
            tuple(parts[c] for c in codes): val for codes, val in by_code.items()
        }
        self.total = total
        self.injective_sum = injective
        self.phi_map = phi_map
        self.count = f.n ** (f.d * p)

    @staticmethod
    def _moment_fn(f: OperatorFamily, adjoint_first: bool):
        """The moment evaluator: h -> trace of the alternating product along h.

        Matrices multiply out left to right; a family of single-term elements
        chains one word and one coefficient; other elements use ga_multiply.
        """
        values = f.values
        if f.kind == MATRIX:
            adjoint, mul = (lambda v: v.conj().T), operator.matmul
            trace = lambda acc: complex(np.trace(acc) / acc.shape[0])
        elif all(v.term_count == 1 for v in values.values()):
            values = {g: next(iter(v.terms.items())) for g, v in values.items()}
            adjoint = lambda pair: (pair[0].inverse(), pair[1].conj().T)
            mul = lambda a, b: (a[0] * b[0], a[1] @ b[1])
            trace = lambda acc: (
                complex(np.trace(acc[1]) / acc[1].shape[0]) if acc[0].is_identity else 0j
            )
        else:
            adjoint, mul, trace = ga_adjoint, ga_multiply, ga_trace
        adj = {g: adjoint(v) for g, v in values.items()}
        odd, even = (adj, values) if adjoint_first else (values, adj)

        def moment(h):
            acc = odd[h[0]]
            for s in range(1, len(h)):
                acc = mul(acc, even[h[s]] if s % 2 else odd[h[s]])
            return trace(acc)

        return moment


def moment_table(
    f: OperatorFamily,
    p: int,
    budget: int = DEFAULT_BUDGET,
    adjoint_first: bool = True,
) -> MomentTable:
    return MomentTable(f, p, budget, adjoint_first)


def _table_for(
    f: OperatorFamily,
    entries: Sequence[SetPartition],
    p: int,
    budget: int,
    table: MomentTable | None,
) -> MomentTable:
    """Check a partition tuple against the family; the given table or a new one."""
    if len(entries) != f.d:
        raise ValueError(f"expected {f.d} partitions, got {len(entries)}")
    for sigma in entries:
        if sigma.ground_size != p:
            raise ValueError(f"partition ground size {sigma.ground_size} != {p}")
    return moment_table(f, p, budget) if table is None else table


def phi(
    f: OperatorFamily,
    eta: Sequence[SetPartition],
    p: int,
    budget: int = DEFAULT_BUDGET,
    table: MomentTable | None = None,
) -> complex:
    """Sum of alternating moments over exactly the h with kernel tuple eta."""
    return _table_for(f, eta, p, budget, table).phi_map.get(tuple(eta), 0j)


def psi(
    f: OperatorFamily,
    sigmas: Sequence[SetPartition],
    p: int,
    budget: int = DEFAULT_BUDGET,
    table: MomentTable | None = None,
) -> complex:
    """Sum of alternating moments over h whose kernels dominate each sigma_k."""
    table = _table_for(f, sigmas, p, budget, table)
    return sum(
        (val for eta, val in table.phi_map.items() if all(map(refines, sigmas, eta))), 0j
    )


def mobius_decomposition_check(
    f: OperatorFamily,
    p: int,
    budget: int = DEFAULT_BUDGET,
    adjoint_first: bool = True,
) -> DecompositionReport:
    """Compare the full moment sum against its injective + Mobius resummation.

    The right-hand side is the injective-projection part plus
    (-1)^d * sum over partition tuples (all strictly above the singleton
    partition) of the Mobius weights times the dominated sums; the inner sums
    are evaluated by grouping index functions by kernel tuple.
    """
    table = moment_table(f, p, budget, adjoint_first)
    lhs = table.total
    zero = SetPartition.singletons(p)
    parts = sorted({part for eta in table.phi_map for part in eta})
    check_budget(sum(map(refinement_count, parts)), budget, "Mobius weight enumeration")
    # weight(eta_k) = sum of mu(0., sigma) over 0. < sigma <= eta_k
    weight = {
        part: sum(mobius(zero, sigma) for sigma in refinements(part) if sigma != zero)
        for part in parts
    }
    noninjective = sum(
        (math.prod(map(weight.get, eta)) * val for eta, val in table.phi_map.items()), 0j
    )
    rhs = table.injective_sum + (-1) ** f.d * noninjective
    return DecompositionReport(
        lhs=lhs,
        rhs=rhs,
        abs_err=abs(lhs - rhs),
        injective_sum=table.injective_sum,
    )
