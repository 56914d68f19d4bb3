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
0, 1, ..., p-1.  These labels depend on (n, d, p) only, so ``MomentTable``
reads them from a cached table of integer labels and an injective mask.  It
evaluates the moments of a matrix family as batched prefix products, left to
right like the single-h evaluator ``MomentTable._moment_fn`` that serves
group-algebra families, and adds them in the lexicographic order of h.  The
Mobius weight of each kernel partition is cached once computed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    MATRIX,
    OperatorFamily,
    ga_adjoint,
    ga_multiply,
    ga_trace,
)
from .errors import DEFAULT_BUDGET, check_budget, check_even_p
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
#: Size of one batch of moments: matrix entries of the batched products (4 MiB
#: of complex128), or index functions of a group-algebra family.  It bounds
#: the memory of a moment table independently of n^(dp).
_BLOCK = 1 << 18


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


@lru_cache(maxsize=4)
def _kernel_labels(
    n: int, d: int, p: int
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[SetPartition, ...], ...]]:
    """Kernel labels of every h: [p] -> [n]^d, in lexicographic order.

    Returns the label of each h (int32; labels number the distinct kernel
    tuples by first appearance), whether h has an injective projection, and
    the kernel tuple of each label.  The caller checks p and the budget.
    """
    count = n ** (d * p)
    ids: dict[tuple[tuple[int, ...], ...], int] = {}
    index_functions = _index_functions(n, d, p, count, "index-function enumeration")
    labels = np.fromiter(
        (ids.setdefault(codes, len(ids)) for _, codes in index_functions), np.int32, count
    )
    injective = np.array([tuple(range(p)) in codes for codes in ids])[labels]
    labels.flags.writeable = injective.flags.writeable = False
    # an RGS is its own kernel code, so each distinct code is built once
    parts = {c: kernel_partition(c) for c in {c for codes in ids for c in codes}}
    return labels, injective, tuple(tuple(parts[c] for c in codes) for codes in ids)


def _running_sum(start: complex, values: np.ndarray) -> complex:
    """start + values[0] + values[1] + ..., one addition at a time, in order."""
    return complex(np.add.accumulate(np.append(start, values))[-1])


class MomentTable:
    """All alternating moments of a family at fixed p, grouped by kernel tuple.

    Precomputes, in one lexicographic pass over index functions:

    * ``total``: the full moment sum (equal to the p-th power of the norm of
      the family sum);
    * ``injective_sum``: the sub-sum over h with an injective projection;
    * ``phi_map``: kernel tuple -> sum of moments of the h with that kernel.

    Every sum adds its moments one at a time in the lexicographic order of h.
    """

    def __init__(
        self,
        f: OperatorFamily,
        p: int,
        budget: int = DEFAULT_BUDGET,
        adjoint_first: bool = True,
    ):
        check_even_p(p)
        self.count = f.n ** (f.d * p)
        check_budget(self.count, budget, "index-function enumeration")
        self.family = f
        self.p = p
        self.adjoint_first = adjoint_first

        labels, injective, kernels = _kernel_labels(f.n, f.d, p)
        moments = self._matrix_moments if f.kind == MATRIX else self._group_algebra_moments
        total = injective_sum = 0j
        phi = np.zeros(len(kernels), dtype=complex)
        lo = 0
        for block in moments(f, p, adjoint_first):
            hi = lo + len(block)
            total = _running_sum(total, block)
            injective_sum = _running_sum(injective_sum, block[injective[lo:hi]])
            np.add.at(phi, labels[lo:hi], block)
            lo = hi
        self.total = total
        self.injective_sum = injective_sum
        self.phi_map = dict(zip(kernels, phi.tolist()))

    @staticmethod
    def _matrix_moments(
        f: OperatorFamily, p: int, adjoint_first: bool
    ) -> Iterator[np.ndarray]:
        """Moments of a matrix family, lexicographic in h, in runs of h.

        A run holds the products of its prefixes; one step appends a position,
        (m, dim, dim) -> (m * K, dim, dim) with K = n^d, so every product is
        multiplied out left to right as in :meth:`_moment_fn`.  A run is split
        on its leading prefixes until its products hold at most _BLOCK
        entries (or its prefixes are complete).
        """
        values = np.stack([f.values[g] for g in f.gammas()])
        adj = values.conj().swapaxes(1, 2).copy()
        odd, even = (adj, values) if adjoint_first else (values, adj)
        k, dim = values.shape[:2]

        def step(acc: np.ndarray, s: int) -> np.ndarray:
            factor = even if s % 2 else odd
            return (acc[:, None] @ factor[None, :]).reshape(-1, dim, dim)

        def runs(acc: np.ndarray, s: int) -> Iterator[np.ndarray]:
            # acc: the products of the prefixes of length s that open the run
            if s < p and len(acc) * k ** (p - s) * dim * dim > _BLOCK:
                for i in range(len(acc)):
                    yield from runs(step(acc[i : i + 1], s), s + 1)
                return
            for t in range(s, p):
                acc = step(acc, t)
            yield np.trace(acc, axis1=1, axis2=2) / dim

        return runs(odd, 1)

    @classmethod
    def _group_algebra_moments(
        cls, f: OperatorFamily, p: int, adjoint_first: bool
    ) -> Iterator[np.ndarray]:
        """Moments of a group-algebra family, one h at a time, in blocks of _BLOCK."""
        moment = cls._moment_fn(f, adjoint_first)
        what = "index-function enumeration"
        hs = (h for h, _ in _index_functions(f.n, f.d, p, f.n ** (f.d * p), what))
        while block := [moment(h) for h in islice(hs, _BLOCK)]:
            yield np.array(block, dtype=complex)

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


@lru_cache(maxsize=1 << 12)
def _mobius_weight(part: SetPartition) -> int:
    """Sum of mu(0., sigma) over 0. < sigma <= part, computed once per partition."""
    zero = SetPartition.singletons(part.ground_size)
    return sum(mobius(zero, sigma) for sigma in refinements(part) if sigma != zero)


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
    parts = {part for eta in table.phi_map for part in eta}
    check_budget(sum(map(refinement_count, parts)), budget, "Mobius weight enumeration")
    noninjective = sum(
        (math.prod(map(_mobius_weight, eta)) * val for eta, val in table.phi_map.items()),
        0j,
    )
    rhs = table.injective_sum + (-1) ** f.d * noninjective
    return DecompositionReport(
        lhs=lhs,
        rhs=rhs,
        abs_err=abs(lhs - rhs),
        injective_sum=table.injective_sum,
    )
