"""Index-function combinatorics and the Mobius decomposition of moment sums.

An index function h maps positions 1..p to the grid [n]^d.  Its alternating
moment is the trace of f(h1)* f(h2) f(h3)* ... f(hp); the adjoint pattern can
be flipped with ``adjoint_first=False``, which has no effect on any of the
identities checked here.  Kernel partitions group positions with equal k-th
coordinate, and the decomposition identity rewrites the full moment sum as the
injective-projection part plus a signed Mobius combination of the dominated
sums.

This module owns index functions.  Every moment comes from one walk over the
tree of h-prefixes, which forms each prefix product once and shares it with
every h that extends it, a run of matrix products stacked as rows in one
matmul per factor; the last product it only traces.  ``MomentTable``
walks every h and ``is_p_orthogonal`` only the prefixes that still have an
injective coordinate; each checks p and charges the n^(dp) index functions to
the budget before it walks (``freegroup.is_p_dissociate`` does the same
before it builds the unit monomials it hands to ``is_p_orthogonal``).
``alternating_moment`` walks a single h.  The kernel labels of h, the
restricted growth strings of its d coordinates, depend on (n, d, p) only, so
``MomentTable``, once it has also charged the p products of each h (its
walk's steps, and the rows of the label pool), reads them from a cached table
of integer labels and an injective mask, and adds the moments in
lexicographic order of h.  The refinements the Mobius weights enumerate are
counted there too, and charged on every call; a second cache holds the Mobius
weight product of each label.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, product
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import (
    MATRIX,
    OperatorFamily,
    ga_adjoint,
    ga_multiply,
    ga_product_trace,
    product_diagonals,
)
from .errors import DEFAULT_BUDGET, check_budget, check_even_p
from .freegroup import gamma_indices
from .partitions import (
    MAX_ENUMERATION_SIZE,
    SetPartition,
    kernel_code,
    kernel_partition,
    mobius,
    refinement_count,
    refinements,
    refines,
)

#: An index function: p multi-indices from [n]^d, 1-based.
IndexFunction = tuple[tuple[int, ...], ...]
#: Size of one run of the prefix walk, in coefficient entries of its products
#: (4 MiB of complex128).  It bounds the memory of a moment table
#: independently of n^(dp).
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


def has_injective_projection(h: Sequence[tuple[int, ...]], d: int) -> bool:
    """True iff some coordinate k has pairwise distinct values along h."""
    return tuple(range(len(h))) in map(kernel_code, islice(zip(*h), d))


def alternating_moment(
    f: OperatorFamily, h: Sequence[Sequence[int]], adjoint_first: bool = True
) -> complex:
    """Trace of the alternating adjoint product f(h1)* f(h2) ... f(hp).

    h holds a positive even number of multi-indices, each d entries in [1, n].
    """
    h = tuple(tuple(g) if isinstance(g, Sequence) else g for g in h)
    if not h or len(h) % 2:
        raise ValueError("index functions must have a positive even length")
    span = range(1, f.n + 1)
    if not all(isinstance(g, tuple) and len(g) == f.d and all(i in span for i in g) for g in h):
        raise ValueError(f"index function h = {h} leaves [n]^d = [{f.n}]^{f.d}")
    ((_, moments),) = _prefix_walk(f, len(h), adjoint_first, lambda pre: pre == h[: len(pre)])
    return complex(moments[0])


def is_p_orthogonal(
    f: OperatorFamily,
    p: int,
    tol: float,
    budget: int = DEFAULT_BUDGET,
    adjoint_first: bool = True,
) -> MomentReport:
    """Largest alternating moment over index functions with an injective projection."""
    check_even_p(p)
    check_budget(f.n, budget, "index-function enumeration", f.d * p)
    # a coordinate injective on [p] is injective on every prefix: the pruning is exact
    live = lambda prefix: f.n >= p and has_injective_projection(prefix, f.d)
    worst, worst_abs, count = None, 0.0, 0
    for hs, moments in _prefix_walk(f, p, adjoint_first, live):
        count += len(hs)
        for h, moment in zip(hs, moments.tolist()):
            if abs(moment) > worst_abs:
                worst_abs, worst = abs(moment), h
    if worst_abs <= tol:
        worst = None
    return MomentReport(max_abs_violation=worst_abs, worst_h=worst, count_checked=count)


def _prefix_walk(
    f: OperatorFamily,
    p: int,
    adjoint_first: bool,
    keep: Callable[[IndexFunction], bool] | None = None,
) -> Iterator[tuple[list[IndexFunction] | None, np.ndarray]]:
    """Runs of alternating moments of f, lexicographic in h, each with its h.

    A prefix product is its parent's product times one factor, so every moment
    is multiplied out left to right.  Matrix prefix products are stacked as
    rows, one matmul per factor (``acc.reshape(m * N, N) @ factor``, the same
    BLAS dot products per row as one pair's), group-algebra elements multiply
    through the outer product of ``ga_multiply``, the last factor only traced:
    ``product_diagonals`` of matrices, ``ga_product_trace`` of elements.  A run
    is formed factor-major and its moments transposed to lexicographic order.
    With ``keep=None`` every h is walked, a run broadcast over the completions
    of one prefix (h None) within _BLOCK coefficient entries; otherwise only
    the prefixes ``keep`` accepts are grown, one at a time, and ``keep`` must
    reject every extension of a prefix it rejects.  A non-finite moment raises
    ValueError naming h.
    """
    gammas = f.gammas()
    k = len(gammas)
    if f.kind == MATRIX:
        values, dim = f.members, f.coeff_dim
        adj = values.conj().swapaxes(1, 2).copy()
        entries = dim * dim
        # the prefix products stacked as rows: one matmul per factor
        mul = lambda acc, factor: (acc.reshape(-1, dim) @ factor).reshape(-1, dim, dim)
        last = lambda acc, y: (product_diagonals(acc.reshape(-1, dim), y).sum(-1) / dim).ravel()
    else:
        values = np.array(f.members, dtype=object)
        adj = np.frompyfunc(ga_adjoint, 1, 1)(values)
        outer = np.frompyfunc(ga_multiply, 2, 1).outer
        # a run holds live objects: about 1 KiB (64 entries) each besides coefficients
        entries = 64 + math.prod(values[0].coeff_shape)
        mul = lambda acc, factor: outer(acc, factor).T.ravel()
        paired = np.frompyfunc(ga_product_trace, 2, 1).outer
        last = lambda acc, factor: paired(acc, factor).T.ravel().astype(complex)
    # the factor at 0-based position s is factors[s % 2]
    factors = (adj, values) if adjoint_first else (values, adj)

    def runs() -> Iterator:
        # depth first over (product of prefix as a stack of one or None, prefix); not
        # recursive, so no closure cycle keeps the factor stacks alive afterwards
        stack: list = [(None, ())]
        while stack:
            acc, prefix = stack.pop()
            s = len(prefix)
            hs = None
            if keep is None and k ** (p - s) * entries <= _BLOCK:
                for t in range(s, p - 1):
                    acc = factors[t % 2] if acc is None else mul(acc, factors[t % 2])
                # factor-major: position p - 1 varies slowest; back to lexicographic
                moments = last(acc, factors[(p - 1) % 2]).reshape((k,) * (p - s)).T.ravel()
            else:
                children = [
                    j for j, g in enumerate(gammas) if keep is None or keep(prefix + (g,))
                ]
                rows = factors[s % 2][children]
                hs = [prefix + (gammas[j],) for j in children]
                if s + 1 < p:
                    acc = rows if acc is None else mul(acc, rows)
                    stack += reversed([(acc[i : i + 1], h) for i, h in enumerate(hs)])
                    continue
                moments = last(acc, rows)
            finite = np.isfinite(moments)
            if not finite.all():
                r = int(finite.argmin())
                rest = np.unravel_index(r, (k,) * (p - s))
                h = hs[r] if hs else prefix + tuple(gammas[j] for j in rest)
                raise ValueError(f"non-finite alternating moment at index function {h}")
            yield hs, moments

    return runs()


@lru_cache(maxsize=4)
def _kernel_labels(
    n: int, d: int, p: int
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[SetPartition, ...], ...], int]:
    """Kernel labels of every h: [p] -> [n]^d, in lexicographic order.

    Returns the label of each h (int32; labels number the distinct kernel
    tuples by first appearance), whether h has an injective projection, the
    kernel tuple of each label and the refinements below its distinct parts
    (0 past the enumeration ceiling, where the first weight, of {{1..p}}, is
    refused at once).  The caller checks p and the budget.
    """
    count = n ** (d * p)
    ids: dict[tuple[tuple[int, ...], ...], int] = {}
    labels = np.fromiter(
        (
            ids.setdefault(tuple(map(kernel_code, zip(*h))), len(ids))
            for h in product(gamma_indices(n, d), repeat=p)
        ),
        np.int32,
        count,
    )
    injective = np.array([tuple(range(p)) in codes for codes in ids])[labels]
    labels.flags.writeable = injective.flags.writeable = False
    # an RGS is its own kernel code, so each distinct code is built once
    parts = {c: kernel_partition(c) for c in {c for codes in ids for c in codes}}
    charge = sum(map(refinement_count, parts.values())) if p <= MAX_ENUMERATION_SIZE else 0
    return labels, injective, tuple(tuple(parts[c] for c in codes) for codes in ids), charge


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
        check_budget(f.n, budget, "index-function enumeration", f.d * p)
        self.count = f.n ** (f.d * p)
        check_budget(self.count * p, budget, "index-function products")
        self.family = f
        self.p = p
        self.adjoint_first = adjoint_first

        labels, injective, kernels, _ = _kernel_labels(f.n, f.d, p)
        total = injective_sum = 0j
        phi = np.zeros(len(kernels), dtype=complex)
        lo = 0
        for _, block in _prefix_walk(f, p, adjoint_first):
            hi = lo + len(block)
            total = _running_sum(total, block)
            injective_sum = _running_sum(injective_sum, block[injective[lo:hi]])
            np.add.at(phi, labels[lo:hi], block)
            lo = hi
        self.total = total
        self.injective_sum = injective_sum
        self.phi_map = dict(zip(kernels, phi.tolist()))


def _table_for(
    f: OperatorFamily,
    entries: Sequence[SetPartition],
    p: int,
    budget: int,
    table: MomentTable | None,
) -> MomentTable:
    """Check a partition tuple and a given table (this family's, at p, adjoint first)."""
    if len(entries) != f.d:
        raise ValueError(f"expected {f.d} partitions, got {len(entries)}")
    for sigma in entries:
        if sigma.ground_size != p:
            raise ValueError(f"partition ground size {sigma.ground_size} != {p}")
    if table is not None and (table.family is not f or table.p != p or not table.adjoint_first):
        raise ValueError(f"the moment table is not this family's at p = {p}, adjoint first")
    return MomentTable(f, p, budget) if table is None else table


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


def _mobius_weight(part: SetPartition) -> int:
    """Sum of mu(0., sigma) over 0. < sigma <= part."""
    zero = SetPartition.singletons(part.ground_size)
    return sum(mobius(zero, sigma) for sigma in refinements(part) if sigma != zero)


@lru_cache(maxsize=4)
def _label_weights(n: int, d: int, p: int) -> tuple[int, ...]:
    """The Mobius weight product of each kernel label, each distinct part weighed once."""
    kernels = _kernel_labels(n, d, p)[2]
    # in first appearance: {{1..p}}, of the constant h, first
    weight = {part: _mobius_weight(part) for part in dict.fromkeys(chain(*kernels))}
    return tuple(math.prod(map(weight.__getitem__, eta)) for eta in kernels)


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
    table = MomentTable(f, p, budget, adjoint_first)
    lhs = table.total
    # charged on every call, before the weights are read, cached or not
    check_budget(_kernel_labels(f.n, f.d, p)[3], budget, "Mobius weight enumeration")
    weights = _label_weights(f.n, f.d, p)
    noninjective = sum(map(operator.mul, weights, table.phi_map.values()), 0j)
    rhs = table.injective_sum + (-1) ** f.d * noninjective
    return DecompositionReport(
        lhs=lhs,
        rhs=rhs,
        abs_err=abs(lhs - rhs),
        injective_sum=table.injective_sum,
    )
