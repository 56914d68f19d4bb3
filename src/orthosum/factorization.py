"""Constructive factorization of dominated moment sums.

Given partitions sigma_1..sigma_d of the positions 1..p, each with at least
one non-singleton block, the dominated moment sum factors as one trace of an
ordered product of p group-algebra elements F_1..F_p.  One slot rule places
the telescoping words: each pair a < b of consecutive elements in a block of
sigma_k is one free-group factor (a slot), listed in (k, block, pair) order,
where F_a carries g_(gamma_k)^-1, F_b carries g_(gamma_k) and every other F_s
the empty word.  So the group trace of a product is 1 exactly when every
kernel condition holds and 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    MATRIX,
    GroupAlgebraElement,
    OperatorFamily,
    ga_even_norm,
    ga_multiply,
    ga_product_trace,
    schatten_even_norm,
)
from .errors import DEFAULT_BUDGET, KindError, check_budget
from .freegroup import letter_code
from .orthogonality import MomentTable, psi
from .partitions import SetPartition


def _slots(sigmas: Sequence[SetPartition]) -> list[tuple[int, int, int]]:
    """The slots (k, a, b) of a partition tuple, in (k, block, pair) order."""
    return [
        (k, a, b)
        for k, sigma in enumerate(sigmas)
        for block in sigma.blocks
        for a, b in zip(block, block[1:])
    ]


def _telescope(slots: list[tuple[int, int, int]], s: int, gamma: Sequence[int]) -> tuple:
    """Position s's coded word tuple at index gamma, one word per slot."""
    return tuple(
        (letter_code(gamma[k], -1),) if s == a else (letter_code(gamma[k], 1),) if s == b else ()
        for k, a, b in slots
    )


def xi_family(m: int, n: int) -> list[Callable[[int], GroupAlgebraElement]]:
    """The telescoping family xi_1..xi_m over F_n^(m-1), each a function of i.

    These are the factors of the one-block partition {1..m}, whose slot r
    pairs r with r+1: xi_r(i) carries g_i in slot r-1 (unless r = 1) and
    g_i^-1 in slot r (unless r = m).  The trace of xi_1(g(1)) ... xi_m(g(m))
    is 1 when g is constant and 0 otherwise.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    slots = _slots((SetPartition.one_block(m),))
    unit = np.ones((1, 1, 1), dtype=complex)

    def make(r: int) -> Callable[[int], GroupAlgebraElement]:
        def xi(i: int) -> GroupAlgebraElement:
            words = [_telescope(slots, r, (i,))]
            return GroupAlgebraElement.from_codes(m - 1, n, (1, 1), words, unit)

        return xi

    return [make(r) for r in range(1, m + 1)]


def build_factors(
    f: OperatorFamily,
    sigmas: Sequence[SetPartition],
    p: int,
    budget: int = DEFAULT_BUDGET,
) -> list[GroupAlgebraElement]:
    """The factors F_1..F_p realizing the dominated moment sum as one trace.

    F_s holds, for each index gamma, the words of position s in every slot
    (see the module docstring); singleton blocks contribute no slot.  The
    coefficient of F_s is f_gamma* for odd s and f_gamma for even s, and
    coefficients of indices that agree on every non-singleton coordinate
    merge by addition.  The tuple must hold d partitions of {1..p}, none of
    them all singletons.  The p * n^d terms are charged to the budget before
    any is built.
    """
    if f.kind != MATRIX:
        raise KindError("factor construction needs a matrix-valued family")
    # the count, then every ground size: (d, p) exactly when the tuple fits
    shape = (len(sigmas), *sorted({sigma.ground_size for sigma in sigmas}))
    if shape != (f.d, p):
        raise ValueError(
            f"partition tuple shape {shape} does not match family/posn shape ({f.d}, {p})"
        )
    if any(sigma.num_blocks == p for sigma in sigmas):
        raise ValueError("every partition must exceed the all-singleton one")
    check_budget(p * f.n**f.d, budget, "factor term construction")
    slots = _slots(sigmas)
    adjoints = f.members.conj().transpose(0, 2, 1)
    factors = []
    for s in range(1, p + 1):
        keys = [_telescope(slots, s, gamma) for gamma in f.gammas()]
        stack = adjoints if s % 2 else f.members
        factors.append(GroupAlgebraElement.from_codes(len(slots), f.n, stack.shape[1:], keys, stack))
    return factors


@dataclass(frozen=True)
class FactorizationReport:
    psi_direct: complex
    psi_factored: complex
    abs_err: float


def _factorization_report(
    psi_direct: complex, factors: Sequence[GroupAlgebraElement]
) -> FactorizationReport:
    acc = factors[0]
    for factor in factors[1:-1]:
        acc = ga_multiply(acc, factor)
    psi_factored = ga_product_trace(acc, factors[-1])
    return FactorizationReport(
        psi_direct=psi_direct,
        psi_factored=psi_factored,
        abs_err=abs(psi_direct - psi_factored),
    )


def factorization_check(
    f: OperatorFamily,
    sigmas: Sequence[SetPartition],
    p: int,
    budget: int = DEFAULT_BUDGET,
    table: MomentTable | None = None,
) -> FactorizationReport:
    """Dominated moment sum versus the trace of the ordered factor product."""
    psi_direct = psi(f, sigmas, p, budget, table)
    return _factorization_report(psi_direct, build_factors(f, sigmas, p, budget))


@dataclass(frozen=True)
class FactorRecord:
    s: int
    q: int
    norm: float


@dataclass(frozen=True)
class FactorNormReport:
    records: tuple[FactorRecord, ...]
    sum_norm: float
    bd_max_rel_err: float
    norms_product: float
    psi_abs: float
    holder_ok: bool
    #: the factorization identity, checked on the same factors
    check: FactorizationReport


def factor_norm_report(
    f: OperatorFamily,
    sigmas: Sequence[SetPartition],
    p: int,
    budget: int = DEFAULT_BUDGET,
    table: MomentTable | None = None,
) -> FactorNormReport:
    """Per-factor even-p norms, the common-singleton equality, and Hoelder.

    Factors at common-singleton positions must match the norm of the family
    sum exactly; the product of all factor norms must dominate the absolute
    value of the factored sum.  ``q`` of position s counts the coordinates
    where s is a singleton; the common singletons are the positions with
    q = d.  The factors are built once, and the report carries the
    :func:`factorization_check` of the same factors.
    """
    factors = build_factors(f, sigmas, p, budget)
    check = _factorization_report(psi(f, sigmas, p, budget, table), factors)
    records = []
    norms_product = 1.0
    for s, factor in enumerate(factors, start=1):
        norm = ga_even_norm(factor, p, budget)
        q = sum(s in sigma.singleton_elements() for sigma in sigmas)
        records.append(FactorRecord(s=s, q=q, norm=norm))
        norms_product *= norm
    sum_norm = schatten_even_norm(f.sum_value(), p)
    errs = (abs(r.norm - sum_norm) for r in records if r.q == len(sigmas))
    bd_rel = max(errs, default=0.0) / max(sum_norm, 1e-300)
    psi_abs = abs(check.psi_factored)
    holder_ok = bool(psi_abs <= norms_product * (1.0 + 1e-9) + 1e-12)
    return FactorNormReport(
        records=tuple(records),
        sum_norm=sum_norm,
        bd_max_rel_err=bd_rel,
        norms_product=norms_product,
        psi_abs=psi_abs,
        holder_ok=holder_ok,
        check=check,
    )
