"""Constructive factorization of dominated moment sums.

Given partitions sigma_1..sigma_d of the positions 1..p, each with at least
one non-singleton block, the dominated moment sum factors as one trace of an
ordered product of p group-algebra elements F_1..F_p.  Each F_s couples the
family coefficients to telescoping generator words placed per block, so that
the group trace of a product is 1 exactly when every kernel condition holds
and 0 otherwise.
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
    ga_trace,
    schatten_even_norm,
)
from .errors import DEFAULT_BUDGET, KindError, check_budget
from .freegroup import WordTuple, letter_code
from .orthogonality import MomentTable, psi
from .partitions import SetPartition


def _place_telescope(words: list[tuple[int, ...]], base: int, r: int, m: int, i: int) -> None:
    """Write the rank-r coded word of a size-m block into the m-1 factors from ``base``.

    Rank r carries g_i in factor r-1 (unless r = 1) and g_i^-1 in factor r
    (unless r = m), counting factors of the block from 1.
    """
    if r > 1:
        words[base + r - 2] = (letter_code(i, 1),)
    if r < m:
        words[base + r - 1] = (letter_code(i, -1),)


def xi_family(m: int, n: int) -> list[Callable[[int], GroupAlgebraElement]]:
    """The telescoping family xi_1..xi_m over F_n^(m-1), each a function of i.

    xi_1(i) carries g_i^-1 in the first factor, xi_m(i) carries g_i in the
    last, and each middle xi_r(i) carries g_i in factor r-1 and g_i^-1 in
    factor r.  The trace of xi_1(g(1)) ... xi_m(g(m)) is 1 when g is constant
    and 0 otherwise.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def make(r: int) -> Callable[[int], GroupAlgebraElement]:
        def xi(i: int) -> GroupAlgebraElement:
            words = [()] * (m - 1)
            _place_telescope(words, 0, r, m, i)
            return GroupAlgebraElement.monomial(
                m - 1, n, WordTuple.from_codes(words), np.eye(1)
            )

        return xi

    return [make(r) for r in range(1, m + 1)]


@dataclass(frozen=True)
class BlockAnatomy:
    """Per-position block data of a partition tuple.

    For each coordinate k and position s: ``block_index[k][s-1]`` is the
    0-based block of sigma_k containing s and ``block_rank[k][s-1]`` the
    1-based rank of s inside that block.  ``q[s-1]`` counts the coordinates
    where s is a singleton, and ``b_sets[q]`` lists the positions with that
    count; ``b_sets[d]`` holds the common singletons.
    """

    sigmas: tuple[SetPartition, ...]
    p: int
    block_index: tuple[tuple[int, ...], ...]
    block_rank: tuple[tuple[int, ...], ...]
    q: tuple[int, ...]
    b_sets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_sigmas(cls, sigmas: Sequence[SetPartition]) -> "BlockAnatomy":
        sigmas = tuple(sigmas)
        if not sigmas:
            raise ValueError("need at least one partition")
        p = sigmas[0].ground_size
        if any(s.ground_size != p for s in sigmas):
            raise ValueError("partitions must share a ground size")
        d = len(sigmas)
        block_index = tuple(sigma.rgs for sigma in sigmas)
        # the rank of s is the number of positions up to s in its block
        block_rank = tuple(
            tuple(code[: s + 1].count(j) for s, j in enumerate(code))
            for code in block_index
        )
        # s is a singleton of sigma_k when its label occurs once in the code
        q = tuple(sum(c.count(c[s]) == 1 for c in block_index) for s in range(p))
        b_sets = tuple(
            tuple(s for s in range(1, p + 1) if q[s - 1] == level)
            for level in range(d + 1)
        )
        return cls(sigmas, p, block_index, block_rank, q, b_sets)

    @property
    def d(self) -> int:
        return len(self.sigmas)

    @property
    def common_singletons(self) -> tuple[int, ...]:
        return self.b_sets[self.d]


def _slot_layout(anatomy: BlockAnatomy) -> tuple[int, dict[tuple[int, int], int]]:
    """Assign m-1 free-group factors to every block of size m >= 2.

    Returns the total factor count and a map (coordinate, block) -> offset.
    """
    offsets: dict[tuple[int, int], int] = {}
    total = 0
    for k, sigma in enumerate(anatomy.sigmas):
        for j, block in enumerate(sigma.blocks):
            if len(block) >= 2:
                offsets[(k, j)] = total
                total += len(block) - 1
    return total, offsets


def build_factors(
    f: OperatorFamily,
    sigmas: Sequence[SetPartition],
    p: int,
    budget: int = DEFAULT_BUDGET,
) -> list[GroupAlgebraElement]:
    """The factors F_1..F_p realizing the dominated moment sum as one trace.

    Position s in a block of size m at rank r contributes, in the factors
    assigned to that block, the telescoping word of xi_r; singleton blocks
    contribute nothing.  The coefficient of F_s is f_gamma* for odd s and
    f_gamma for even s, and coefficients of indices that agree on every
    non-singleton coordinate merge by addition.  The p * n^d terms are
    charged to the budget before any is built.
    """
    return _build_factors(f, BlockAnatomy.from_sigmas(sigmas), p, budget)


def _build_factors(
    f: OperatorFamily, anatomy: BlockAnatomy, p: int, budget: int
) -> list[GroupAlgebraElement]:
    """:func:`build_factors` on the anatomy of the partition tuple."""
    if f.kind != MATRIX:
        raise KindError("factor construction needs a matrix-valued family")
    if anatomy.d != f.d or anatomy.p != p:
        raise ValueError(
            f"partition tuple shape ({anatomy.d}, {anatomy.p}) does not match "
            f"family/posn shape ({f.d}, {p})"
        )
    for sigma in anatomy.sigmas:
        if sigma.num_blocks == p:
            raise ValueError("every partition must exceed the all-singleton one")
    check_budget(p * f.n**f.d, budget, "factor term construction")
    total, offsets = _slot_layout(anatomy)
    dim = f.coeff_dim
    gammas = f.gammas()
    values = np.array([f.values[gamma] for gamma in gammas])
    adjoints = values.conj().transpose(0, 2, 1)
    factors = []
    for s in range(1, p + 1):
        keys = []
        for gamma in gammas:
            words: list[tuple[int, ...]] = [()] * total
            for k in range(f.d):
                j = anatomy.block_index[k][s - 1]
                block_size = len(anatomy.sigmas[k].blocks[j])
                if block_size > 1:
                    r = anatomy.block_rank[k][s - 1]
                    _place_telescope(words, offsets[(k, j)], r, block_size, gamma[k])
            keys.append(tuple(words))
        stack = adjoints if s % 2 else values
        factors.append(GroupAlgebraElement.from_codes(total, f.n, (dim, dim), keys, stack))
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
    for factor in factors[1:]:
        acc = ga_multiply(acc, factor)
    psi_factored = ga_trace(acc)
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
    value of the factored sum.  The block anatomy and the factors are built
    once, and the report carries the :func:`factorization_check` of the same
    factors.
    """
    anatomy = BlockAnatomy.from_sigmas(sigmas)
    factors = _build_factors(f, anatomy, p, budget)
    check = _factorization_report(psi(f, sigmas, p, budget, table), factors)
    records = []
    norms_product = 1.0
    for s, factor in enumerate(factors, start=1):
        norm = ga_even_norm(factor, p, budget)
        records.append(FactorRecord(s=s, q=anatomy.q[s - 1], norm=norm))
        norms_product *= norm
    sum_norm = schatten_even_norm(f.sum_value(), p)
    errs = (abs(records[s - 1].norm - sum_norm) for s in anatomy.common_singletons)
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
