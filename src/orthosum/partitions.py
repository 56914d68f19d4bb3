"""Set partitions of {1..m}: lattice enumeration, refinement order, Mobius inversion.

Block membership has one code, the restricted growth string (RGS): entry s-1
is the index of the block holding s, blocks numbered by least element.  It is
read off values by ``kernel_code`` and off a partition by ``SetPartition.rgs``.

Everything here is exact integer combinatorics on immutable values, so all
operations are safe to call concurrently and identity sweeps can be split
across workers with order-independent integer accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Hashable, Iterable, Sequence

from .errors import SizeLimitError

#: Bell(12) = 4,213,597 partitions is the practical enumeration ceiling.
MAX_ENUMERATION_SIZE = 12
#: Identity sweeps visit every refinement pair and stop earlier.
MAX_IDENTITY_SIZE = 9


@dataclass(frozen=True, order=True)
class SetPartition:
    """A partition of {1..m} into non-empty disjoint blocks, canonically stored.

    Blocks are ordered by least element with elements ascending, so two
    partitions are equal iff their fields compare equal.
    """

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        elements = sorted([e for block in self.blocks for e in block])
        if not all(self.blocks) or elements != list(range(1, self.ground_size + 1)):
            raise ValueError(
                f"blocks {self.blocks} do not partition 1..{self.ground_size}"
            )
        # disjoint blocks sort by least element
        if sorted(map(sorted, self.blocks)) != list(map(list, self.blocks)):
            raise ValueError(f"blocks {self.blocks} are not in canonical order")

    @classmethod
    def from_blocks(
        cls, blocks: Iterable[Iterable[int]], ground_size: int | None = None
    ) -> "SetPartition":
        """Build a partition from blocks in any order, canonicalizing them."""
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0)
        if ground_size is None:
            ground_size = max((b[-1] for b in canon if b), default=0)
        return cls(ground_size, tuple(canon))

    @classmethod
    def singletons(cls, m: int) -> "SetPartition":
        """The minimal partition: every element is its own block."""
        return cls(m, tuple((i,) for i in range(1, m + 1)))

    @classmethod
    def one_block(cls, m: int) -> "SetPartition":
        """The maximal partition {{1..m}}."""
        return cls(m, (tuple(range(1, m + 1)),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def rgs(self) -> tuple[int, ...]:
        """The restricted growth string: entry s-1 is the index of the block holding s."""
        out = [0] * self.ground_size
        for i, block in enumerate(self.blocks):
            for e in block:
                out[e - 1] = i
        return tuple(out)

    def block_map(self) -> dict[int, int]:
        """Element -> position of its block in the canonical ordering."""
        return dict(enumerate(self.rgs, start=1))

    def singleton_elements(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def __str__(self) -> str:
        return format_partition(self)


def _rgs_strings(m: int):
    """Yield all restricted growth strings of length m in ascending lex order."""
    a = [0] * m
    b = [1] * m  # b[i] = 1 + max(a[:i]); a[i] may range over 0..b[i]
    while True:
        yield tuple(a)
        i = m - 1
        while i >= 1 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        top = max(b[i], a[i] + 1)
        for j in range(i + 1, m):
            a[j] = 0
            b[j] = top


def _check_enumerable(m: int) -> None:
    if not 1 <= m <= MAX_ENUMERATION_SIZE:
        raise SizeLimitError(
            f"partition enumeration supports 1 <= m <= {MAX_ENUMERATION_SIZE}, got {m}"
        )


def _from_rgs(rgs: Sequence[int]) -> SetPartition:
    """The partition whose code is ``rgs``; inverse of :attr:`SetPartition.rgs`."""
    blocks: list[list[int]] = []
    for pos, label in enumerate(rgs, start=1):
        if label == len(blocks):
            blocks.append([pos])
        else:
            blocks[label].append(pos)
    # first-appearance order is exactly the canonical order
    return SetPartition(len(rgs), tuple(tuple(b) for b in blocks))


def all_partitions(m: int) -> list[SetPartition]:
    """Every partition of {1..m} exactly once, finest first, coarsest last.

    The order is restricted-growth-string lexicographic read backwards, so the
    all-singletons partition comes first and {{1..m}} comes last; it is stable
    across runs.
    """
    _check_enumerable(m)
    out = [_from_rgs(r) for r in _rgs_strings(m)]
    out.reverse()
    return out


@lru_cache(maxsize=16)
def _partitions_cached(m: int) -> tuple[SetPartition, ...]:
    return tuple(all_partitions(m))


@lru_cache(maxsize=1 << 18)
def refines(rho: SetPartition, sigma: SetPartition) -> bool:
    """True iff rho <= sigma: each block of rho meets one block of sigma only."""
    if rho.ground_size != sigma.ground_size:
        raise ValueError(
            f"ground sizes differ: {rho.ground_size} vs {sigma.ground_size}"
        )
    return len(set(zip(rho.rgs, sigma.rgs))) == rho.num_blocks


@lru_cache(maxsize=1 << 16)
def kernel_code(values: tuple[Hashable, ...]) -> tuple[int, ...]:
    """The RGS of the kernel of ``values``: positions with equal values share a label."""
    labels: dict[Hashable, int] = {}
    return tuple(labels.setdefault(v, len(labels)) for v in values)


def kernel_partition(values: Sequence[Hashable]) -> SetPartition:
    """Group positions 1..m by equal values: r ~ s iff values[r-1] == values[s-1]."""
    if not values:
        raise ValueError("kernel_partition needs at least one value")
    return _from_rgs(kernel_code(tuple(values)))


def mobius(rho: SetPartition, sigma: SetPartition) -> int:
    """Mobius function of the refinement order, in exact integer arithmetic.

    Uses the product formula over the blocks B of sigma: each contributes
    (-1)^(n_B - 1) * (n_B - 1)! where n_B counts the blocks of rho inside B.
    """
    if not refines(rho, sigma):
        raise ValueError("mobius requires rho <= sigma")
    where = sigma.rgs
    counts = [0] * sigma.num_blocks
    for block in rho.blocks:
        counts[where[block[0] - 1]] += 1
    return math.prod((-1) ** (n_b - 1) * math.factorial(n_b - 1) for n_b in counts)


def bell(m: int) -> int:
    """|P_m| from B(i+1) = sum over k of C(i, k) B(k), with no partition built."""
    _check_enumerable(m)
    b = [1]
    for i in range(m):
        b.append(sum(math.comb(i, k) * b[k] for k in range(i + 1)))
    return b[m]


def refinement_count(sigma: SetPartition) -> int:
    """|[0., sigma]|, the product of Bell(|B|) over the blocks B of sigma."""
    return math.prod(bell(len(b)) for b in sigma.blocks)


def refinements(sigma: SetPartition) -> list[SetPartition]:
    """All rho <= sigma, built blockwise (the interval [0., sigma])."""
    per_block = [
        [
            tuple(tuple(block[e - 1] for e in qb) for qb in q.blocks)
            for q in _partitions_cached(len(block))
        ]
        for block in sigma.blocks
    ]
    return [
        SetPartition.from_blocks([b for part in choice for b in part], sigma.ground_size)
        for choice in product(*per_block)
    ]


def interval(rho: SetPartition, sigma: SetPartition) -> list[SetPartition]:
    """All pi with rho <= pi <= sigma."""
    if not refines(rho, sigma):
        raise ValueError("interval requires rho <= sigma")
    return [pi for pi in refinements(sigma) if refines(rho, pi)]


def mobius_recursive(rho: SetPartition, sigma: SetPartition) -> int:
    """Independent Mobius oracle: mu(rho,rho) = 1 and interval sums vanish.

    Computed by enumerating the interval [rho, sigma] and solving the
    recursion mu(rho, pi) = -sum of mu(rho, pi') over rho <= pi' < pi.
    No closed form is used, so this cross-checks :func:`mobius`.
    """
    values: dict[SetPartition, int] = {}
    for pi in sorted(interval(rho, sigma), key=lambda p: -p.num_blocks):  # finest first
        below = (v for q, v in values.items() if refines(q, pi))
        values[pi] = 1 if pi == rho else -sum(below)
    return values[sigma]


@dataclass(frozen=True)
class MobiusIdentityReport:
    abs_sum: int
    interval_sums_ok: bool


def verify_mobius_identities(m: int) -> MobiusIdentityReport:
    """Check sum of |mu(0., sigma)| = m! and vanishing interval sums on P_m.

    ``abs_sum`` is the exact integer total; ``interval_sums_ok`` is True iff
    every sigma above the minimal partition has a vanishing interval sum
    (vacuously true for m = 1).
    """
    if not 1 <= m <= MAX_IDENTITY_SIZE:
        raise SizeLimitError(
            f"identity sweeps support 1 <= m <= {MAX_IDENTITY_SIZE}, got {m}"
        )
    zero = SetPartition.singletons(m)
    parts = _partitions_cached(m)
    abs_sum = sum(abs(mobius(zero, sigma)) for sigma in parts)
    ok = all(
        sum(mobius(rho, sigma) for rho in refinements(sigma)) == 0
        for sigma in parts
        if sigma != zero
    )
    return MobiusIdentityReport(abs_sum=abs_sum, interval_sums_ok=ok)


def format_partition(p: SetPartition) -> str:
    """Render blocks as '1,3|2|4'."""
    return "|".join(",".join(str(e) for e in block) for block in p.blocks)


def parse_partition(text: str) -> SetPartition:
    """Parse '1,3|2|4', optionally prefixed with an explicit size as 'm=4:1,3|2'.

    Without the prefix the ground size is the largest element mentioned.
    """
    text = text.strip()
    ground = None
    if text.startswith("m="):
        head, _, rest = text.partition(":")
        ground = int(head[2:])
        text = rest
    if not text:
        raise ValueError("empty partition text")
    blocks = [
        tuple(int(e) for e in chunk.split(",") if e.strip() != "")
        for chunk in text.split("|")
    ]
    return SetPartition.from_blocks(blocks, ground)
