"""Enumerated Mobius weights for the decomposition tests.

The weight of a partition eta of {1..m} is the sum of mu(0, sigma) over
0 < sigma <= eta, every refinement of eta enumerated by
:func:`orthosum.partitions.refinements` and each mu read from
:func:`orthosum.partitions.mobius`.  :mod:`orthosum.orthogonality` reads the
weights off the injective flags of the kernel labels instead; this is the
enumeration that rule replaces, kept for m <= 8 (Bell(8) = 4140 refinements
below {{1..8}}).
"""

import math
from functools import cache

from orthosum.partitions import SetPartition, mobius, refinements

#: The largest ground size the oracle enumerates.
MAX_ORACLE_SIZE = 8


@cache
def enumerated_weight(eta: SetPartition) -> int:
    """Sum of mu(0, sigma) over the refinements 0 < sigma <= eta."""
    m = eta.ground_size
    if m > MAX_ORACLE_SIZE:
        raise ValueError(f"the enumerated weight supports m <= {MAX_ORACLE_SIZE}, got {m}")
    zero = SetPartition.singletons(m)
    return sum(mobius(zero, sigma) for sigma in refinements(eta) if sigma != zero)


def enumerated_label_weight(kernel: tuple[SetPartition, ...]) -> int:
    """The product of the enumerated weights over a kernel tuple."""
    return math.prod(map(enumerated_weight, kernel))
