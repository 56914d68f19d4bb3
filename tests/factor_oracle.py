"""Reference factor placement for the factorization tests, block by block and rank by rank.

Every block of size m >= 2 of sigma_k, in the order of k and then of the
blocks, owns m - 1 consecutive free-group factors.  The position of rank r in
that block carries g_i in the block's factor r - 1 (unless r = 1) and g_i^-1
in its factor r (unless r = m), with i the k-th coordinate of the index; every
other factor holds the empty word.  Words are built as :class:`Word` and
:class:`WordTuple` objects; nothing here reads a coded word or a helper of
:mod:`orthosum.factorization`.
"""

from __future__ import annotations

import numpy as np

from orthosum.freegroup import Word, WordTuple


def block_offsets(sigmas) -> tuple[int, dict[tuple[int, int], int]]:
    """The number of factors, and the first factor of each block (k, j) of size >= 2."""
    offsets, total = {}, 0
    for k, sigma in enumerate(sigmas):
        for j, block in enumerate(sigma.blocks):
            if len(block) >= 2:
                offsets[(k, j)] = total
                total += len(block) - 1
    return total, offsets


def placed_words(sigmas, s: int, gamma) -> WordTuple:
    """Position s's word tuple at the index gamma."""
    total, offsets = block_offsets(sigmas)
    words = [Word(())] * total
    for k, sigma in enumerate(sigmas):
        for j, block in enumerate(sigma.blocks):
            if len(block) < 2 or s not in block:
                continue
            rank, size, base = block.index(s) + 1, len(block), offsets[(k, j)]
            if rank > 1:
                words[base + rank - 2] = Word(((gamma[k], 1),))
            if rank < size:
                words[base + rank - 1] = Word(((gamma[k], -1),))
    return WordTuple(tuple(words))


def reference_factors(f, sigmas, p: int) -> list[dict[WordTuple, np.ndarray]]:
    """The terms of F_1..F_p: f_gamma* at odd s, f_gamma at even s, summed per word tuple.

    Coefficients of one word tuple are added in the order of the indices, the
    first seeding the sum, and sums that are exactly zero are dropped.
    """
    factors = []
    for s in range(1, p + 1):
        terms: dict[WordTuple, np.ndarray] = {}
        for gamma in f.gammas():
            coeff = f.values[gamma].conj().T if s % 2 else f.values[gamma]
            key = placed_words(sigmas, s, gamma)
            terms[key] = terms[key] + coeff if key in terms else coeff
        factors.append({key: c for key, c in terms.items() if c.any()})
    return factors
