"""Even-p norms of group-algebra elements through the left-regular representation.

An element x = sum_w c_w w of C^(r x c) (x) C[F_n^arity] acts on
l2(F_n^arity) (x) C^c as X = sum_w lambda(w) (x) c_w (Haagerup, Invent. Math.
50, 1979).  With k = p/2, (X* X)^k = A* A where A is the product of the last
k factors X, X*, X, ... (rightmost first), so the trace of the identity
coefficient of (x* x)^k is the squared Frobenius norm of A applied to
delta_e (x) 1.  A moves a vector at most k L letters per coordinate, L the
longest word of x, so the ball of radius k L = p L / 2 holds every vector the
computation meets and truncating lambda to it is exact.

Words here are tuples of (generator, exponent) letters reduced by this module;
nothing is shared with ``orthosum.algebra``.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def _reduce(letters):
    out = []
    for g, e in letters:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_ball(n: int, radius: int) -> list[tuple]:
    """Every reduced word in F_n of length <= radius, shortest first."""
    ball, frontier = [()], [()]
    for _ in range(radius):
        frontier = [
            w + ((g, e),)
            for w in frontier
            for g in range(1, n + 1)
            for e in (-1, 1)
            if not w or w[-1] != (g, -e)
        ]
        ball += frontier
    return ball


def even_norm(terms, arity: int, n: int, p: int, coeff_dim: int) -> float:
    """(tr((x* x)^(p/2))_e / coeff_dim)^(1/p) for x = sum of (word tuple, coefficient).

    ``terms`` pairs tuples of letter tuples with (r, c) coefficient arrays.
    """
    if not terms:
        return 0.0
    k = p // 2
    r, c = terms[0][1].shape
    longest = max(len(w) for key, _ in terms for w in key)
    basis = list(product(word_ball(n, k * longest), repeat=arity))
    index = {u: i for i, u in enumerate(basis)}
    # where left multiplication by each term's word sends each basis tuple
    targets = [
        np.array([index.get(tuple(_reduce(a + b) for a, b in zip(key, u)), -1) for u in basis])
        for key, _ in terms
    ]
    v = np.zeros((len(basis), c, c), dtype=complex)
    v[index[((),) * arity]] = np.eye(c)
    for step in range(k):
        if step % 2 == 0:  # X: slot w u receives c_w v(u)
            out = np.zeros((len(basis), r, c), dtype=complex)
            for (_, coeff), target in zip(terms, targets):
                inside = target >= 0
                out[target[inside]] += coeff @ v[inside]
        else:  # X*: slot u receives c_w* v(w u)
            out = np.zeros((len(basis), c, c), dtype=complex)
            for (_, coeff), target in zip(terms, targets):
                inside = target >= 0
                out[inside] += coeff.conj().T @ v[target[inside]]
        v = out
    return float((np.sum(np.abs(v) ** 2) / coeff_dim) ** (1.0 / p))
