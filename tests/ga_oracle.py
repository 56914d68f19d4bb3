"""Reference group-algebra arithmetic on dicts of WordTuple -> coefficient.

This is the object product that ``orthosum.algebra`` replaced with integer
codes and one batched matmul.  Word tuples are multiplied and inverted letter
by letter by ``tests/word_oracle.py``, not by the coded operators of
:class:`WordTuple`.  Each term product is formed by its own matmul and added
to its word's running sum, the first product seeding the sum; the pairs run
over the sorted terms of x, outer, and of y, inner.  Coefficients
that are exactly zero are dropped after every operation.  The tests hold the
coded engine to this one bit for bit.
"""

from __future__ import annotations

import numpy as np
from word_oracle import tuple_inverse, tuple_multiply

from orthosum.freegroup import WordTuple

Terms = dict[WordTuple, np.ndarray]


def clean(terms: Terms) -> Terms:
    """Copies of the coefficients, exact zeros dropped."""
    out = {}
    for wt, coeff in terms.items():
        arr = np.array(coeff, dtype=complex)
        if arr.any():
            out[wt] = arr
    return out


def multiply(x: Terms, y: Terms) -> Terms:
    acc: Terms = {}
    for wx, cx in sorted(x.items(), key=lambda kv: kv[0]):
        for wy, cy in sorted(y.items(), key=lambda kv: kv[0]):
            w, prod = tuple_multiply(wx, wy), cx @ cy
            acc[w] = acc[w] + prod if w in acc else prod
    return clean(acc)


def adjoint(x: Terms) -> Terms:
    return clean({tuple_inverse(wt): c.conj().T for wt, c in x.items()})


def trace(x: Terms, arity: int) -> complex:
    coeff = x.get(WordTuple.identity(arity))
    if coeff is None:
        return 0j
    return complex(np.trace(coeff) / coeff.shape[0])


def gram_power_identity_coeff(x: Terms, arity: int, shape: tuple[int, int], p: int):
    """Identity coefficient of (x* x)^(p/2) by pairing the half powers."""
    gram = multiply(adjoint(x), x)
    identity = WordTuple.identity(arity)
    zero = np.zeros((shape[1], shape[1]), dtype=complex)
    k = p // 2
    if k == 1:
        return gram.get(identity, zero)
    half = gram
    for _ in range(k // 2 - 1):
        half = multiply(half, gram)
    other = multiply(half, gram) if k % 2 else half
    acc = zero.copy()
    for w, a in sorted(half.items(), key=lambda kv: kv[0]):
        b = other.get(tuple_inverse(w))
        if b is not None:
            acc += a @ b
    return acc


def vv_norm(x: Terms, arity: int, shape: tuple[int, int], p: int, coeff_dim: int) -> float:
    trace_ = np.trace(gram_power_identity_coeff(x, arity, shape, p))
    return float(max(trace_.real / coeff_dim, 0.0) ** (1.0 / p))
