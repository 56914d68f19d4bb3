"""Reference alternating moment for the moment tests.

The straight product loop: f(h1)* f(h2) f(h3)* ... f(hp) is multiplied out
left to right with the public matrix and group-algebra operations, the adjoint
taken afresh at each position, and then traced.  It shares no code with the
moment evaluator in :mod:`orthosum.orthogonality`.

The per-pair walk multiplies a matrix family's prefix products by each factor
one pair at a time, ``acc[:, None] @ factor[None, :]``, and traces the last
product from its diagonal blocks: the BLAS calls whose bits the row-stacked
walk of :mod:`orthosum.orthogonality` must reproduce.

The other moment pattern, f(h1) f(h2)* ... f(hp)*, is the one pattern of the
adjoint family f*: (f(h)*)* is f(h) bit for bit, so the library answers the
flipped reference of f by its walk over :func:`adjoint_family`.
"""

import numpy as np

from orthosum.algebra import MATRIX, OperatorFamily, ga_adjoint, ga_multiply, ga_trace, ntrace


def adjoint_family(f):
    """The family h -> f(h)* of the same kind and index set."""
    return OperatorFamily(
        f.n,
        f.d,
        f.kind,
        {g: v.conj().T if f.kind == MATRIX else ga_adjoint(v) for g, v in f.values.items()},
    )


def reference_moment(f, h, adjoint_first=True) -> complex:
    """Trace of the alternating adjoint product along the index function h."""
    if len(h) % 2:
        raise ValueError("index functions must have even length")
    acc = None
    for s, gamma in enumerate(h, start=1):
        v = f.values[gamma]
        if (s % 2 == 1) == adjoint_first:
            v = v.conj().T if f.kind == MATRIX else ga_adjoint(v)
        if acc is None:
            acc = v
        else:
            acc = acc @ v if f.kind == MATRIX else ga_multiply(acc, v)
    return ntrace(acc) if f.kind == MATRIX else ga_trace(acc)


def per_pair_products(acc, factor):
    """Every product acc[i] @ factor[j], one BLAS call per pair, prefix-major."""
    return (acc[:, None] @ factor[None, :]).reshape((-1,) + acc.shape[1:])


def per_pair_traces(acc, factor):
    """Tr(acc[i] @ factor[j]) / N for every pair, prefix-major, from diagonal blocks.

    Row block r of acc[i] against column block r of factor[j], 8 x 8 where 8
    divides N and the whole product otherwise, one BLAS call per pair and block.
    """
    dim = acc.shape[-1]
    b = 8 if dim % 8 == 0 else dim
    cols = factor.reshape(1, -1, dim, dim // b, b).swapaxes(-3, -2)
    blocks = acc.reshape(-1, 1, dim // b, b, dim) @ cols
    return np.diagonal(blocks, 0, -2, -1).reshape(-1, dim).sum(-1) / dim


def per_pair_moments(f, p, adjoint_first=True):
    """Every alternating moment of a matrix family, lexicographic in h, by per-pair products."""
    adj = f.members.conj().swapaxes(1, 2).copy()
    factors = (adj, f.members) if adjoint_first else (f.members, adj)
    acc = factors[0]
    for s in range(1, p - 1):
        acc = per_pair_products(acc, factors[s % 2])
    return per_pair_traces(acc, factors[(p - 1) % 2])
