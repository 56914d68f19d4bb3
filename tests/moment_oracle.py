"""Reference alternating moment for the moment tests.

The straight product loop: f(h1)* f(h2) f(h3)* ... f(hp) is multiplied out
left to right with the public matrix and group-algebra operations, the adjoint
taken afresh at each position, and then traced.  It shares no code with the
moment evaluator in :mod:`orthosum.orthogonality`.
"""

from orthosum.algebra import MATRIX, ga_adjoint, ga_multiply, ga_trace, ntrace


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
