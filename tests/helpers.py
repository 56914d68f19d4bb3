"""Test-side writers and generators that nothing in ``orthosum`` needs.

The JSON writers produce the family, element, matrix and word-family file
formats that ``orthosum`` reads (``family_from_json``, ``ga_from_json``,
``matrix_from_json``, ``word_family_from_json``), so the tests can write
input files from objects; ``random_unitaries`` draws the unitary twists of
the absorption checks.
"""

from __future__ import annotations

import numpy as np

from orthosum.algebra import MATRIX, GroupAlgebraElement, OperatorFamily, as_tracial_matrix
from orthosum.freegroup import WordFamily, WordTuple, format_word
from orthosum.lab import random_complex_matrix


def random_unitaries(rng: np.random.Generator, count: int, dim: int) -> list[np.ndarray]:
    """Haar-ish unitaries from QR orthonormalization with a fixed phase choice."""
    out = []
    for _ in range(count):
        q, r = np.linalg.qr(random_complex_matrix(rng, dim))
        phases = np.diagonal(r).copy()
        phases = phases / np.abs(phases)
        out.append(q * phases.conj())
    return out


def sorted_terms(x: GroupAlgebraElement) -> list[tuple[WordTuple, np.ndarray]]:
    """The terms of x in sorted word order, each with its coefficient."""
    return list(zip(x.terms, x.coeffs))


def matrix_to_json(x) -> dict:
    arr = as_tracial_matrix(x)
    return {
        "dim": arr.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in arr.ravel()],
    }


def ga_to_json(x: GroupAlgebraElement) -> dict:
    return {
        "arity": x.arity,
        "n": x.n,
        "terms": [
            {"words": [format_word(w) for w in wt.words], "coeff": matrix_to_json(c)}
            for wt, c in sorted_terms(x)
        ],
    }


def family_to_json(f: OperatorFamily) -> dict:
    to_json = matrix_to_json if f.kind == MATRIX else ga_to_json
    values = {",".join(map(str, g)): to_json(v) for g, v in zip(f.gammas(), f.members)}
    return {"n": f.n, "d": f.d, "values": values}


def word_family_to_json(family: WordFamily) -> dict[str, str]:
    """Serialize as a flat map '1,2' -> 'g1 g2'."""
    return {
        ",".join(str(i) for i in gamma): format_word(w)
        for gamma, w in sorted(family.words.items())
    }
