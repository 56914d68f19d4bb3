"""Tracial matrix algebra, family flattenings, and exact even-p group-algebra norms.

The normalized trace on N x N matrices is Tr/N.  Vector-valued norms use the
normalized trace on the coefficient factor and the plain (un-normalized) trace
on the matrix-unit factor; this is the convention under which the converse of
the iteration inequality holds with constant 1.

Even-p norms of group-algebra elements read the identity coefficient of
(x* x)^(p/2), exact up to float rounding, by pairing the half powers
A = (x* x)^floor(p/4) and B = (x* x)^ceil(p/4) as the sum of A_w B_(w^-1).
Terms and the pairing are accumulated in lexicographic word order so results
are reproducible run to run, and coefficients that cancel to exactly zero are
pruned after every product.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from .errors import DEFAULT_BUDGET, KindError, check_budget, check_even_p, json_int
from .freegroup import Word, WordTuple, format_word, gamma_indices, parse_word

#: A tracial matrix is a square complex ndarray with trace functional Tr/N.
TracialMatrix = np.ndarray

MATRIX = "matrix"
GROUP_ALGEBRA = "group_algebra"


def as_tracial_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def ntrace(x) -> complex:
    """Normalized trace Tr(x)/N; ntrace(identity) = 1."""
    arr = as_tracial_matrix(x)
    return complex(np.trace(arr) / arr.shape[0])


def _even_root(trace: complex, normalizer: int, p: int) -> float:
    """(Re trace / normalizer)^(1/p), with rounding below zero clamped to zero."""
    return float(max(trace.real / normalizer, 0.0) ** (1.0 / p))


def _matrix_gram_power(x: np.ndarray, p: int) -> np.ndarray:
    """(x* x)^(p/2) for a (possibly rectangular) matrix x at even p."""
    check_even_p(p)
    return np.linalg.matrix_power(x.conj().T @ x, p // 2)


def schatten_even_norm(x, p: int) -> float:
    """(ntrace((x* x)^(p/2)))^(1/p), the L_p norm under Tr/N at even p."""
    arr = as_tracial_matrix(x)
    return _even_root(np.trace(_matrix_gram_power(arr, p)), arr.shape[0], p)


@dataclass(frozen=True, order=True)
class SplitPair:
    """A split of {1..d} into two disjoint (possibly empty) coordinate sets."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        d = len(self.alpha) + len(self.beta)
        if sorted(self.alpha + self.beta) != list(range(1, d + 1)):
            raise ValueError(f"({self.alpha}, {self.beta}) is not a split of 1..{d}")
        if list(self.alpha) != sorted(self.alpha) or list(self.beta) != sorted(self.beta):
            raise ValueError("split coordinates must be ascending")

    @property
    def d(self) -> int:
        return len(self.alpha) + len(self.beta)

    @classmethod
    def from_alpha(cls, alpha: Iterable[int], d: int) -> "SplitPair":
        aset = set(alpha)
        return cls(
            tuple(sorted(aset)), tuple(k for k in range(1, d + 1) if k not in aset)
        )


def all_splits(d: int) -> list[SplitPair]:
    """All 2^d splits, ordered by the bitmask of alpha (row split first)."""
    out = []
    for mask in range(1 << d):
        alpha = [k for k in range(1, d + 1) if mask >> (k - 1) & 1]
        out.append(SplitPair.from_alpha(alpha, d))
    return out


@dataclass(frozen=True)
class Flattening:
    """Block matrix with the family member at block (pi_alpha, pi_beta).

    ``matrix`` has shape (n^|alpha| * N, n^|beta| * N) with N = ``coeff_dim``.
    """

    matrix: np.ndarray
    coeff_dim: int
    split: SplitPair


def vv_norm(X: Flattening, p: int) -> float:
    """Vector-valued even-p norm: normalized trace on the coefficient factor only."""
    return _even_root(np.trace(_matrix_gram_power(X.matrix, p)), X.coeff_dim, p)


@dataclass(frozen=True, eq=False)
class GroupAlgebraElement:
    """Finite formal sum of matrix coefficients against elements of F_n^arity.

    ``terms`` maps reduced word tuples to complex coefficient arrays, all of
    shape ``coeff_shape``.  Instances are immutable; every arithmetic operation
    returns a fresh element with exactly-zero coefficients pruned.  Coefficients
    are usually square; rectangular shapes arise only from flattenings.
    """

    arity: int
    n: int
    coeff_shape: tuple[int, int]
    terms: dict[WordTuple, np.ndarray]

    @classmethod
    def build(
        cls,
        arity: int,
        n: int,
        coeff_shape: tuple[int, int],
        terms: Mapping[WordTuple, np.ndarray],
    ) -> "GroupAlgebraElement":
        """Validating constructor; copies coefficients and drops exact zeros."""
        if arity < 0 or n < 0:
            raise ValueError("arity and n must be non-negative")
        clean: dict[WordTuple, np.ndarray] = {}
        for wt, coeff in terms.items():
            if wt.arity != arity:
                raise ValueError(f"word tuple arity {wt.arity} != {arity}")
            if wt.max_generator > n:
                raise ValueError(f"word tuple uses generator beyond {n}")
            arr = np.array(coeff, dtype=complex)
            if arr.shape != tuple(coeff_shape):
                raise ValueError(f"coefficient shape {arr.shape} != {coeff_shape}")
            if not arr.any():
                continue
            arr.setflags(write=False)
            clean[wt] = arr
        return cls(arity, n, tuple(coeff_shape), clean)

    @classmethod
    def zero(cls, arity: int, n: int, coeff_shape: tuple[int, int]) -> "GroupAlgebraElement":
        return cls.build(arity, n, coeff_shape, {})

    @classmethod
    def monomial(
        cls, arity: int, n: int, word_tuple: WordTuple, coeff
    ) -> "GroupAlgebraElement":
        arr = np.asarray(coeff, dtype=complex)
        return cls.build(arity, n, arr.shape, {word_tuple: arr})

    @property
    def coeff_dim(self) -> int:
        r, c = self.coeff_shape
        if r != c:
            raise ValueError(f"coefficients are rectangular: {self.coeff_shape}")
        return r

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[WordTuple, np.ndarray]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coefficient(self, word_tuple: WordTuple) -> np.ndarray:
        got = self.terms.get(word_tuple)
        if got is None:
            return np.zeros(self.coeff_shape, dtype=complex)
        return got

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check_compatible(other)
        acc: dict[WordTuple, np.ndarray] = {wt: c for wt, c in self.sorted_terms()}
        for wt, c in other.sorted_terms():
            acc[wt] = acc[wt] + c if wt in acc else c
        return GroupAlgebraElement.build(self.arity, self.n, self.coeff_shape, acc)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "GroupAlgebraElement":
        return GroupAlgebraElement.build(
            self.arity,
            self.n,
            self.coeff_shape,
            {wt: scalar * c for wt, c in self.terms.items()},
        )

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return ga_multiply(self, other)

    def adjoint(self) -> "GroupAlgebraElement":
        return ga_adjoint(self)

    def _check_compatible(self, other: "GroupAlgebraElement") -> None:
        if (self.arity, self.n) != (other.arity, other.n):
            raise ValueError(
                f"group mismatch: F_{self.n}^{self.arity} vs F_{other.n}^{other.arity}"
            )


def ga_multiply(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product: words multiply componentwise, coefficients by matmul."""
    x._check_compatible(y)
    if x.coeff_shape[1] != y.coeff_shape[0]:
        raise ValueError(
            f"coefficient shapes {x.coeff_shape} and {y.coeff_shape} do not chain"
        )
    acc: dict[WordTuple, np.ndarray] = {}
    for wx, cx in x.sorted_terms():
        for wy, cy in y.sorted_terms():
            w, prod = wx * wy, cx @ cy
            acc[w] = acc[w] + prod if w in acc else prod
    shape = (x.coeff_shape[0], y.coeff_shape[1])
    return GroupAlgebraElement.build(x.arity, x.n, shape, acc)


def ga_adjoint(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """Involution: word tuples invert, coefficients conjugate-transpose."""
    return GroupAlgebraElement.build(
        x.arity,
        x.n,
        (x.coeff_shape[1], x.coeff_shape[0]),
        {wt.inverse(): c.conj().T for wt, c in x.terms.items()},
    )


def ga_trace(x: GroupAlgebraElement) -> complex:
    """Normalized trace of the coefficient at the identity tuple (0 if absent)."""
    coeff = x.terms.get(WordTuple.identity(x.arity))
    if coeff is None:
        return 0j
    if x.coeff_shape[0] != x.coeff_shape[1]:
        raise ValueError("trace of a rectangular element")
    return complex(np.trace(coeff) / x.coeff_shape[0])


def _gram_power_identity_coeff(
    x: GroupAlgebraElement, p: int, budget: int
) -> np.ndarray:
    """Coefficient at the identity of (x* x)^(p/2), by half-power pairing.

    With k = p/2, A = (x* x)^floor(k/2) and B = (x* x)^ceil(k/2), the
    coefficient is the sum of A_w B_(w^-1) over the words w of A in sorted
    order; for k = 1 it is read off x* x directly.
    """
    check_even_p(p)
    check_budget(max(x.term_count, 1) ** p, budget, "even-norm word expansion")
    gram = ga_multiply(ga_adjoint(x), x)
    k = p // 2
    if k == 1:
        return gram.coefficient(WordTuple.identity(x.arity))
    half = gram
    for _ in range(k // 2 - 1):
        half = ga_multiply(half, gram)
    other = ga_multiply(half, gram) if k % 2 else half
    acc = np.zeros(gram.coeff_shape, dtype=complex)
    for w, a in half.sorted_terms():
        b = other.terms.get(w.inverse())
        if b is not None:
            acc += a @ b
    return acc


def ga_even_norm(x: GroupAlgebraElement, p: int, budget: int = DEFAULT_BUDGET) -> float:
    """Exact L_p norm at even p under the normalized trace: ga_vv_norm at coeff_dim."""
    return _even_root(np.trace(_gram_power_identity_coeff(x, p, budget)), x.coeff_dim, p)


def ga_vv_norm(
    x: GroupAlgebraElement, p: int, coeff_dim: int, budget: int = DEFAULT_BUDGET
) -> float:
    """Vector-valued even-p norm of a (possibly rectangular) element.

    The trace is normalized by ``coeff_dim`` only, leaving the matrix-unit
    factor un-normalized; used on flattened families.
    """
    return _even_root(np.trace(_gram_power_identity_coeff(x, p, budget)), coeff_dim, p)


def generator_sum(
    a: Mapping[tuple[int, ...], np.ndarray], n: int, d: int
) -> GroupAlgebraElement:
    """Sum of a_gamma against the generator tuple (g_{i_1}, ..., g_{i_d})."""
    terms: dict[WordTuple, np.ndarray] = {}
    shape: tuple[int, int] | None = None
    for gamma in sorted(a):
        if len(gamma) != d or any(not 1 <= i <= n for i in gamma):
            raise ValueError(f"index {gamma} outside [{n}]^{d}")
        coeff = as_tracial_matrix(a[gamma])
        if shape is None:
            shape = coeff.shape
        wt = WordTuple(tuple(Word(((i, 1),)) for i in gamma))
        terms[wt] = coeff
    if shape is None:
        raise ValueError("empty coefficient map")
    return GroupAlgebraElement.build(d, n, shape, terms)


@dataclass
class OperatorFamily:
    """A [n]^d-indexed family, either of tracial matrices or of group-algebra elements."""

    n: int
    d: int
    kind: str
    values: dict[tuple[int, ...], Any]

    def __post_init__(self):
        if self.kind not in (MATRIX, GROUP_ALGEBRA):
            raise ValueError(f"unknown kind {self.kind!r}")
        expected = gamma_indices(self.n, self.d)
        if set(self.values) != set(expected):
            raise ValueError(f"family must be a total map on [{self.n}]^{self.d}")
        if self.kind == MATRIX:
            dims = {as_tracial_matrix(v).shape for v in self.values.values()}
            if len(dims) != 1:
                raise ValueError(f"non-uniform matrix dimensions: {dims}")
            self.values = {g: as_tracial_matrix(v) for g, v in self.values.items()}
        else:
            keys = {(v.arity, v.n, v.coeff_shape) for v in self.values.values()}
            if len(keys) != 1:
                raise ValueError(f"non-uniform group-algebra parameters: {keys}")
        for g, v in self.values.items():
            coeffs = (v,) if self.kind == MATRIX else v.terms.values()
            if not all(np.isfinite(c).all() for c in coeffs):
                raise ValueError(f"non-finite coefficient at index {g}")

    def gammas(self) -> list[tuple[int, ...]]:
        return gamma_indices(self.n, self.d)

    @property
    def coeff_dim(self) -> int:
        probe = next(iter(self.values.values()))
        return probe.shape[0] if self.kind == MATRIX else probe.coeff_dim

    def sum_value(self):
        """Sum of the family members (matrix or group-algebra element)."""
        return functools.reduce(operator.add, (self.values[g] for g in self.gammas()))


def _even_norm(v, p: int, budget: int) -> float:
    """Even-p norm of one family member, a matrix or a group-algebra element."""
    if isinstance(v, GroupAlgebraElement):
        return ga_even_norm(v, p, budget)
    return schatten_even_norm(v, p)


def family_sum_norm(f: OperatorFamily, p: int, budget: int = DEFAULT_BUDGET) -> float:
    """Even-p norm of the sum of the family."""
    return _even_norm(f.sum_value(), p, budget)


def family_scale(f: OperatorFamily, p: int, budget: int = DEFAULT_BUDGET) -> float:
    """1 + sum of member norms to the p-th power; the tolerance yardstick.

    A scale that overflows raises ValueError: no tolerance is drawn from it.
    """
    scale = 1.0 + sum(_even_norm(v, p, budget) ** p for v in f.values.values())
    if not np.isfinite(scale):
        raise ValueError(f"family scale is not finite ({scale}) at p={p}")
    return scale


def _flatten_blocks(f: OperatorFamily, split: SplitPair):
    """Shape of the flattening along ``split`` and gamma -> its block's slices.

    The block of gamma sits at row block pi_alpha(gamma) and column block
    pi_beta(gamma), the lexicographic positions of its sub-indices.
    """
    if split.d != f.d:
        raise ValueError(f"split of 1..{split.d} against a {f.d}-indexed family")
    n, dim = f.n, f.coeff_dim

    def span(gamma: tuple[int, ...], coords: tuple[int, ...]) -> slice:
        idx = 0
        for k in coords:
            idx = idx * n + (gamma[k - 1] - 1)
        return slice(idx * dim, (idx + 1) * dim)

    shape = (n ** len(split.alpha) * dim, n ** len(split.beta) * dim)
    return shape, {g: (span(g, split.alpha), span(g, split.beta)) for g in f.gammas()}


def flatten(f: OperatorFamily, split: SplitPair) -> Flattening:
    """Block matrix of a matrix-valued family along a coordinate split."""
    if f.kind != MATRIX:
        raise KindError("flatten expects a matrix-valued family")
    shape, blocks = _flatten_blocks(f, split)
    out = np.zeros(shape, dtype=complex)
    for gamma, block in blocks.items():
        out[block] = f.values[gamma]
    return Flattening(matrix=out, coeff_dim=f.coeff_dim, split=split)


def ga_flatten(f: OperatorFamily, split: SplitPair) -> GroupAlgebraElement:
    """Flattening of a group-algebra-valued family, as a rectangular element.

    Block (pi_alpha(gamma), pi_beta(gamma)) of each word coefficient receives
    the corresponding coefficient of f_gamma; use :func:`ga_vv_norm` with the
    family coefficient dimension to take its vector-valued norm.
    """
    if f.kind != GROUP_ALGEBRA:
        raise KindError("ga_flatten expects a group-algebra-valued family")
    shape, blocks = _flatten_blocks(f, split)
    acc: dict[WordTuple, np.ndarray] = {}
    for gamma, block in blocks.items():
        for wt, coeff in f.values[gamma].sorted_terms():
            if wt not in acc:
                acc[wt] = np.zeros(shape, dtype=complex)
            acc[wt][block] += coeff
    probe = next(iter(f.values.values()))
    return GroupAlgebraElement.build(probe.arity, probe.n, shape, acc)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def matrix_to_json(x) -> dict:
    arr = as_tracial_matrix(x)
    return {
        "dim": arr.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in arr.ravel()],
    }


def matrix_from_json(obj: Mapping) -> np.ndarray:
    dim = json_int(obj["dim"], "dim")
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = [complex(re, im) for re, im in entries]
    return np.array(flat, dtype=complex).reshape(dim, dim)


def ga_to_json(x: GroupAlgebraElement) -> dict:
    return {
        "arity": x.arity,
        "n": x.n,
        "terms": [
            {
                "words": [format_word(w) for w in wt.words],
                "coeff": matrix_to_json(c),
            }
            for wt, c in x.sorted_terms()
        ],
    }


def ga_from_json(obj: Mapping) -> GroupAlgebraElement:
    arity = json_int(obj["arity"], "arity")
    n = json_int(obj["n"], "n")
    terms: dict[WordTuple, np.ndarray] = {}
    shape: tuple[int, int] | None = None
    for item in obj["terms"]:
        wt = WordTuple(tuple(parse_word(t) for t in item["words"]))
        coeff = matrix_from_json(item["coeff"])
        shape = coeff.shape
        terms[wt] = terms[wt] + coeff if wt in terms else coeff
    if shape is None:
        raise ValueError("group-algebra element with no terms")
    return GroupAlgebraElement.build(arity, n, shape, terms)


def family_to_json(f: OperatorFamily) -> dict:
    values = {}
    for gamma in f.gammas():
        key = ",".join(str(i) for i in gamma)
        v = f.values[gamma]
        values[key] = matrix_to_json(v) if f.kind == MATRIX else ga_to_json(v)
    return {"n": f.n, "d": f.d, "values": values}


def family_from_json(obj: Mapping) -> OperatorFamily:
    if not (
        isinstance(obj, Mapping)
        and {"n", "d", "values"} <= obj.keys()
        and isinstance(obj["values"], Mapping)
    ):
        raise ValueError("a family must be an object with 'n', 'd' and 'values' objects")
    n, d = json_int(obj["n"], "n"), json_int(obj["d"], "d")
    values: dict[tuple[int, ...], Any] = {}
    kind = None
    for key, payload in obj["values"].items():
        gamma = tuple(int(part) for part in key.split(","))
        if "terms" in payload:
            kind = GROUP_ALGEBRA
            values[gamma] = ga_from_json(payload)
        else:
            kind = MATRIX
            values[gamma] = matrix_from_json(payload)
    if kind is None:
        raise ValueError("family with no values")
    return OperatorFamily(n=n, d=d, kind=kind, values=values)
