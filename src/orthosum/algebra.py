"""Tracial matrix algebra, family flattenings, and exact even-p group-algebra norms.

The normalized trace on N x N matrices is Tr/N.  Vector-valued norms use the
normalized trace on the coefficient factor and the plain (un-normalized) trace
on the matrix-unit factor; this is the convention under which the converse of
the iteration inequality holds with constant 1.  A matrix even-p trace
Tr((x* x)^(p/2)) is taken from the smaller Gram side: x x* when x is wide,
x* x otherwise; the two traces are equal by cyclicity, and square matrices,
the family members, keep x* x.

A group-algebra element keeps its word tuples as sorted integer codes (see
:mod:`orthosum.freegroup`) beside one stack of coefficients; the package builds
every element from codes, and ``WordTuple`` is only the parse and format
boundary (``build``, ``monomial``, ``terms``, ``ga_from_json``).  A product forms
its coefficient products by batched matmul and sums those of equal words in
pair order, the terms of x outer and those of y inner, both in sorted word
order; each sum runs from its first product, so it is bit for bit the running
sum of term-by-term accumulation, signed zeros included.  Coefficients that
cancel to exactly zero are pruned after every product.  The trace of the
identity coefficient of x y is read without forming x y, by pairing: the sum,
from -0.0 in x's sorted word order, of the diagonals of X_w Y_(w^-1), the
products x y merges there (``ga_product_trace``, with ``product_diagonals``,
the matrix walk's trace).  Even-p norms pair the half powers A = (x* x)^floor(p/4)
and B = (x* x)^ceil(p/4) (x* and x at p = 2), exact up to float rounding.
Rectangular elements (group-algebra flattenings) keep x* x even when wide:
their bits are pinned to the object-product oracle in the tests.

A family holds its ``members`` once, in the lexicographic order of [n]^d (a
matrix family as one read-only stack, viewed by ``values`` in the caller's key
order); a flattening along (alpha, beta) is one axis permutation of the member
tensor, ``(n,) * d + (r, c)`` taken in the order (alpha, r, beta, c) and merged.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, KindError, check_budget, check_even_p
from .errors import json_int, json_object
from .freegroup import Word, WordTuple, check_grid, code_inverse, code_multiply
from .freegroup import format_word, gamma_indices, letter_code, parse_word

#: A tracial matrix is a square complex ndarray with trace functional Tr/N.
TracialMatrix = np.ndarray

MATRIX = "matrix"
GROUP_ALGEBRA = "group_algebra"

#: Coefficient entries formed per batched matmul of a group-algebra product.
_BATCH = 1 << 16
#: Side of the diagonal blocks of a traced product, if it divides the side N.
_TRACE_BLOCK = 8


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


def _matrix_even_trace(x: np.ndarray, p: int) -> complex:
    """Tr((x* x)^(p/2)) for a (possibly rectangular) matrix x at even p.

    A wide x is taken through the smaller Gram x x*, whose powers have the
    same trace by cyclicity; a square or tall x through x* x.
    """
    check_even_p(p)
    gram = x @ x.conj().T if x.shape[0] < x.shape[1] else x.conj().T @ x
    return np.trace(np.linalg.matrix_power(gram, p // 2))


def product_diagonals(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Diagonals (..., q, N) of x_i @ y, x_i the N-row slabs of x (..., q N, K), y (..., K, N).

    Row block r of all slabs, stacked, meets column block r of y in one matmul
    (blocks of 8 where 8 divides N, else of N): each entry keeps its bits.
    """
    k, n = y.shape[-2:]
    b = _TRACE_BLOCK if n % _TRACE_BLOCK == 0 else n
    slabs = x.reshape(x.shape[:-2] + (-1, n // b, b, k)).swapaxes(-4, -3)
    cols = y.reshape(y.shape[:-2] + (k, n // b, b)).swapaxes(-3, -2)
    prods = slabs.reshape(slabs.shape[:-3] + (-1, k)) @ cols
    diag = np.diagonal(prods.reshape(prods.shape[:-2] + (-1, b, b)), 0, -2, -1)
    return diag.swapaxes(-3, -2).copy().reshape(diag.shape[:-3] + (-1, n))


def schatten_even_norm(x, p: int) -> float:
    """(ntrace((x* x)^(p/2)))^(1/p), the L_p norm under Tr/N at even p."""
    arr = as_tracial_matrix(x)
    return _even_root(_matrix_even_trace(arr, p), arr.shape[0], p)


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
    return _even_root(_matrix_even_trace(X.matrix, p), X.coeff_dim, p)


#: A word tuple in integer codes, one tuple of letter codes per factor.
Key = tuple[tuple[int, ...], ...]


class _Terms(Mapping):
    """An element's terms as a read-only map from WordTuple to coefficient, in key order."""

    def __init__(self, x: "GroupAlgebraElement"):
        self._x = x

    def __len__(self) -> int:
        return len(self._x.keys)

    def __iter__(self):
        return map(WordTuple.from_codes, self._x.keys)

    def __getitem__(self, word_tuple: WordTuple) -> np.ndarray:
        if isinstance(word_tuple, WordTuple):
            keys, key = self._x.keys, word_tuple.codes
            i = bisect.bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                return self._x.coeffs[i]
        raise KeyError(word_tuple)


@dataclass(frozen=True, eq=False)
class GroupAlgebraElement:
    """Finite formal sum of matrix coefficients against elements of F_n^arity.

    ``keys`` are the reduced word tuples in integer codes (see
    :mod:`orthosum.freegroup`), ascending, and ``coeffs`` the read-only
    ``(len(keys),) + coeff_shape`` stack of their complex coefficients, none
    exactly zero; ``terms`` shows them as a map from :class:`WordTuple`.
    Instances are immutable; every arithmetic operation returns a fresh
    element.  Coefficients are usually square; rectangular shapes arise only
    from flattenings.
    """

    arity: int
    n: int
    coeff_shape: tuple[int, int]
    keys: tuple[Key, ...]
    coeffs: np.ndarray

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
        coeff_shape = tuple(coeff_shape)
        stack = np.empty((len(terms),) + coeff_shape, dtype=complex)
        for i, (wt, coeff) in enumerate(terms.items()):
            if wt.arity != arity:
                raise ValueError(f"word tuple arity {wt.arity} != {arity}")
            if wt.max_generator > n:
                raise ValueError(f"word tuple uses generator beyond {n}")
            arr = np.asarray(coeff, dtype=complex)
            if arr.shape != coeff_shape:
                raise ValueError(f"coefficient shape {arr.shape} != {coeff_shape}")
            stack[i] = arr
        return cls.from_codes(arity, n, coeff_shape, [wt.codes for wt in terms], stack)

    @classmethod
    def from_codes(cls, arity: int, n: int, coeff_shape, keys: Sequence[Key], stack):
        """Unvalidated constructor on coded keys, one per row of ``stack``, which it owns.

        Rows of equal keys are summed in the order given (see
        :func:`_sum_by_label`); sums that are exactly zero are dropped and the
        keys sorted.
        """
        return cls._from_batches(arity, n, coeff_shape, keys, [stack])

    @classmethod
    def _from_batches(cls, arity, n, coeff_shape, keys: Sequence[Key], batches):
        """:meth:`from_codes` with the rows of ``keys`` split into consecutive batches."""
        labels: dict[Key, int] = {}
        idx = [labels.setdefault(key, len(labels)) for key in keys]
        batches = iter(batches)
        stack = next(batches)
        if len(labels) < len(idx) or len(stack) < len(idx):
            idx = np.array(idx, dtype=np.intp)
            batches = itertools.chain([stack], batches)
            stack = _sum_by_label(idx, len(labels), stack.shape[1:], batches)
        unique = list(labels)
        kept = itertools.compress(range(len(unique)), stack.any(axis=(1, 2)).tolist())
        order = sorted(kept, key=unique.__getitem__)
        if order != list(range(len(unique))):
            stack = stack[order]
        stack.setflags(write=False)
        return cls(arity, n, tuple(coeff_shape), tuple(unique[i] for i in order), stack)

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
    def terms(self) -> Mapping[WordTuple, np.ndarray]:
        return _Terms(self)

    @property
    def coeff_dim(self) -> int:
        r, c = self.coeff_shape
        if r != c:
            raise ValueError(f"coefficients are rectangular: {self.coeff_shape}")
        return r

    @property
    def term_count(self) -> int:
        return len(self.keys)

    def sorted_terms(self) -> list[tuple[WordTuple, np.ndarray]]:
        return list(zip(self.terms, self.coeffs))

    def coefficient(self, word_tuple: WordTuple) -> np.ndarray:
        got = self.terms.get(word_tuple)
        return np.zeros(self.coeff_shape, dtype=complex) if got is None else got

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check_compatible(other)
        stack = np.concatenate([self.coeffs, other.coeffs])
        return self.from_codes(
            self.arity, self.n, self.coeff_shape, self.keys + other.keys, stack
        )

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "GroupAlgebraElement":
        return self.from_codes(
            self.arity, self.n, self.coeff_shape, self.keys, scalar * self.coeffs
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


def _sum_by_label(idx: np.ndarray, count: int, shape, batches) -> np.ndarray:
    """Row l: the sum of the rows labelled l by ``idx``, in their order in ``batches``.

    Sums start from -0.0, the exact identity of floating-point addition, so
    each equals a running sum seeded with its first row, signed zeros
    included; ``np.add.at`` adds entry by entry in index order.
    """
    size = shape[0] * shape[1]
    out = np.full((count,) + tuple(shape), complex(-0.0, -0.0))
    start = 0
    for batch in batches:
        rows = idx[start : start + len(batch)]
        start += len(batch)
        entries = (rows[:, None] * size + np.arange(size)).reshape(-1)
        np.add.at(out.reshape(-1), entries, batch.reshape(-1))
    return out


def _chained_shape(x: GroupAlgebraElement, y: GroupAlgebraElement) -> tuple[int, int]:
    """Coefficient shape of x y, or ValueError when x and y do not multiply."""
    x._check_compatible(y)
    if x.coeff_shape[1] != y.coeff_shape[0]:
        raise ValueError(
            f"coefficient shapes {x.coeff_shape} and {y.coeff_shape} do not chain"
        )
    return x.coeff_shape[0], y.coeff_shape[1]


def ga_multiply(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product: words multiply componentwise, coefficients by matmul.

    The coefficient products come from batched matmuls of at most _BATCH
    entries (one batch unless coefficients are large), and equal words merge
    in pair order, the terms of x outer and those of y inner.
    """
    shape = _chained_shape(x, y)
    keys = [tuple(map(code_multiply, a, b)) for a in x.keys for b in y.keys]
    step = max(1, _BATCH // max(1, len(y.keys) * shape[0] * shape[1]))

    def batch(i: int) -> np.ndarray:
        prods = x.coeffs[i : i + step, None] @ y.coeffs[None, :]
        return prods.reshape((prods.shape[0] * prods.shape[1],) + shape)

    batches = map(batch, range(0, max(len(x.keys), 1), step))
    return GroupAlgebraElement._from_batches(x.arity, x.n, shape, keys, batches)


def ga_adjoint(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """Involution: word tuples invert, coefficients conjugate-transpose."""
    return GroupAlgebraElement.from_codes(
        x.arity,
        x.n,
        (x.coeff_shape[1], x.coeff_shape[0]),
        [tuple(map(code_inverse, key)) for key in x.keys],
        x.coeffs.conj().transpose(0, 2, 1),
    )


def _paired_diagonal(x: GroupAlgebraElement, y: GroupAlgebraElement) -> np.ndarray:
    """Diagonal of the coefficient at the identity of x y, without forming x y.

    It sums, from -0.0, the diagonals of X_w Y_(w^-1) over the words w of x in
    sorted order, as ga_multiply merges them, unpruned; the shorter side's
    non-empty words are inverted.
    """
    r, c = _chained_shape(x, y)
    if r != c:
        raise ValueError("trace of a rectangular element")
    acc = np.full(r, complex(-0.0, -0.0))
    flip = len(x.keys) < len(y.keys)  # bisect the shorter side's inverses in the other
    short, long = (x.keys, y.keys) if flip else (y.keys, x.keys)
    inverses = [tuple(code_inverse(w) if w else w for w in key) for key in short]
    at = [bisect.bisect_left(long, key) for key in inverses]
    found = [(i, j) for j, i in enumerate(at) if i < len(long) and long[i] == inverses[j]]
    a, b = np.array(sorted(p[::-1] if flip else p for p in found), dtype=np.intp).reshape(-1, 2).T
    step = max(1, _BATCH // (r * c))
    for i in range(0, len(a), step):
        diags = product_diagonals(x.coeffs[a[i : i + step]], y.coeffs[b[i : i + step]])[:, 0]
        diags[0] += acc  # acc + diag(X_w Y_(w^-1)), in one running sum
        acc = np.add.accumulate(diags, axis=0)[-1]
    return acc


def ga_trace(x: GroupAlgebraElement) -> complex:
    """Normalized trace of the coefficient at the identity tuple, the least key (0 if absent)."""
    if not x.keys or any(x.keys[0]):
        return 0j
    return complex(np.trace(x.coeffs[0]) / x.coeff_dim)  # coeff_dim refuses a rectangle


def ga_product_trace(x: GroupAlgebraElement, y: GroupAlgebraElement) -> complex:
    """``ga_trace(ga_multiply(x, y))`` from the paired words of x and y; 0j on a zero diagonal."""
    diagonal = _paired_diagonal(x, y)
    return complex(diagonal.sum() / len(diagonal)) if diagonal.any() else 0j


def _gram_power_diagonal(x: GroupAlgebraElement, p: int, budget: int) -> np.ndarray:
    """Diagonal of the coefficient at the identity of (x* x)^(p/2), by half-power pairing.

    With k = p/2, A = (x* x)^floor(k/2) and B = (x* x)^ceil(k/2), it is
    :func:`_paired_diagonal` of A and B; for k = 1 of x* and x.
    """
    check_even_p(p)
    check_budget(max(x.term_count, 1), budget, "even-norm word expansion", p)
    check_budget(p // 2, budget, "even-norm products")
    k = p // 2
    if k == 1:
        return _paired_diagonal(ga_adjoint(x), x)
    half = gram = ga_multiply(ga_adjoint(x), x)
    for _ in range(k // 2 - 1):
        half = ga_multiply(half, gram)
    other = ga_multiply(half, gram) if k % 2 else half
    return _paired_diagonal(half, other)


def ga_even_norm(x: GroupAlgebraElement, p: int, budget: int = DEFAULT_BUDGET) -> float:
    """Exact L_p norm at even p under the normalized trace: ga_vv_norm at coeff_dim."""
    return _even_root(_gram_power_diagonal(x, p, budget).sum(), x.coeff_dim, p)


def ga_vv_norm(
    x: GroupAlgebraElement, p: int, coeff_dim: int, budget: int = DEFAULT_BUDGET
) -> float:
    """Vector-valued even-p norm of a (possibly rectangular) element.

    The trace is normalized by ``coeff_dim`` only, leaving the matrix-unit
    factor un-normalized; used on flattened families.
    """
    return _even_root(_gram_power_diagonal(x, p, budget).sum(), coeff_dim, p)


def generator_sum(
    a: Mapping[tuple[int, ...], np.ndarray], n: int, d: int
) -> GroupAlgebraElement:
    """Sum of a_gamma against the generator tuple (g_{i_1}, ..., g_{i_d})."""
    for gamma in sorted(a):
        if len(gamma) != d or any(not 1 <= i <= n for i in gamma):
            raise ValueError(f"index {gamma} outside [{n}]^{d}")
    if not a:
        raise ValueError("empty coefficient map")
    stack = np.array([as_tracial_matrix(a[gamma]) for gamma in a])
    keys = [tuple((letter_code(i),) for i in gamma) for gamma in a]
    return GroupAlgebraElement.from_codes(d, n, stack.shape[1:], keys, stack)


def word_sum(n: int, words: Sequence[Word], coeffs) -> GroupAlgebraElement:
    """Sum of coeffs[i] against words[i] in the group algebra of F_n (arity 1)."""
    stack, keys = np.stack(coeffs).astype(complex, copy=False), [(w.codes,) for w in words]
    return GroupAlgebraElement.from_codes(1, n, stack.shape[1:], keys, stack)


@dataclass
class OperatorFamily:
    """A [n]^d-indexed family of tracial matrices or group-algebra elements, and its ``members``."""

    n: int
    d: int
    kind: str
    values: dict[tuple[int, ...], Any]

    def __post_init__(self):
        if self.kind not in (MATRIX, GROUP_ALGEBRA):
            raise ValueError(f"unknown kind {self.kind!r}")
        check_grid(self.values, self.n, self.d)
        members = [self.values[g] for g in self.gammas()]
        if self.kind == MATRIX:
            dims = {as_tracial_matrix(v).shape for v in members}
            if len(dims) != 1:
                raise ValueError(f"matrix members must have the same shape: {dims}")
            self.members = np.array(members, dtype=complex)
            self.members.setflags(write=False)
            view = dict(zip(self.gammas(), self.members))
            self.values = {g: view[g] for g in self.values}
        else:
            keys = {(v.arity, v.n, v.coeff_shape) for v in members}
            if len(keys) != 1:
                raise ValueError(f"non-uniform group-algebra parameters: {keys}")
            self.members = tuple(members)
        for g, v in self.values.items():
            if not np.isfinite(v if self.kind == MATRIX else v.coeffs).all():
                raise ValueError(f"non-finite coefficient at index {g}")

    def gammas(self) -> list[tuple[int, ...]]:
        return gamma_indices(self.n, self.d)

    @property
    def coeff_dim(self) -> int:
        return self.members.shape[1] if self.kind == MATRIX else self.members[0].coeff_dim

    def sum_value(self):
        """Sum of the family members (matrix or group-algebra element)."""
        return functools.reduce(operator.add, self.members)


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
    try:
        scale = 1.0 + sum(_even_norm(v, p, budget) ** p for v in f.values.values())
    except OverflowError:  # a finite norm whose float power overflows
        scale = np.inf
    if not np.isfinite(scale):
        raise ValueError(f"family scale is not finite ({scale}) at p={p}")
    return scale


def _flattened(f: OperatorFamily, split: SplitPair, members: np.ndarray) -> np.ndarray:
    """Flattening of the ``(..., n^d, r, c)`` member tensor along ``split``, leading axes kept.

    Member gamma lands at block (pi_alpha(gamma), pi_beta(gamma)), the
    lexicographic positions of its sub-indices.
    """
    if split.d != f.d:
        raise ValueError(f"split of 1..{split.d} against a {f.d}-indexed family")
    lead, (r, c) = members.shape[:-3], members.shape[-2:]
    grid = members.reshape(lead + (f.n,) * f.d + (r, c))
    # coordinate k is axis k - d - 3 from the end, r is axis -2 and c axis -1
    order = [k - f.d - 3 for k in split.alpha] + [-2] + [k - f.d - 3 for k in split.beta] + [-1]
    shape = (f.n ** len(split.alpha) * r, f.n ** len(split.beta) * c)
    return np.moveaxis(grid, order, range(-f.d - 2, 0)).copy().reshape(lead + shape)


def flatten(f: OperatorFamily, split: SplitPair) -> Flattening:
    """Block matrix of a matrix-valued family along a coordinate split."""
    if f.kind != MATRIX:
        raise KindError("flatten expects a matrix-valued family")
    return Flattening(matrix=_flattened(f, split, f.members), coeff_dim=f.coeff_dim, split=split)


def ga_flatten(f: OperatorFamily, split: SplitPair) -> GroupAlgebraElement:
    """Flattening of a group-algebra-valued family, as a rectangular element.

    Block (pi_alpha(gamma), pi_beta(gamma)) of each word coefficient receives
    the corresponding coefficient of f_gamma; use :func:`ga_vv_norm` with the
    family coefficient dimension to take its vector-valued norm.
    """
    if f.kind != GROUP_ALGEBRA:
        raise KindError("ga_flatten expects a group-algebra-valued family")
    keys = sorted({key for v in f.members for key in v.keys})
    row = {key: i for i, key in enumerate(keys)}
    probe = f.members[0]
    dense = np.zeros((len(row), len(f.members)) + probe.coeff_shape, dtype=complex)
    for j, v in enumerate(f.members):
        dense[[row[key] for key in v.keys], j] += v.coeffs
    stack = _flattened(f, split, dense)
    return GroupAlgebraElement.from_codes(probe.arity, probe.n, stack.shape[1:], keys, stack)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def matrix_to_json(x) -> dict:
    arr = as_tracial_matrix(x)
    return {
        "dim": arr.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in arr.ravel()],
    }


def _is_number_pair(entry) -> bool:
    return isinstance(entry, list) and len(entry) == 2 and {*map(type, entry)} <= {int, float}


def matrix_from_json(obj: Mapping) -> np.ndarray:
    obj = json_object(obj, ("dim", "entries"), "a matrix")
    dim, entries = json_int(obj["dim"], "dim"), obj["entries"]
    if dim < 1:
        raise ValueError(f"a matrix needs dim >= 1, got {dim}")
    if not (isinstance(entries, list) and len(entries) == dim * dim):
        raise ValueError(f"expected a list of {dim * dim} entries, got {entries!r:.60}")
    if not all(map(_is_number_pair, entries)):
        raise ValueError("every matrix entry must be a [re, im] pair of numbers")
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
    obj = json_object(obj, ("arity", "n", "terms"), "a group-algebra element")
    arity = json_int(obj["arity"], "arity")
    n = json_int(obj["n"], "n")
    terms: dict[WordTuple, np.ndarray] = {}
    shape: tuple[int, int] | None = None
    if not isinstance(obj["terms"], list):
        raise ValueError("the terms of an element must be a list")
    for item in obj["terms"]:
        words = json_object(item, ("words", "coeff"), "a term")["words"]
        if not (isinstance(words, list) and all(isinstance(t, str) for t in words)):
            raise ValueError("the words of a term must be a list of strings")
        wt = WordTuple(tuple(parse_word(t) for t in item["words"]))
        coeff = matrix_from_json(item["coeff"])
        shape = coeff.shape
        terms[wt] = terms[wt] + coeff if wt in terms else coeff
    if shape is None:
        raise ValueError("group-algebra element with no terms")
    return GroupAlgebraElement.build(arity, n, shape, terms)


def family_to_json(f: OperatorFamily) -> dict:
    to_json = matrix_to_json if f.kind == MATRIX else ga_to_json
    values = {",".join(map(str, g)): to_json(v) for g, v in zip(f.gammas(), f.members)}
    return {"n": f.n, "d": f.d, "values": values}


def family_from_json(obj: Mapping) -> OperatorFamily:
    obj = json_object(obj, ("n", "d", "values"), "a family")
    if not isinstance(obj["values"], Mapping):
        raise ValueError("the values of a family must be an object")
    n, d = json_int(obj["n"], "n"), json_int(obj["d"], "d")
    values: dict[tuple[int, ...], Any] = {}
    kind = None
    for key, payload in obj["values"].items():
        gamma = tuple(int(part) for part in key.split(","))
        if "terms" in json_object(payload, (), f"family value {key!r}"):
            kind = GROUP_ALGEBRA
            values[gamma] = ga_from_json(payload)
        else:
            kind = MATRIX
            values[gamma] = matrix_from_json(payload)
    if kind is None:
        raise ValueError("family with no values")
    return OperatorFamily(n=n, d=d, kind=kind, values=values)
