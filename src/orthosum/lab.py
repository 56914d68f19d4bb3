"""Example-family generation and the inequality lab.

Families are generated from a seed through a counter-based Philox generator,
so every report is reproducible from its recorded seed.  All tolerances are
relative to the family scale 1 + sum of member norms to the p-th power.
Constants that the theory leaves unspecified are reported, never asserted;
only the constant-explicit statements (the 2^d sandwich, its constant-1
converse, the (3pi/2)p one-index bound, the 2pD root bound, the factorial
identities and the binomial count bound) are hard checks.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    GROUP_ALGEBRA,
    MATRIX,
    GroupAlgebraElement,
    OperatorFamily,
    all_splits,
    SplitPair,
    as_tracial_matrix,
    family_from_json,
    family_scale,
    family_sum_norm,
    flatten,
    ga_even_norm,
    ga_flatten,
    ga_vv_norm,
    generator_sum,
    vv_norm,
)
from .errors import (
    DEFAULT_BUDGET,
    ConstructionError,
    NotPOrthogonalError,
    check_budget,
    check_even_p,
    json_int,
)
from .freegroup import (
    Word,
    WordTuple,
    canonical_dissociate,
    gamma_indices,
    is_p_dissociate,
    letter_code,
    word_family_from_json,
)
from .orthogonality import is_p_orthogonal
from .partitions import SetPartition, all_partitions, bell, mobius

FREE_GENERATORS = "free_generators"
DISSOCIATE = "dissociate"
RADEMACHER = "rademacher"
RANDOM_MATRIX = "random_matrix"
MARTINGALE_RADEMACHER = "martingale_rademacher"
FILE = "file"

FAMILY_KINDS = (
    FREE_GENERATORS,
    DISSOCIATE,
    RADEMACHER,
    RANDOM_MATRIX,
    MARTINGALE_RADEMACHER,
    FILE,
)

#: One-index bound constant: norm of the sum <= (3 pi / 2) p * C.
ONE_INDEX_CONSTANT = 3.0 * math.pi / 2.0


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by a 64-bit seed in [0, 2^64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def random_complex_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Independent standard-normal real and imaginary parts."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_unitaries(
    rng: np.random.Generator, count: int, dim: int
) -> list[np.ndarray]:
    """Haar-ish unitaries from QR orthonormalization with a fixed phase choice."""
    out = []
    for _ in range(count):
        q, r = np.linalg.qr(random_complex_matrix(rng, dim))
        phases = np.diagonal(r).copy()
        phases = phases / np.abs(phases)
        out.append(q * phases.conj())
    return out


@dataclass
class FamilySpec:
    """Recipe for a generated operator family."""

    kind: str
    n: int
    d: int
    p: int
    dim: int = 1
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == FILE:
            if not self.path:
                raise ValueError("file kind needs a path")
            return
        if self.n < 1 or self.d < 1 or self.dim < 1:
            raise ValueError("n, d and dim must be positive")
        check_even_p(self.p)

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "path" or v is not None}

    @classmethod
    def from_json(cls, obj: Mapping) -> "FamilySpec":
        if not isinstance(obj, Mapping) or "kind" not in obj:
            raise ValueError("family spec must be a JSON object with a 'kind'")
        return cls(
            kind=obj["kind"],
            n=json_int(obj.get("n", 1), "n"),
            d=json_int(obj.get("d", 1), "d"),
            p=json_int(obj.get("p", 2), "p"),
            dim=json_int(obj.get("dim", 1), "dim"),
            seed=json_int(obj.get("seed", 0), "seed"),
            path=obj.get("path"),
        )

    @classmethod
    def from_file(cls, path: str) -> "FamilySpec":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _rademacher_columns(n: int, d: int) -> np.ndarray:
    """Sign table of shape (2^(n d), n d); column (k-1)n + (i-1) is r_{k,i}."""
    cols = n * d
    return np.array(list(product((1.0, -1.0), repeat=cols)))


def _rademacher_product(signs: np.ndarray, gamma: tuple[int, ...], n: int) -> np.ndarray:
    vec = np.ones(signs.shape[0])
    for k, i in enumerate(gamma):
        vec = vec * signs[:, k * n + (i - 1)]
    return vec


def make_family(spec: FamilySpec, budget: int = DEFAULT_BUDGET) -> OperatorFamily:
    """Instantiate a family from its spec.

    Word-based kinds are p-orthogonal exactly; Rademacher kinds to machine
    precision.  The dissociate kind certifies its word family first and
    raises with a witness if certification fails.  The n^d members of a
    generated family are charged to the budget before any is built.
    """
    if spec.kind == FILE:
        with open(spec.path) as fh:
            return family_from_json(json.load(fh))
    check_budget(spec.n**spec.d, budget, "family members")
    rng = make_rng(spec.seed)
    gammas = gamma_indices(spec.n, spec.d)

    if spec.kind == FREE_GENERATORS:
        coeff = np.eye(spec.dim)
        values = {
            g: GroupAlgebraElement.monomial(
                spec.d,
                spec.n,
                WordTuple(tuple(Word(((i, 1),)) for i in g)),
                coeff,
            )
            for g in gammas
        }
        return OperatorFamily(spec.n, spec.d, GROUP_ALGEBRA, values)

    if spec.kind == DISSOCIATE:
        if spec.path:
            with open(spec.path) as fh:
                words = word_family_from_json(json.load(fh))
            if (words.n, words.d) != (spec.n, spec.d):
                raise ValueError("word family index grid does not match the spec")
        else:
            words = canonical_dissociate(spec.n, spec.d)
        report = is_p_dissociate(words, spec.p, budget)
        if not report.ok:
            raise ConstructionError(
                f"word family is not {spec.p}-dissociate", witness=report.witness
            )
        group_n = max(w.max_generator for w in words.words.values())
        values = {
            g: GroupAlgebraElement.monomial(
                1,
                max(group_n, 1),
                WordTuple((words.words[g],)),
                random_complex_matrix(rng, spec.dim),
            )
            for g in gammas
        }
        return OperatorFamily(spec.n, spec.d, GROUP_ALGEBRA, values)

    if spec.kind == RADEMACHER:
        signs = _rademacher_columns(spec.n, spec.d)
        values = {}
        for g in gammas:
            c = rng.standard_normal()
            values[g] = np.diag(c * _rademacher_product(signs, g, spec.n)).astype(
                complex
            )
        return OperatorFamily(spec.n, spec.d, MATRIX, values)

    if spec.kind == MARTINGALE_RADEMACHER:
        signs = _rademacher_columns(spec.n, spec.d)
        values = {}
        for g in gammas:
            a = random_complex_matrix(rng, spec.dim)
            values[g] = np.kron(a, np.diag(_rademacher_product(signs, g, spec.n)))
        return OperatorFamily(spec.n, spec.d, MATRIX, values)

    if spec.kind == RANDOM_MATRIX:
        values = {g: random_complex_matrix(rng, spec.dim) for g in gammas}
        return OperatorFamily(spec.n, spec.d, MATRIX, values)

    raise ValueError(f"unknown family kind {spec.kind!r}")


@dataclass(frozen=True)
class Quantities:
    """The four norms entering the main estimate."""

    A: float
    B: float
    C: float
    D: float
    p: int
    n: int
    d: int


def _lambda_tensor_element(f: OperatorFamily) -> GroupAlgebraElement:
    """The sum of generator tuples tensored with the family members."""
    if f.kind == MATRIX:
        return generator_sum(f.values, f.n, f.d)
    probe = next(iter(f.values.values()))
    group_n = max(f.n, probe.n)
    arity = f.d + probe.arity
    keys = [
        tuple((letter_code(i),) for i in gamma) + key
        for gamma in f.gammas()
        for key in f.values[gamma].keys
    ]
    stack = np.concatenate([f.values[gamma].coeffs for gamma in f.gammas()])
    return GroupAlgebraElement.from_codes(arity, group_n, probe.coeff_shape, keys, stack)


def flattening_norm(
    f: OperatorFamily, split: SplitPair, p: int, budget: int = DEFAULT_BUDGET
) -> float:
    """Vector-valued norm of the family flattening along one split."""
    if f.kind == MATRIX:
        return vv_norm(flatten(f, split), p)
    return ga_vv_norm(ga_flatten(f, split), p, f.coeff_dim, budget)


def max_flattening_norm(
    f: OperatorFamily,
    p: int,
    budget: int = DEFAULT_BUDGET,
    splits: Sequence[SplitPair] | None = None,
) -> float:
    if splits is None:
        splits = all_splits(f.d)
    return max(flattening_norm(f, split, p, budget) for split in splits)


def _iteration_sandwich(
    f: OperatorFamily, p: int, budget: int, tol: float
) -> tuple[float, float, bool, bool]:
    """B (for matrices, the generator-sum norm), C, and C <= B, B <= 2^d C at tol."""
    B = float(ga_even_norm(_lambda_tensor_element(f), p, budget))
    C = float(max_flattening_norm(f, p, budget))
    return B, C, C <= B + tol, B <= (2**f.d) * C + tol


def _quantities(
    f: OperatorFamily, p: int, budget: int, tol: float
) -> tuple[Quantities, bool, bool]:
    """The quantities and the sandwich verdicts C <= B and B <= 2^d C at ``tol``."""
    A = float(family_sum_norm(f, p, budget))
    B, C, converse_ok, upper_ok = _iteration_sandwich(f, p, budget, tol)
    sup = max(
        math.factorial(p - r) ** ((f.d - 1) / (p - r)) for r in range(0, p - 1)
    )
    D = float(sup * p ** (f.d * (f.d - 1) // 2) * C)
    return Quantities(A=A, B=B, C=C, D=D, p=p, n=f.n, d=f.d), converse_ok, upper_ok


def compute_quantities(
    f: OperatorFamily, p: int, budget: int = DEFAULT_BUDGET
) -> Quantities:
    """A, B, C and D for a family, with the 2^d sandwich verified on the side.

    The sandwich tolerance is 1e-9 * family scale; a violation raises
    RuntimeError.  D uses the unit constant in place of the unspecified
    dimensional one, so it is a reported quantity only.
    """
    q, converse_ok, upper_ok = _quantities(f, p, budget, 1e-9 * family_scale(f, p, budget))
    if not (converse_ok and upper_ok):
        raise RuntimeError(
            f"iteration sandwich violated: C={q.C}, B={q.B}, 2^d C={(2 ** f.d) * q.C}"
        )
    return q


@dataclass(frozen=True)
class InequalityReport:
    ratio: float
    pisier_ok: bool | None
    quantities: Quantities
    tol: float  # 1e-9 * family scale
    #: the iteration sandwich at ``tol``: B <= 2^d C and its converse C <= B
    upper_ok: bool
    converse_ok: bool


def main_inequality_report(
    f: OperatorFamily, p: int, budget: int = DEFAULT_BUDGET
) -> InequalityReport:
    """Ratio of the sum norm to p^(d(d+1)/2) times the best flattening norm.

    Requires the family to be p-orthogonal at tolerance 1e-9 * scale; for one
    index the (3pi/2)p bound is additionally checked.  The iteration sandwich
    is decided here once and carried in the report, not raised.
    """
    tol = 1e-9 * family_scale(f, p, budget)
    report = is_p_orthogonal(f, p, tol, budget)
    if report.max_abs_violation > tol:
        raise NotPOrthogonalError(
            f"family is not {p}-orthogonal "
            f"(max violation {report.max_abs_violation:.3e} > {tol:.3e})",
            report,
        )
    q, converse_ok, upper_ok = _quantities(f, p, budget, tol)
    denom = p ** (f.d * (f.d + 1) // 2) * q.C
    if denom == 0.0:
        ratio = 0.0 if q.A == 0.0 else math.inf
    else:
        ratio = q.A / denom
    pisier_ok = None
    if f.d == 1:
        pisier_ok = bool(q.A <= ONE_INDEX_CONSTANT * p * q.C + tol)
    return InequalityReport(ratio, pisier_ok, q, tol, upper_ok, converse_ok)


@dataclass(frozen=True)
class KhintchineReport:
    lower_ok: bool
    upper_ok: bool
    S_norm: float
    C: float


def khintchine_iteration_check(
    a: Mapping[tuple[int, ...], np.ndarray],
    n: int,
    d: int,
    p: int,
    budget: int = DEFAULT_BUDGET,
) -> KhintchineReport:
    """Sandwich C <= |S_d(a)|_p <= 2^d C for the generator sum of a.

    This is the B/C sandwich of :func:`compute_quantities` applied to the
    coefficient family, at tolerance 1e-9 * its scale.
    """
    fam = OperatorFamily(n, d, MATRIX, {g: as_tracial_matrix(v) for g, v in a.items()})
    tol = 1e-9 * family_scale(fam, p, budget)
    S_norm, C, lower_ok, upper_ok = _iteration_sandwich(fam, p, budget, tol)
    return KhintchineReport(
        lower_ok=bool(lower_ok), upper_ok=bool(upper_ok), S_norm=S_norm, C=C
    )


@dataclass(frozen=True)
class AbsorptionReport:
    lhs: float
    rhs: float
    abs_err: float


def _pi_of_word(word: Word, unitaries: Sequence[np.ndarray]) -> np.ndarray:
    dim = unitaries[0].shape[0]
    acc = np.eye(dim, dtype=complex)
    for g, e in word.letters:
        u = unitaries[g - 1]
        acc = acc @ (u if e == 1 else u.conj().T)
    return acc


def absorption_check(
    a: Mapping[Word, np.ndarray],
    unitaries: Sequence[np.ndarray],
    p: int,
    budget: int = DEFAULT_BUDGET,
) -> AbsorptionReport:
    """Tensoring with a unitary word representation must leave the norm fixed.

    ``a`` is a finitely supported coefficient map on words of F_n and
    ``unitaries`` the images of the n generators; each must be unitary to
    1e-12 entrywise.
    """
    if not a:
        raise ValueError("empty coefficient map")
    unis = [as_tracial_matrix(u) for u in unitaries]
    for u in unis:
        gap = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if gap > 1e-12:
            raise ValueError(f"matrix is not unitary (defect {gap:.3e})")
    group_n = max(
        max((w.max_generator for w in a), default=0), len(unis)
    )
    plain_terms: dict[WordTuple, np.ndarray] = {}
    twisted_terms: dict[WordTuple, np.ndarray] = {}
    coeff_dim = None
    for word in sorted(a):
        coeff = as_tracial_matrix(a[word])
        if word.max_generator > len(unis):
            raise ValueError("word uses a generator with no unitary image")
        coeff_dim = coeff.shape[0]
        key = WordTuple((word,))
        plain_terms[key] = coeff
        twisted_terms[key] = np.kron(coeff, _pi_of_word(word, unis))
    plain = GroupAlgebraElement.build(
        1, group_n, (coeff_dim, coeff_dim), plain_terms
    )
    twisted_dim = coeff_dim * unis[0].shape[0]
    twisted = GroupAlgebraElement.build(
        1, group_n, (twisted_dim, twisted_dim), twisted_terms
    )
    lhs = ga_even_norm(twisted, p, budget)
    rhs = ga_even_norm(plain, p, budget)
    return AbsorptionReport(lhs=float(lhs), rhs=float(rhs), abs_err=float(abs(lhs - rhs)))


@dataclass(frozen=True)
class RootReport:
    root: float
    bound_ok: bool


def sublemma_root_check(p: int, D: float) -> RootReport:
    """Largest root of A^p = sum over r < p of C(p,r)(p-r)! A^r D^(p-r).

    Bisection on [D, 4pD] to 1e-10 relative; the bound checks root <= 2pD.
    A (p, D) whose polynomial leaves the double range there raises ValueError:
    the largest coefficient p! and the smallest term D^p are checked before any
    coefficient is built, and the polynomial at both ends of the bracket after
    (every term grows with A).
    """
    check_even_p(p)
    if not (math.isfinite(D) and D > 0):
        raise ValueError(f"D must be positive and finite, got {D}")
    out_of_range = ValueError(f"p = {p}, D = {D} leaves the double range")
    if math.lgamma(p + 1) > math.log(sys.float_info.max) or (
        p * math.log(D) < math.log(sys.float_info.min)
    ):
        raise out_of_range
    coeffs = [(math.comb(p, r) * math.factorial(p - r), r) for r in range(p)]

    def g(A: float) -> float:
        return A**p - sum(c * A**r * D ** (p - r) for c, r in coeffs)

    lo, hi = D, 4.0 * p * D
    try:
        g_lo, g_hi = g(lo), g(hi)
    except OverflowError:
        raise out_of_range from None
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
        raise out_of_range
    if g_lo > 0 or g_hi < 0:
        raise ArithmeticError("root not bracketed by [D, 4pD]")
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return RootReport(root=root, bound_ok=root <= 2.0 * p * D)


@dataclass(frozen=True)
class PhiRReport:
    phi_r: int
    bound: int
    ok: bool


def phi_r_bound_check(
    p: int, d: int, r: int, budget: int = DEFAULT_BUDGET
) -> PhiRReport:
    """Exact count of Mobius mass at r common singletons against its bound.

    Enumerates all d-tuples of partitions of 1..p above the singleton
    partition with exactly r common singletons, sums the products of
    |mu(0., sigma_k)|, and compares with C(p,r) * ((p-r)!)^d.
    """
    check_even_p(p)
    if d < 1 or not 0 <= r <= p:
        raise ValueError(f"bad (d, r) = ({d}, {r})")
    check_budget(bell(p) ** d, budget, "partition-tuple enumeration")
    parts = [s for s in all_partitions(p) if s.num_blocks < p]
    zero = SetPartition.singletons(p)
    absmu = {s: abs(mobius(zero, s)) for s in parts}
    singles = {s: frozenset(s.singleton_elements()) for s in parts}
    total = 0
    for delta in product(parts, repeat=d):
        common = singles[delta[0]]
        for sigma in delta[1:]:
            common = common & singles[sigma]
        if len(common) != r:
            continue
        weight = 1
        for sigma in delta:
            weight *= absmu[sigma]
        total += weight
    bound = math.comb(p, r) * math.factorial(p - r) ** d
    return PhiRReport(phi_r=total, bound=bound, ok=total <= bound)


@dataclass(frozen=True)
class DissociateEquivalenceReport:
    lhs: float
    rhs: float
    rhs_all_splits: float


def dissociate_equivalence_report(
    a: Mapping[tuple[int, ...], np.ndarray],
    n: int,
    d: int,
    p: int,
    budget: int = DEFAULT_BUDGET,
) -> DissociateEquivalenceReport:
    """Sum norm of the canonical dissociate family against coefficient flattenings.

    ``rhs`` maximizes over the d+1 contiguous splits (alpha a prefix of 1..d);
    ``rhs_all_splits`` over all 2^d.  Constants are not asserted; both sides
    are reported.
    """
    words = canonical_dissociate(n, d)
    terms = {
        WordTuple((words.words[g],)): as_tracial_matrix(a[g])
        for g in gamma_indices(n, d)
    }
    probe = next(iter(terms.values()))
    element = GroupAlgebraElement.build(1, n, probe.shape, terms)
    lhs = ga_even_norm(element, p, budget)
    coeff_fam = OperatorFamily(n, d, MATRIX, {g: a[g] for g in gamma_indices(n, d)})
    contiguous = [
        SplitPair.from_alpha(range(1, k + 1), d) for k in range(0, d + 1)
    ]
    rhs = max_flattening_norm(coeff_fam, p, budget, splits=contiguous)
    rhs_all = max_flattening_norm(coeff_fam, p, budget)
    return DissociateEquivalenceReport(lhs=lhs, rhs=rhs, rhs_all_splits=rhs_all)
