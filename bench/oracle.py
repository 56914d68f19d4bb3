"""Reference values for checking orthosum reports, written with numpy alone.

Nothing here imports orthosum.  Families are rebuilt from the spec recipe
(Philox keyed by the spec seed, members drawn in lexicographic index order),
norms come from singular values instead of matrix powers, and dominated moment
sums are enumerated directly over index functions.

Conventions follow the package: the trace on N x N coefficients is Tr/N, a
flattening keeps the matrix-unit factor un-normalized, and the alternating
moment puts the adjoint on odd positions.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

Gamma = tuple[int, ...]
Family = dict[Gamma, np.ndarray]
#: A set partition of 1..p as a list of blocks, each a tuple of positions.
Partition = Sequence[Sequence[int]]


def grid(n: int, d: int) -> list[Gamma]:
    """[n]^d in lexicographic order, 1-based."""
    return list(itertools.product(range(1, n + 1), repeat=d))


def _complex_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    real = rng.standard_normal((dim, dim))
    return real + 1j * rng.standard_normal((dim, dim))


def _sign_products(n: int, d: int, gamma: Gamma) -> np.ndarray:
    """r_{1,i_1} ... r_{d,i_d} over all 2^(n d) sign patterns."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n * d)))
    out = np.ones(signs.shape[0])
    for k, i in enumerate(gamma):
        out = out * signs[:, k * n + i - 1]
    return out


def family_matrices(kind: str, n: int, d: int, dim: int, seed: int) -> Family:
    """The members of a matrix-valued generated family."""
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    out: Family = {}
    for gamma in grid(n, d):
        if kind == "random_matrix":
            out[gamma] = _complex_matrix(rng, dim)
        elif kind == "rademacher":
            c = rng.standard_normal()
            out[gamma] = np.diag(c * _sign_products(n, d, gamma)).astype(complex)
        elif kind == "martingale_rademacher":
            a = _complex_matrix(rng, dim)
            out[gamma] = np.kron(a, np.diag(_sign_products(n, d, gamma)))
        else:
            raise ValueError(f"{kind!r} is not a matrix-valued kind")
    return out


def power_trace(x: np.ndarray, p: int, trace_dim: int) -> float:
    """Tr((x* x)^(p/2)) / trace_dim, from the singular values of x."""
    s = np.linalg.svd(x, compute_uv=False)
    return float(np.sum(s**p) / trace_dim)


def sum_moment(family: Family, p: int) -> float:
    """ntrace((S* S)^(p/2)) for S the sum of the family: the full moment sum."""
    total = sum(family.values())
    return power_trace(total, p, total.shape[0])


def sum_norm(family: Family, p: int) -> float:
    """The family-sum norm ntrace((S* S)^(p/2))^(1/p)."""
    return sum_moment(family, p) ** (1.0 / p)


def family_scale(family: Family, p: int) -> float:
    """1 + sum of member norms to the p-th power."""
    return 1.0 + sum(power_trace(v, p, v.shape[0]) for v in family.values())


def flattening(family: Family, n: int, d: int, alpha: Sequence[int]) -> np.ndarray:
    """Block matrix with member gamma at (gamma restricted to alpha, to the rest)."""
    beta = [k for k in range(1, d + 1) if k not in alpha]
    dim = next(iter(family.values())).shape[0]
    rows = {g: i for i, g in enumerate(grid(n, len(alpha)))}
    cols = {g: i for i, g in enumerate(grid(n, len(beta)))}
    out = np.zeros((len(rows) * dim, len(cols) * dim), dtype=complex)
    for gamma, value in family.items():
        u = rows[tuple(gamma[k - 1] for k in alpha)]
        v = cols[tuple(gamma[k - 1] for k in beta)]
        out[u * dim : (u + 1) * dim, v * dim : (v + 1) * dim] = value
    return out


def flattening_norm(
    family: Family, n: int, d: int, alpha: Sequence[int], p: int
) -> float:
    """Vector-valued norm of one flattening: the trace is normalized by dim only."""
    dim = next(iter(family.values())).shape[0]
    return power_trace(flattening(family, n, d, alpha), p, dim) ** (1.0 / p)


def max_flattening_norm(family: Family, n: int, d: int, p: int) -> float:
    """C: the largest flattening norm over all 2^d coordinate splits."""
    return max(
        flattening_norm(family, n, d, alpha, p)
        for size in range(d + 1)
        for alpha in itertools.combinations(range(1, d + 1), size)
    )


def set_partitions(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of 1..m, blocks ordered by least element."""
    if m == 0:
        return [()]
    out = []
    for rest in set_partitions(m - 1):
        out.append(rest + ((m,),))
        for j in range(len(rest)):
            grown = list(rest)
            grown[j] = rest[j] + (m,)
            out.append(tuple(grown))
    return out


def format_partition(blocks: Partition) -> str:
    """The package's text form, e.g. '1,3|2|4'."""
    return "|".join(",".join(str(e) for e in block) for block in blocks)


def alternating_moment(family: Family, h: Sequence[Gamma]) -> complex:
    """ntrace(f(h1)* f(h2) f(h3)* ... f(hp))."""
    acc = None
    for s, gamma in enumerate(h, start=1):
        v = family[gamma]
        m = v.conj().T if s % 2 else v
        acc = m if acc is None else acc @ m
    return complex(np.trace(acc) / acc.shape[0])


def psi(family: Family, n: int, sigmas: Sequence[Partition], p: int) -> complex:
    """Sum of alternating moments over h whose k-th coordinate is constant on
    every block of sigma_k, by direct enumeration of the block values."""
    per_coord = []
    for sigma in sigmas:
        maps = []
        for values in itertools.product(range(1, n + 1), repeat=len(sigma)):
            coord = [0] * p
            for block, value in zip(sigma, values):
                for s in block:
                    coord[s - 1] = value
            maps.append(coord)
        per_coord.append(maps)
    total = 0j
    for coords in itertools.product(*per_coord):
        h = [tuple(c[s] for c in coords) for s in range(p)]
        total += alternating_moment(family, h)
    return total


def free_generator_norm(n: int, d: int, p: int) -> float:
    """Norm of the sum over [n]^d of generator tuples, with identity coefficients.

    The sum is the d-fold tensor power of g_1 + ... + g_n, whose L_2 norm is
    sqrt(n) and whose L_4 norm is (2 n^2 - n)^(1/4).
    """
    if p == 2:
        return n ** (d / 2)
    if p == 4:
        return (2 * n * n - n) ** (d / 4)
    raise ValueError(f"no closed form at p={p}")
