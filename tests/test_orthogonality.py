"""Moments, kernel partitions, and the decomposition identity, with brute-force sums."""

import math
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from orthosum.algebra import (
    GROUP_ALGEBRA,
    MATRIX,
    GroupAlgebraElement,
    OperatorFamily,
    family_scale,
)
from orthosum.errors import SizeLimitError
from orthosum.freegroup import Word, WordTuple, gamma_indices
from orthosum.lab import FamilySpec, make_family
from orthosum.orthogonality import (
    MomentTable,
    alternating_moment,
    has_injective_projection,
    is_p_orthogonal,
    mobius_decomposition_check,
    phi,
    psi,
    sigma_of,
)
from orthosum.partitions import SetPartition, all_partitions, refines

from moment_oracle import per_pair_moments, reference_moment


def rng(seed=0):
    return np.random.default_rng(seed)


def rand_matrix(r, dim):
    return r.standard_normal((dim, dim)) + 1j * r.standard_normal((dim, dim))


def random_family(n, d, dim, seed):
    r = rng(seed)
    return OperatorFamily(
        n, d, MATRIX, {g: rand_matrix(r, dim) for g in gamma_indices(n, d)}
    )


def all_index_functions(n, d, p):
    return product(gamma_indices(n, d), repeat=p)


def delta_of(h):
    return tuple(sigma_of(h, k) for k in range(1, len(h[0]) + 1))


def test_has_injective_projection():
    assert not has_injective_projection(((1, 1), (1, 1)), 2)
    assert has_injective_projection(((1,), (2,), (3,), (4,)), 1)
    assert has_injective_projection(((1, 1), (1, 2)), 2)
    assert not has_injective_projection(((1, 1), (1, 2), (2, 1), (2, 2)), 2)


def test_alternating_moment_identity_family():
    fam = OperatorFamily(
        2, 1, MATRIX, {(1,): np.eye(3), (2,): np.eye(3)}
    )
    assert alternating_moment(fam, ((1,), (2,), (1,), (2,))) == pytest.approx(1.0)


def test_alternating_moment_free_generators_vanishes_exactly():
    fam = make_family(FamilySpec("free_generators", n=2, d=2, p=2))
    h = ((1, 1), (1, 2))  # second coordinate injective
    assert has_injective_projection(h, 2)
    assert alternating_moment(fam, h) == 0


def test_alternating_moment_disjoint_diagonal_supports():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    fam = OperatorFamily(2, 1, MATRIX, {(1,): e11, (2,): e22})
    assert alternating_moment(fam, ((1,), (2,))) == 0


@pytest.mark.parametrize(
    "h",
    [(), ((1,),), ((1,), (2,), (1,)), ((1,), (3,)), ((1, 2), (1, 2)), ((0,), (1,)), ((1,), 2)],
)
def test_alternating_moment_refuses_an_empty_or_odd_index_function(h):
    fam = random_family(2, 1, 2, seed=3)
    if not h or len(h) % 2:
        match = "positive even length"
    else:  # even, but some entry is not a 1-tuple in [1, 2]
        match = re.escape(f"index function h = {h} leaves [n]^d = [2]^1")
    with pytest.raises(ValueError, match=match):
        alternating_moment(fam, h)


def test_alternating_moment_accepts_any_sequence_of_multi_indices():
    fam = random_family(2, 2, 2, seed=3)
    h = ((1, 2), (2, 1), (2, 2), (1, 1))
    want = alternating_moment(fam, h)
    assert alternating_moment(fam, [list(g) for g in h]) == want
    assert alternating_moment(fam, list(h)) == want
    assert want == reference_moment(fam, h)


def test_phi_and_psi_refuse_a_partition_tuple_of_another_shape():
    fam = random_family(2, 1, 2, seed=5)
    for fn in (phi, psi):
        with pytest.raises(ValueError, match="expected 1 partitions, got 2"):
            fn(fam, [SetPartition.one_block(4)] * 2, 4)
        with pytest.raises(ValueError, match="partition ground size 2 != 4"):
            fn(fam, [SetPartition.one_block(2)], 4)


def test_alternating_moment_flip_order():
    fam = random_family(2, 1, 2, seed=3)
    h = ((1,), (2,))
    a = alternating_moment(fam, h, adjoint_first=True)
    b = alternating_moment(fam, h, adjoint_first=False)
    v1, v2 = fam.values[(1,)], fam.values[(2,)]
    assert a == pytest.approx(np.trace(v1.conj().T @ v2) / 2)
    assert b == pytest.approx(np.trace(v1 @ v2.conj().T) / 2)


def test_sigma_of_examples():
    h = ((1, 1), (1, 1), (2, 1), (2, 2))
    assert sigma_of(h, 1) == SetPartition.from_blocks([[1, 2], [3, 4]])
    assert sigma_of(h, 2) == SetPartition.from_blocks([[1, 2, 3], [4]])
    constant = ((1, 1),) * 4
    assert sigma_of(constant, 1) == SetPartition.one_block(4)
    inj = ((1,), (2,), (3,), (4,))
    assert sigma_of(inj, 1) == SetPartition.singletons(4)
    with pytest.raises(ValueError):
        sigma_of(h, 3)


def test_is_p_orthogonal_free_generators():
    fam = make_family(FamilySpec("free_generators", n=2, d=2, p=4))
    report = is_p_orthogonal(fam, 4, 0.0)
    assert report.max_abs_violation == 0.0
    assert report.worst_h is None


def test_is_p_orthogonal_identity_family_fails():
    fam = OperatorFamily(2, 1, MATRIX, {(1,): np.eye(2), (2,): np.eye(2)})
    report = is_p_orthogonal(fam, 2, 1e-9)
    assert report.max_abs_violation == pytest.approx(1.0)
    assert report.worst_h is not None
    assert has_injective_projection(report.worst_h, 1)


def test_is_p_orthogonal_rademacher():
    fam = make_family(FamilySpec("rademacher", n=2, d=2, p=4, seed=5))
    report = is_p_orthogonal(fam, 4, 1e-12)
    assert report.max_abs_violation <= 1e-12


def test_is_p_orthogonal_budget():
    fam = random_family(2, 2, 2, seed=1)
    with pytest.raises(SizeLimitError):
        is_p_orthogonal(fam, 4, 1e-9, budget=10)


def brute_force_phi(fam, eta, p):
    acc = 0j
    for h in all_index_functions(fam.n, fam.d, p):
        if delta_of(h) == tuple(eta):
            acc += reference_moment(fam, h)
    return acc


def brute_force_psi(fam, sigmas, p):
    acc = 0j
    for h in all_index_functions(fam.n, fam.d, p):
        kernels = delta_of(h)
        if all(refines(sigmas[k], kernels[k]) for k in range(fam.d)):
            acc += reference_moment(fam, h)
    return acc


def test_phi_impossible_kernel_is_zero():
    fam = random_family(2, 1, 2, seed=7)
    eta = (SetPartition.singletons(4),)  # 4 blocks > n = 2 values
    assert phi(fam, eta, 4) == 0


def test_phi_top_kernel_is_constant_sum():
    fam = random_family(2, 2, 2, seed=8)
    eta = (SetPartition.one_block(4), SetPartition.one_block(4))
    expect = sum(
        reference_moment(fam, (g,) * 4) for g in gamma_indices(2, 2)
    )
    assert phi(fam, eta, 4) == pytest.approx(expect)


@pytest.mark.parametrize("n,d,p,dim", [(2, 1, 4, 2), (2, 2, 4, 2)])
def test_phi_sums_to_total_moment(n, d, p, dim):
    fam = random_family(n, d, dim, seed=n * 10 + d)
    table = MomentTable(fam, p)
    total_by_phi = sum(
        phi(fam, eta, p, table=table)
        for eta in product(all_partitions(p), repeat=d)
    )
    total = sum(reference_moment(fam, h) for h in all_index_functions(n, d, p))
    scale = family_scale(fam, p)
    assert abs(total_by_phi - total) <= 1e-10 * scale
    assert abs(table.total - total) <= 1e-10 * scale


def test_phi_matches_brute_force():
    fam = random_family(2, 2, 2, seed=9)
    eta = (
        SetPartition.from_blocks([[1, 2], [3, 4]]),
        SetPartition.from_blocks([[1, 3], [2, 4]]),
    )
    assert phi(fam, eta, 4) == pytest.approx(brute_force_phi(fam, eta, 4))


def test_psi_no_constraint_gives_total():
    fam = random_family(2, 2, 2, seed=10)
    sig = (SetPartition.singletons(4), SetPartition.singletons(4))
    total = sum(reference_moment(fam, h) for h in all_index_functions(2, 2, 4))
    assert psi(fam, sig, 4) == pytest.approx(total)


def test_psi_top_constraint_gives_constant_sum():
    fam = random_family(2, 2, 2, seed=11)
    sig = (SetPartition.one_block(4), SetPartition.one_block(4))
    expect = sum(reference_moment(fam, (g,) * 4) for g in gamma_indices(2, 2))
    assert psi(fam, sig, 4) == pytest.approx(expect)


def test_psi_equals_sum_of_dominating_phi():
    fam = random_family(2, 2, 2, seed=12)
    table = MomentTable(fam, 4)
    sig = (
        SetPartition.from_blocks([[1, 2], [3], [4]]),
        SetPartition.from_blocks([[1], [2], [3, 4]]),
    )
    by_phi = sum(
        phi(fam, eta, 4, table=table)
        for eta in product(all_partitions(4), repeat=2)
        if refines(sig[0], eta[0]) and refines(sig[1], eta[1])
    )
    direct = brute_force_psi(fam, sig, 4)
    assert psi(fam, sig, 4, table=table) == pytest.approx(by_phi)
    assert psi(fam, sig, 4, table=table) == pytest.approx(direct)


def test_decomposition_single_index_pair_is_exact():
    # integer entries make both sides exact in floating point
    fam = OperatorFamily(
        2,
        1,
        MATRIX,
        {(1,): np.array([[1.0, 2.0], [0.0, 1.0]]), (2,): np.array([[3.0, 0.0], [1.0, 1.0]])},
    )
    report = mobius_decomposition_check(fam, 2)
    assert report.abs_err == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_decomposition_random_matrix_family(seed):
    fam = random_family(2, 2, 3, seed=100 + seed)
    report = mobius_decomposition_check(fam, 4)
    assert report.abs_err <= 1e-9 * family_scale(fam, 4)


def test_decomposition_free_generators_all_in_noninjective_part():
    fam = make_family(FamilySpec("free_generators", n=2, d=2, p=4))
    report = mobius_decomposition_check(fam, 4)
    assert report.injective_sum == 0
    assert report.abs_err == 0.0
    assert report.lhs == pytest.approx(report.rhs)


def test_decomposition_flip_order_also_holds():
    fam = random_family(2, 2, 2, seed=55)
    report = mobius_decomposition_check(fam, 4, adjoint_first=False)
    assert report.abs_err <= 1e-9 * family_scale(fam, 4)


def test_moment_table_counts():
    fam = random_family(2, 2, 2, seed=13)
    table = MomentTable(fam, 4)
    assert table.count == 4**4
    assert sum(table.phi_map.values()) == pytest.approx(table.total)


def test_group_algebra_moment_table_matches_generic_path():
    fam = make_family(FamilySpec("free_generators", n=2, d=1, p=4))
    table = MomentTable(fam, 4)
    total = sum(reference_moment(fam, h) for h in all_index_functions(2, 1, 4))
    assert table.total == pytest.approx(total)


def multi_term_family(seed):
    """A one-index group-algebra family whose members have several terms."""
    r = rng(seed)

    def element(*words):
        terms = {WordTuple((w,)): rand_matrix(r, 2) for w in words}
        return GroupAlgebraElement.build(1, 2, (2, 2), terms)

    return OperatorFamily(
        2,
        1,
        GROUP_ALGEBRA,
        {
            (1,): element(Word(((1, 1),)), Word(((2, 1), (1, 1)))),
            (2,): element(Word(), Word(((2, -1),)), Word(((1, -1), (2, 1)))),
        },
    )


MOMENT_FAMILIES = {
    "matrix": lambda: random_family(2, 2, 2, seed=21),
    "single_term": lambda: make_family(FamilySpec("free_generators", n=2, d=2, p=4)),
    "dissociate": lambda: make_family(
        FamilySpec("dissociate", n=2, d=2, p=4, dim=2, seed=22)
    ),
    "multi_term": lambda: multi_term_family(23),
}


def test_has_injective_projection_is_defined_once():
    import ast

    import orthosum
    from orthosum import freegroup, orthogonality

    assert orthogonality.has_injective_projection.__module__ == "orthosum.orthogonality"
    assert orthosum.has_injective_projection is orthogonality.has_injective_projection
    assert not hasattr(freegroup, "has_injective_projection")
    tree = ast.parse(Path(freegroup.__file__).read_text())
    imported = {
        (node.module or "").removeprefix("orthosum.")
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
    }
    assert not imported & {"partitions", "algebra", "orthogonality"}


@pytest.mark.parametrize("adjoint_first", [True, False])
@pytest.mark.parametrize("kind", sorted(MOMENT_FAMILIES))
def test_alternating_moment_matches_reference(kind, adjoint_first):
    fam = MOMENT_FAMILIES[kind]()
    for h in all_index_functions(fam.n, fam.d, 4):
        got = alternating_moment(fam, h, adjoint_first)
        want = reference_moment(fam, h, adjoint_first)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), h


@pytest.mark.parametrize("kind", sorted(MOMENT_FAMILIES))
def test_is_p_orthogonal_matches_reference(kind):
    fam = MOMENT_FAMILIES[kind]()
    injective = [
        h for h in all_index_functions(fam.n, fam.d, 2) if has_injective_projection(h, fam.d)
    ]
    want = max(abs(reference_moment(fam, h)) for h in injective)
    report = is_p_orthogonal(fam, 2, 0.0)
    assert report.count_checked == len(injective)
    assert abs(report.max_abs_violation - want) <= 1e-12 * (1.0 + want)


def test_moment_table_matches_reference_on_multi_term_family():
    fam = multi_term_family(24)
    table = MomentTable(fam, 4)
    total = sum(reference_moment(fam, h) for h in all_index_functions(2, 1, 4))
    assert abs(table.total - total) <= 1e-12 * (1.0 + abs(total))


def test_nan_coefficient_is_rejected_not_passed():
    ones = {g: np.eye(1) for g in gamma_indices(4, 1)}
    report = is_p_orthogonal(OperatorFamily(4, 1, MATRIX, ones), 4, 1e-9)
    assert report.max_abs_violation == pytest.approx(1.0)
    with_nan = dict(ones)
    with_nan[(1,)] = np.array([[np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        OperatorFamily(4, 1, MATRIX, with_nan)


def sequential_table(fam, p, adjoint_first):
    """total, injective sum and phi map, adding reference moments one by one."""
    total = injective = 0j
    by_kernel = {}
    for h in all_index_functions(fam.n, fam.d, p):
        m = reference_moment(fam, h, adjoint_first)
        total += m
        if has_injective_projection(h, fam.d):
            injective += m
        kernels = delta_of(h)
        by_kernel[kernels] = by_kernel.get(kernels, 0j) + m
    return total, injective, by_kernel


ORACLE_FAMILIES = [
    ("random_matrix", 1),
    ("random_matrix", 2),
    ("random_matrix", 3),
    ("rademacher", 1),
    ("martingale_rademacher", 1),
    ("martingale_rademacher", 2),
    ("martingale_rademacher", 3),
]


@pytest.mark.parametrize("n,d,p", [(2, 2, 4), (2, 1, 6)])
@pytest.mark.parametrize("adjoint_first", [True, False])
@pytest.mark.parametrize("kind,dim", ORACLE_FAMILIES)
def test_batched_moment_table_matches_sequential_reference(kind, dim, adjoint_first, n, d, p):
    fam = make_family(FamilySpec(kind, n=n, d=d, p=p, dim=dim, seed=31 + dim))
    table = MomentTable(fam, p, adjoint_first=adjoint_first)
    total, injective, by_kernel = sequential_table(fam, p, adjoint_first)

    def close(got, want):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))

    assert table.count == n ** (d * p)
    assert close(table.total, total)
    assert close(table.injective_sum, injective)
    assert list(table.phi_map) == list(by_kernel)
    for eta, want in by_kernel.items():
        assert close(table.phi_map[eta], want), eta


@pytest.mark.parametrize("block", [1, 5, 40, 200])
@pytest.mark.parametrize(
    "make",
    [
        lambda: random_family(2, 2, 3, seed=41),
        lambda: make_family(FamilySpec("free_generators", n=2, d=2, p=4)),
    ],
    ids=["matrix", "group_algebra"],
)
def test_moment_table_in_many_blocks_equals_one_block(monkeypatch, make, block):
    from orthosum import orthogonality

    fam = make()
    whole = MomentTable(fam, 4)
    monkeypatch.setattr(orthogonality, "_BLOCK", block)
    runs = [len(run) for _, run in orthogonality._prefix_walk(fam, 4, True)]
    assert len(runs) > 1 and sum(runs) == 4**4
    # a run's products hold at most `block` entries, or it is one prefix's K completions
    entries = fam.coeff_dim**2 if fam.kind == MATRIX else 1
    assert max(runs) * entries <= max(block, 4 * entries)
    split = MomentTable(fam, 4)
    assert (split.total, split.injective_sum) == (whole.total, whole.injective_sum)
    assert list(split.phi_map.items()) == list(whole.phi_map.items())


def test_families_of_one_shape_share_labels_but_not_results():
    from orthosum.orthogonality import _kernel_labels

    _kernel_labels.cache_clear()
    first, second = random_family(2, 2, 2, seed=51), random_family(2, 2, 2, seed=52)
    tables = [MomentTable(fam, 4) for fam in (first, second)]
    info = _kernel_labels.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert tables[0].total != tables[1].total
    for fam, table in zip((first, second), tables):
        total, injective, by_kernel = sequential_table(fam, 4, True)
        assert abs(table.total - total) <= 1e-12 * abs(total)
        assert abs(table.injective_sum - injective) <= 1e-12 * abs(injective)
        assert table.phi_map.keys() == by_kernel.keys()
    labels, injective, *_ = _kernel_labels(2, 2, 4)
    assert labels.dtype == np.int32 and injective.dtype == np.bool_
    with pytest.raises(ValueError):
        labels[0] = 1


@pytest.mark.parametrize("m", range(1, 7))
def test_cached_mobius_weight_equals_a_fresh_sum(m):
    from orthosum.orthogonality import _mobius_weight
    from orthosum.partitions import mobius, refinements

    zero = SetPartition.singletons(m)
    for eta in all_partitions(m):
        fresh = sum(mobius(zero, s) for s in refinements(eta) if s != zero)
        assert _mobius_weight(eta) == fresh == (0 if eta == zero else -1), eta


def test_cached_mobius_weights_are_still_charged_to_the_budget():
    fam = random_family(1, 1, 1, seed=53)
    mobius_decomposition_check(fam, 6)  # every weight of this shape is cached now
    with pytest.raises(SizeLimitError, match="Mobius weight"):
        mobius_decomposition_check(fam, 6, budget=100)


@pytest.mark.parametrize("n, d, p", [(1, 1, 6), (2, 1, 6), (3, 1, 6), (2, 2, 4), (3, 2, 2)])
def test_label_weights_and_charge_are_those_of_each_kernel_tuple(n, d, p):
    from orthosum.orthogonality import _kernel_labels, _label_weights, _mobius_weight
    from orthosum.partitions import refinement_count

    _, _, kernels, charge = _kernel_labels(n, d, p)
    weights = _label_weights(n, d, p)
    assert len(weights) == len(kernels)
    for eta, weight in zip(kernels, weights):
        assert weight == math.prod(map(_mobius_weight, eta)), eta
    assert charge == sum(map(refinement_count, {part for eta in kernels for part in eta}))


def test_a_cold_weight_cache_is_charged_before_any_weight_is_computed(monkeypatch):
    from orthosum import orthogonality

    calls = []
    weight = orthogonality._mobius_weight
    monkeypatch.setattr(orthogonality, "_mobius_weight", lambda part: calls.append(part) or weight(part))
    orthogonality._label_weights.cache_clear()
    fam = random_family(1, 1, 1, seed=56)
    # one index function, but Bell(6) = 203 refinements below {{1..6}}
    with pytest.raises(SizeLimitError, match="Mobius weight enumeration needs 203 items"):
        mobius_decomposition_check(fam, 6, budget=100)
    assert calls == []
    mobius_decomposition_check(fam, 6, budget=203)
    assert calls == [SetPartition.one_block(6)]


def test_past_the_enumeration_ceiling_a_table_builds_and_the_mobius_check_refuses():
    fam = random_family(1, 1, 1, seed=57)
    assert MomentTable(fam, 14).count == 1
    with pytest.raises(SizeLimitError, match="supports 1 <= m <= 12, got 14"):
        mobius_decomposition_check(fam, 14, budget=10**12)


def test_matrix_moment_table_never_evaluates_one_h_at_a_time(monkeypatch):
    from orthosum import orthogonality
    from orthosum.orthogonality import MomentTable

    calls = []
    original = orthogonality._prefix_walk

    def spy(f, p, adjoint_first, keep=None):
        if keep is not None:  # grows selected prefixes one at a time
            calls.append(f.kind)
        return original(f, p, adjoint_first, keep)

    monkeypatch.setattr(orthogonality, "_prefix_walk", spy)
    free = make_family(FamilySpec("free_generators", n=2, d=1, p=4))
    for adjoint_first in (True, False):
        MomentTable(random_family(2, 2, 3, seed=54), 6, adjoint_first=adjoint_first)
    mobius_decomposition_check(random_family(2, 1, 2, seed=55), 4)
    MomentTable(free, 4)
    assert calls == []
    alternating_moment(free, ((1,), (2,), (2,), (1,)))
    assert calls == [GROUP_ALGEBRA]


def scan_injective(fam, p, adjoint_first):
    """Largest |reference moment| over the injective h, its first h and their count."""
    worst, worst_abs, count = None, 0.0, 0
    for h in all_index_functions(fam.n, fam.d, p):
        if has_injective_projection(h, fam.d):
            count += 1
            val = abs(reference_moment(fam, h, adjoint_first))
            if val > worst_abs:
                worst, worst_abs = h, val
    return worst_abs, worst, count


WALK_FAMILIES = {
    "matrix": lambda n, d, p: random_family(n, d, 2, seed=61 + n + d + p),
    "free_generators": lambda n, d, p: make_family(
        FamilySpec("free_generators", n=n, d=d, p=p, dim=2)
    ),
    "dissociate": lambda n, d, p: make_family(
        FamilySpec("dissociate", n=n, d=d, p=p, dim=2, seed=62)
    ),
}
# dense sides whose last product the walk forms only in diagonal blocks
DENSE_SIDES = (8, 16, 24, 64)
WALK_FAMILIES.update(
    (f"dense{side}", lambda n, d, p, side=side: random_family(n, d, side, seed=side + n + d + p))
    for side in DENSE_SIDES
)
# n >= p and n < p, one and two indices
WALK_SHAPES = [(3, 1, 2), (4, 1, 4), (2, 2, 2), (2, 1, 4), (2, 2, 4)]


@pytest.mark.parametrize("adjoint_first", [True, False])
@pytest.mark.parametrize(
    "kind,n,d,p",
    [(kind, *shape) for kind in sorted(WALK_FAMILIES) for shape in WALK_SHAPES]
    + [("multi_term", 2, 1, 2), ("multi_term", 2, 1, 4)],
)
def test_is_p_orthogonal_equals_a_brute_force_reference_scan(kind, n, d, p, adjoint_first):
    fam = multi_term_family(25) if kind == "multi_term" else WALK_FAMILIES[kind](n, d, p)
    report = is_p_orthogonal(fam, p, -1.0, adjoint_first=adjoint_first)
    worst_abs, worst, count = scan_injective(fam, p, adjoint_first)
    assert report.count_checked == count
    assert report.worst_h == worst
    assert report.max_abs_violation == worst_abs


def count_products(monkeypatch):
    """The walk's ga_multiply calls and its ga_product_trace calls (the traced last factor)."""
    from orthosum import orthogonality

    products, pairings = [], []
    for name, calls in (("ga_multiply", products), ("ga_product_trace", pairings)):
        original = getattr(orthogonality, name)
        spy = lambda x, y, calls=calls, original=original: calls.append(1) or original(x, y)
        monkeypatch.setattr(orthogonality, name, spy)
    return products, pairings


@pytest.mark.parametrize("block", [1 << 18, 3])
@pytest.mark.parametrize("n,d,p", [(2, 1, 4), (2, 2, 4), (3, 1, 2)])
def test_group_algebra_table_forms_each_prefix_product_once(monkeypatch, n, d, p, block):
    from orthosum import orthogonality

    fam = make_family(FamilySpec("free_generators", n=n, d=d, p=p))
    monkeypatch.setattr(orthogonality, "_BLOCK", block)
    products, pairings = count_products(monkeypatch)
    MomentTable(fam, p)
    k = n**d
    assert len(products) == sum(k**s for s in range(2, p))
    assert len(pairings) == k**p


def live_prefixes(n, d, lengths):
    return sum(
        has_injective_projection(prefix, d)
        for s in lengths
        for prefix in all_index_functions(n, d, s)
    )


@pytest.mark.parametrize("n,d,p", [(4, 1, 4), (2, 2, 2), (3, 2, 2), (2, 1, 4), (2, 2, 4)])
def test_pruned_walk_forms_one_product_per_live_prefix(monkeypatch, n, d, p):
    fam = make_family(FamilySpec("free_generators", n=n, d=d, p=p))
    products, pairings = count_products(monkeypatch)
    is_p_orthogonal(fam, p, 0.0)
    # one product per live prefix of length 2..p-1, one pairing per live h
    live = lambda lengths: live_prefixes(n, d, lengths) if n >= p else 0
    assert len(products) == live(range(2, p))
    assert len(pairings) == live([p])


def overflowing_family():
    """2 x 2 members with entries +-1e200: every product of two overflows."""
    signs = np.array([[1.0, -1.0], [1.0, 1.0]])
    return OperatorFamily(4, 1, MATRIX, {g: 1e200 * signs for g in gamma_indices(4, 1)})


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowed_moment_raises_instead_of_passing():
    fam = overflowing_family()
    with pytest.raises(ValueError, match=r"non-finite .* \(\(1,\), \(2,\), \(3,\), \(4,\)\)"):
        is_p_orthogonal(fam, 4, 1.0)
    with pytest.raises(ValueError, match=r"non-finite .* \(\(1,\), \(1,\), \(1,\), \(1,\)\)"):
        MomentTable(fam, 4)


def first_non_finite(fam, hs, reverse=False):
    """The first h of ``hs`` whose reference moment (of h reversed, if asked) is not finite."""
    with np.errstate(all="ignore"):
        return next(
            h for h in hs if not np.isfinite(reference_moment(fam, h[::-1] if reverse else h))
        )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a_non_finite_moment_inside_a_run_is_named_by_its_own_h():
    # one huge member; a tiny one whose product with another underflows to 0
    scalars = {(1, 1): 1e-300, (1, 2): 1e300, (2, 1): 1e10, (2, 2): 1.0}
    fam = OperatorFamily(2, 2, MATRIX, {g: np.array([[v]]) for g, v in scalars.items()})
    table_h = first_non_finite(fam, all_index_functions(2, 2, 4))
    # the walk forms a run factor-major, the last position varying slowest:
    # read as lexicographic, it would name the first h whose mirror is non-finite
    assert table_h == ((1, 1), (1, 2), (1, 2), (1, 2))
    assert first_non_finite(fam, all_index_functions(2, 2, 4), reverse=True) != table_h
    with pytest.raises(ValueError, match=re.escape(f"index function {table_h}")):
        MomentTable(fam, 4)
    injective = (h for h in all_index_functions(2, 2, 2) if has_injective_projection(h, 2))
    ortho_h = first_non_finite(fam, injective)
    # the second child of the prefix ((1, 2),)
    assert ortho_h == ((1, 2), (2, 1))
    with pytest.raises(ValueError, match=re.escape(f"index function {ortho_h}")):
        is_p_orthogonal(fam, 2, 1.0)


@pytest.mark.parametrize("adjoint_first", [True, False])
@pytest.mark.parametrize("small_block", [False, True])
@pytest.mark.parametrize("side", [1, 2, 3, 5, 8, 12, 16, 24])
def test_row_stacked_walk_keeps_the_bits_of_per_pair_products(
    monkeypatch, side, small_block, adjoint_first
):
    """The walk's moments are those of one BLAS call per (prefix, factor) pair, bit for bit.

    A BLAS whose row-stacked product sums a row otherwise than the per-pair
    product fails here by name instead of moving the reported moments.
    """
    from orthosum import orthogonality

    pruned = 0
    for n, d, p in [(4, 1, 4), (3, 2, 2), (2, 2, 4)]:
        fam = random_family(n, d, side, seed=80 + side + n)
        k = n**d
        if small_block:  # runs of two positions, and single prefixes above them
            monkeypatch.setattr(orthogonality, "_BLOCK", k * k * side * side)
        want = per_pair_moments(fam, p, adjoint_first)
        got = np.concatenate([m for _, m in orthogonality._prefix_walk(fam, p, adjoint_first)])
        assert repr(got.tolist()) == repr(want.tolist()), (n, d, p)
        index = {h: i for i, h in enumerate(all_index_functions(n, d, p))}
        live = lambda prefix: has_injective_projection(prefix, d)
        for hs, moments in orthogonality._prefix_walk(fam, p, adjoint_first, live):
            assert repr(moments.tolist()) == repr(want[[index[h] for h in hs]].tolist()), hs
            pruned += len(hs)
    # the injective h: 4! of (4, 1, 4), 9 * 8 of (3, 2, 2), none of (2, 2, 4)
    assert pruned == 24 + 72


def test_a_moment_table_of_another_family_p_or_adjoint_pattern_is_refused():
    f1, f2 = (
        make_family(FamilySpec("random_matrix", n=2, d=1, p=4, dim=2, seed=s)) for s in (1, 2)
    )
    sig = [SetPartition.from_blocks([[1, 2], [3, 4]])]
    assert psi(f2, sig, 4).real == pytest.approx(104.06, abs=0.01)
    assert psi(f1, sig, 4).real == pytest.approx(62.77, abs=0.01)
    assert psi(f2, sig, 4, table=MomentTable(f2, 4)) == psi(f2, sig, 4)
    for table in (MomentTable(f1, 4), MomentTable(f2, 6), MomentTable(f2, 4, adjoint_first=False)):
        with pytest.raises(ValueError, match="moment table"):
            psi(f2, sig, 4, table=table)
        with pytest.raises(ValueError, match="moment table"):
            phi(f2, sig, 4, table=table)


@pytest.mark.parametrize("adjoint_first", [True, False])
@pytest.mark.parametrize("side", [16, 24])
@pytest.mark.parametrize("n,d,p", [(2, 2, 2), (4, 1, 4)])
def test_dense_moment_table_equals_a_straight_reference_sum(n, d, p, side, adjoint_first):
    fam = random_family(n, d, side, seed=70 + side)
    table = MomentTable(fam, p, adjoint_first=adjoint_first)
    total = injective_sum = 0j
    phi_map = {}
    for h in all_index_functions(n, d, p):
        moment = reference_moment(fam, h, adjoint_first)
        total += moment
        if has_injective_projection(h, d):
            injective_sum += moment
        phi_map[delta_of(h)] = phi_map.get(delta_of(h), 0j) + moment
    assert injective_sum != 0
    assert table.total == total
    assert table.injective_sum == injective_sum
    assert table.phi_map == phi_map


def trace_operands(r, side):
    """Pairs (a, b) of side x side matrices: dense, with signed zeros, and kron-structured."""
    dense = lambda: rand_matrix(r, side)
    zeros = dense()
    zeros[r.random((side, side)) < 0.5] = complex(-0.0, 0.0)
    zeros[r.random((side, side)) < 0.25] = 0.0
    negative_zero = np.full((side, side), complex(-0.0, -0.0))
    # martingale-like: Tr(a b) sums cancelling terms, to exact zeros or to rounding
    signs = [r.choice((-1.0, 1.0), side // 2)] + [
        (-1.0) ** (np.arange(side // 2) >> j & 1) for j in range(2)
    ]
    kron = lambda s: np.kron(rand_matrix(r, 2), np.diag(s))
    return [(dense(), dense()), (zeros, dense()), (zeros, -zeros), (negative_zero, dense())] + [
        (kron(s), kron(t)) for s in signs for t in signs
    ]


@pytest.mark.parametrize("side", [8, 16, 24, 40, 64, 72, 128, 136, 256])
def test_traced_last_factor_is_bitwise_the_trace_of_the_full_product(side):
    """Each diagonal entry of a block product is the full product's, bit for bit.

    A BLAS that sums a block's entries in another order than the whole matmul
    fails here rather than moving the reported moments silently.
    """
    r = rng(side)
    for a, b in trace_operands(r, side):
        # the moment of h = (1, 2), adjoint first, is Tr(a b)/N
        fam = OperatorFamily(2, 1, MATRIX, {(1,): a.conj().T, (2,): b})
        want = complex(np.trace(a @ b) / side)
        assert repr(alternating_moment(fam, ((1,), (2,)))) == repr(want)
