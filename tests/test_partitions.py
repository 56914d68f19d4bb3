"""Partition lattice: enumeration against brute force, Mobius against its oracle."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthosum.errors import SizeLimitError
from orthosum.partitions import (
    SetPartition,
    _from_rgs,
    _refinement_pairs,
    all_partitions,
    bell,
    format_partition,
    interval,
    kernel_code,
    kernel_partition,
    mobius,
    mobius_recursive,
    parse_partition,
    refinements,
    refines,
    verify_mobius_identities,
)


def bell_oracle(n: int) -> int:
    """Bell numbers from the recurrence B(n+1) = sum C(n,k) B(k)."""
    bell = [1]
    while len(bell) <= n:
        m = len(bell) - 1
        bell.append(sum(math.comb(m, k) * bell[k] for k in range(m + 1)))
    return bell[n]


def partitions_by_insertion(m: int) -> set[SetPartition]:
    """Independent enumeration: insert each element into any block or a new one."""
    out = [[]]
    for e in range(1, m + 1):
        nxt = []
        for part in out:
            for i in range(len(part)):
                nxt.append([b + [e] if j == i else b for j, b in enumerate(part)])
            nxt.append(part + [[e]])
        out = nxt
    return {SetPartition.from_blocks(p, m) for p in out}


@pytest.mark.parametrize("m,count", [(1, 1), (3, 5), (4, 15)])
def test_partition_counts(m, count):
    assert len(all_partitions(m)) == count
    assert count == bell_oracle(m)


@pytest.mark.parametrize("m", range(1, 8))
def test_enumeration_matches_bell_and_has_no_duplicates(m):
    parts = all_partitions(m)
    assert len(parts) == bell_oracle(m)
    assert len(set(parts)) == len(parts)


@pytest.mark.parametrize("m", range(1, 7))
def test_enumeration_matches_insertion_oracle(m):
    assert set(all_partitions(m)) == partitions_by_insertion(m)


def test_enumeration_endpoints():
    parts = all_partitions(5)
    assert parts[0] == SetPartition.singletons(5)
    assert parts[-1] == SetPartition.one_block(5)


@pytest.mark.parametrize("m", [0, 13, -2])
def test_enumeration_size_limit(m):
    with pytest.raises(SizeLimitError):
        all_partitions(m)


def test_canonical_form_is_unique():
    a = SetPartition.from_blocks([[3, 1], [2], [4]])
    b = SetPartition.from_blocks([[2], [4], [1, 3]])
    assert a == b
    assert a.blocks == ((1, 3), (2,), (4,))


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2),))  # missing 3
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(2, ((1,), (), (2,)))  # empty block


def test_blocks_out_of_canonical_order_are_refused_by_name():
    with pytest.raises(ValueError, match="canonical order"):
        SetPartition(3, ((2,), (1, 3)))  # least elements descend
    with pytest.raises(ValueError, match="canonical order"):
        SetPartition(3, ((3, 1), (2,)))  # a block descends


def test_interval_refuses_a_pair_out_of_refinement_order():
    with pytest.raises(ValueError, match="interval requires rho <= sigma"):
        interval(SetPartition.one_block(3), SetPartition.singletons(3))


def test_refines_trivial_cases():
    zero = SetPartition.singletons(4)
    for sigma in all_partitions(4):
        assert refines(zero, sigma)
        assert refines(sigma, sigma)
    a = SetPartition.from_blocks([[1, 2], [3]])
    b = SetPartition.from_blocks([[1], [2, 3]])
    assert not refines(a, b)


def test_refines_requires_matching_ground_size():
    with pytest.raises(ValueError):
        refines(SetPartition.singletons(2), SetPartition.singletons(3))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_refines_is_a_partial_order(m):
    parts = all_partitions(m)
    for a in parts:
        assert refines(a, a)
        for b in parts:
            if refines(a, b) and refines(b, a):
                assert a == b
            for c in parts:
                if refines(a, b) and refines(b, c):
                    assert refines(a, c)


def test_kernel_partition_examples():
    assert kernel_partition([7, 7, 7]) == SetPartition.one_block(3)
    assert kernel_partition([1, 2, 3]) == SetPartition.singletons(3)
    assert kernel_partition([5, 9, 5, 2]) == SetPartition.from_blocks(
        [[1, 3], [2], [4]]
    )
    with pytest.raises(ValueError):
        kernel_partition([])


@given(st.lists(st.integers(0, 4), min_size=1, max_size=7), st.integers(0, 2))
def test_relabeling_values_coarsens_the_kernel(values, modulus):
    # applying any function to the values can only merge kernel blocks
    mapped = [v % (modulus + 1) for v in values]
    assert refines(kernel_partition(values), kernel_partition(mapped))


def test_mobius_point_interval():
    for sigma in all_partitions(4):
        assert mobius(sigma, sigma) == 1
        assert mobius_recursive(sigma, sigma) == 1


@pytest.mark.parametrize(
    "m,expected",
    [(2, -1), (3, 2), (4, -6)],
)
def test_mobius_bottom_to_top(m, expected):
    zero, one = SetPartition.singletons(m), SetPartition.one_block(m)
    # the recursive oracle pins the value; the closed form must agree
    assert mobius_recursive(zero, one) == expected
    assert mobius(zero, one) == expected


def test_mobius_on_a_three_block_interval():
    rho = SetPartition.from_blocks([[1], [2], [3, 4]])
    one = SetPartition.one_block(4)
    # interval is isomorphic to the lattice on 3 points
    assert mobius_recursive(rho, one) == 2
    assert mobius(rho, one) == 2


def test_mobius_requires_refinement():
    a = SetPartition.from_blocks([[1, 2], [3]])
    b = SetPartition.from_blocks([[1], [2, 3]])
    with pytest.raises(ValueError):
        mobius(a, b)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_closed_form_agrees_with_recursive_oracle_everywhere(m):
    for sigma in all_partitions(m):
        for rho in refinements(sigma):
            assert mobius(rho, sigma) == mobius_recursive(rho, sigma)


@pytest.mark.parametrize("m,abs_sum", [(2, 2), (4, 24)])
def test_mobius_identity_values(m, abs_sum):
    report = verify_mobius_identities(m)
    assert report.abs_sum == abs_sum == math.factorial(m)
    assert report.interval_sums_ok


def test_mobius_identities_m1_vacuous():
    report = verify_mobius_identities(1)
    assert report.abs_sum == 1
    assert report.interval_sums_ok


def test_mobius_identities_size_limit():
    with pytest.raises(SizeLimitError):
        verify_mobius_identities(10)


def test_the_identity_sweep_charges_its_refinement_pairs():
    # counted against the pairs an enumeration finds
    for m in range(1, 7):
        assert _refinement_pairs(m) == sum(len(refinements(s)) for s in all_partitions(m))
    assert (_refinement_pairs(9), _refinement_pairs(10)) == (1_606_137, 16_733_779)
    with pytest.raises(SizeLimitError, match="refinement pairs needs 2471 items"):
        verify_mobius_identities(6, budget=2470)
    assert verify_mobius_identities(6, budget=2471).interval_sums_ok
    # the enumeration ceiling is checked before any pair is counted
    with pytest.raises(SizeLimitError, match="1 <= m <= 12, got 1099511627776"):
        verify_mobius_identities(2**40)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_mobius_inversion_reconstructs_random_rational_data(m):
    rnd = random.Random(m * 1009)
    parts = all_partitions(m)
    phi = {s: Fraction(rnd.randint(-50, 50), rnd.randint(1, 9)) for s in parts}
    psi = {
        rho: sum((phi[s] for s in parts if refines(rho, s)), Fraction(0))
        for rho in parts
    }
    for rho in parts:
        back = sum(
            (mobius(rho, s) * psi[s] for s in parts if refines(rho, s)), Fraction(0)
        )
        assert back == phi[rho]


def test_partition_text_roundtrip():
    p = parse_partition("1,3|2|4")
    assert p == SetPartition.from_blocks([[1, 3], [2], [4]])
    assert format_partition(p) == "1,3|2|4"
    assert parse_partition("m=4:1,3|2|4") == p
    assert parse_partition(format_partition(p)) == p


def test_partition_text_explicit_size_must_cover():
    with pytest.raises(ValueError):
        parse_partition("m=5:1,3|2|4")  # 5 missing
    with pytest.raises(ValueError):
        parse_partition("")


# --- the restricted growth string is the one block-membership code ----------


@pytest.mark.parametrize("m", range(1, 7))
def test_rgs_round_trips_every_partition(m):
    for s in all_partitions(m):
        assert _from_rgs(s.rgs) == s
        assert dict(enumerate(s.rgs, 1)) == {e: i for i, b in enumerate(s.blocks) for e in b}


def test_kernel_code_examples():
    assert kernel_code((5, 9, 5, 2)) == (0, 1, 0, 2)
    assert kernel_code(("b", "a", "b")) == (0, 1, 0)
    assert kernel_code((7,)) == (0,)
    # an RGS is its own kernel code
    for s in all_partitions(5):
        assert kernel_code(s.rgs) == s.rgs


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_refines_matches_block_containment(m):
    parts = all_partitions(m)
    for a in parts:
        for b in parts:
            contained = all(
                any(set(block) <= set(big) for big in b.blocks) for block in a.blocks
            )
            assert refines(a, b) == contained


@pytest.mark.parametrize("m", range(1, 9))
def test_bell_matches_enumeration(m):
    assert bell(m) == len(all_partitions(m)) == bell_oracle(m)


def test_bell_size_limit():
    with pytest.raises(SizeLimitError):
        bell(13)


def _partition_reference(ground_size, blocks):
    """The enumerating verdict: the elements, sorted, are exactly 1..m."""
    elements = sorted(e for block in blocks for e in block)
    return all(blocks) and elements == list(range(1, ground_size + 1))


@pytest.mark.parametrize(
    "ground_size, blocks",
    [
        (3, ((1, 2), (3,))),
        (3, ((1,), (3,))),
        (2, ((1, 1),)),
        (2, ((1,), (1,))),
        (2, ((1.0,), (2,))),
        (2, ((True,), (2,))),
        (2, ((1.5,), (2,))),
        (2, ((1,), (3,))),
        (0, ()),
        (-3, ()),
        (1, ((),)),
    ],
)
def test_partition_check_counts_with_the_enumerating_verdict(ground_size, blocks):
    try:
        SetPartition(ground_size, blocks)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _partition_reference(ground_size, blocks)


@pytest.mark.parametrize("text", ["1|3000000", "m=3000000:1,2"])
def test_partition_check_never_enumerates_its_ground_set(text):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="do not partition"):
            parse_partition(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hash_is_the_field_tuple_hash_and_survives_copy_and_pickle():
    for sigma in all_partitions(4):
        assert hash(sigma) == hash((sigma.ground_size, sigma.blocks))
        for twin in (copy.copy(sigma), copy.deepcopy(sigma), pickle.loads(pickle.dumps(sigma))):
            assert twin == sigma and hash(twin) == hash(sigma)
            assert {twin: 1}[sigma] == 1
    assert repr(SetPartition(2, ((1, 2),))) == "SetPartition(ground_size=2, blocks=((1, 2),))"
