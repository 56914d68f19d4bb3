"""The benchmark's oracles against hand-computed cases.

    python3 -m pytest bench/test_oracle.py
"""

import math

import numpy as np
import pytest

import oracle


def scalars(values: dict) -> dict:
    return {g: np.array([[v]], dtype=complex) for g, v in values.items()}


def test_power_trace_of_a_diagonal():
    x = np.diag([1.0, 2.0])
    assert oracle.power_trace(x, 2, 2) == pytest.approx(2.5)
    assert oracle.power_trace(x, 4, 2) == pytest.approx(8.5)
    assert oracle.power_trace(x, 4, 1) == pytest.approx(17.0)


def test_sum_moment_norm_and_scale_of_scalars():
    fam = scalars({(1,): 1.0, (2,): 2.0})
    assert oracle.sum_moment(fam, 4) == pytest.approx(81.0)
    assert oracle.sum_norm(fam, 4) == pytest.approx(3.0)
    assert oracle.family_scale(fam, 2) == pytest.approx(6.0)


def test_one_index_flattenings_are_a_column_and_a_row():
    fam = scalars({(1,): 3.0, (2,): 4.0})
    np.testing.assert_array_equal(oracle.flattening(fam, 2, 1, (1,)), [[3.0], [4.0]])
    np.testing.assert_array_equal(oracle.flattening(fam, 2, 1, ()), [[3.0, 4.0]])
    # rank one with singular value 5, whatever p
    for p in (2, 4, 6):
        assert oracle.flattening_norm(fam, 2, 1, (1,), p) == pytest.approx(5.0)
    assert oracle.max_flattening_norm(fam, 2, 1, 4) == pytest.approx(5.0)


def test_two_index_flattenings_at_p2_are_the_frobenius_norm():
    fam = scalars({(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0, (2, 2): 4.0})
    np.testing.assert_array_equal(oracle.flattening(fam, 2, 2, (1,)), [[1, 2], [3, 4]])
    np.testing.assert_array_equal(oracle.flattening(fam, 2, 2, (2,)), [[1, 3], [2, 4]])
    for alpha in ((), (1,), (2,), (1, 2)):
        assert oracle.flattening_norm(fam, 2, 2, alpha, 2) == pytest.approx(math.sqrt(30))


def test_flattening_keeps_the_matrix_unit_factor_unnormalized():
    # two identity blocks stacked: Tr((X*X)^(p/2)) / dim = 2^(p/2)
    fam = {(1,): np.eye(2, dtype=complex), (2,): np.eye(2, dtype=complex)}
    assert oracle.flattening_norm(fam, 2, 1, (1,), 4) == pytest.approx(2 ** 0.5)


def test_set_partitions_are_counted_by_bell_numbers():
    assert [len(oracle.set_partitions(m)) for m in range(6)] == [1, 1, 2, 5, 15, 52]
    assert oracle.set_partitions(2) == [((1,), (2,)), ((1, 2),)]
    assert oracle.format_partition(((1, 3), (2,), (4,))) == "1,3|2|4"


def test_alternating_moment_puts_the_adjoint_first():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[1, 0], [0, 2]], dtype=complex)
    fam = {(1,): a, (2,): b}
    # ntrace(a* b) = 0, ntrace(b* a) = 0, ntrace(a* a) = 1/2
    assert oracle.alternating_moment(fam, [(1,), (2,)]) == pytest.approx(0)
    assert oracle.alternating_moment(fam, [(1,), (1,)]) == pytest.approx(0.5)
    # ntrace(a* b b* a) = ntrace(diag(0, 1)) = 1/2
    assert oracle.alternating_moment(fam, [(1,), (2,), (2,), (1,)]) == pytest.approx(0.5)


def test_psi_of_scalars_by_hand():
    fam = scalars({(1,): 1j, (2,): 2.0})
    one_block, singletons = [(1, 2)], [(1,), (2,)]
    # h constant: |f1|^2 + |f2|^2; h free: |f1 + f2|^2
    assert oracle.psi(fam, 2, [one_block], 2) == pytest.approx(5.0)
    assert oracle.psi(fam, 2, [singletons], 2) == pytest.approx(5.0)
    fam = scalars({(1,): 1.0, (2,): 2.0})
    assert oracle.psi(fam, 2, [singletons], 2) == pytest.approx(9.0)
    # d = 2: the first coordinate constant, the second free:
    # sum over i of |a(i,1) + a(i,2)|^2 = 3^2 + 7^2
    fam = scalars({(1, 1): 1.0, (1, 2): 2.0, (2, 1): 3.0, (2, 2): 4.0})
    assert oracle.psi(fam, 2, [one_block, singletons], 2) == pytest.approx(58.0)


def test_free_generator_closed_forms():
    # |g1 + g2|_4^4: (x* x)^2 with x* x = 2 + g1^-1 g2 + g2^-1 g1 has identity coefficient 6
    assert oracle.free_generator_norm(2, 1, 4) == pytest.approx(6 ** 0.25)
    assert oracle.free_generator_norm(2, 2, 4) == pytest.approx(6 ** 0.5)
    assert oracle.free_generator_norm(1, 1, 4) == pytest.approx(1.0)
    assert oracle.free_generator_norm(3, 1, 2) == pytest.approx(math.sqrt(3))
    assert oracle.free_generator_norm(3, 2, 2) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        oracle.free_generator_norm(2, 1, 6)


def test_generated_families_have_the_documented_shapes():
    a = oracle.family_matrices("random_matrix", 2, 2, 3, seed=7)
    b = oracle.family_matrices("random_matrix", 2, 2, 3, seed=7)
    c = oracle.family_matrices("random_matrix", 2, 2, 3, seed=8)
    assert sorted(a) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(np.array_equal(a[g], b[g]) for g in a)
    assert not np.array_equal(a[(1, 1)], c[(1, 1)])

    rad = oracle.family_matrices("rademacher", 2, 1, 1, seed=1)
    for v in rad.values():
        assert v.shape == (4, 4)
        assert np.count_nonzero(v - np.diag(np.diag(v))) == 0
        assert len(set(np.round(np.abs(np.diag(v)), 12))) == 1
    # distinct Rademacher columns are orthogonal under the normalized trace
    assert np.trace(rad[(1,)].conj().T @ rad[(2,)]) == pytest.approx(0)

    mart = oracle.family_matrices("martingale_rademacher", 3, 1, 2, seed=1)
    assert all(v.shape == (16, 16) for v in mart.values())
    with pytest.raises(ValueError):
        oracle.family_matrices("free_generators", 2, 1, 1, seed=1)
