"""Norms and the group-algebra engine against independent linear-algebra oracles."""

import json
import tracemalloc
from itertools import product

import ga_oracle
import lambda_oracle
import numpy as np
import pytest
import word_oracle
from helpers import family_to_json, ga_to_json, matrix_to_json, sorted_terms
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from orthosum import algebra
from orthosum.algebra import (
    GROUP_ALGEBRA,
    MATRIX,
    GroupAlgebraElement,
    OperatorFamily,
    SplitPair,
    all_splits,
    family_from_json,
    family_scale,
    flatten,
    ga_adjoint,
    ga_even_norm,
    ga_flatten,
    ga_multiply,
    ga_product_trace,
    ga_from_json,
    ga_trace,
    ga_vv_norm,
    generator_sum,
    matrix_from_json,
    ntrace,
    schatten_even_norm,
    vv_norm,
)
from orthosum.algebra import _gram_power_diagonal
from orthosum.errors import DEFAULT_BUDGET, KindError, SizeLimitError
from orthosum.freegroup import Word, WordTuple
from orthosum.lab import FamilySpec, make_family


def rng(seed=0):
    return np.random.default_rng(seed)


def rand_matrix(r, dim):
    return r.standard_normal((dim, dim)) + 1j * r.standard_normal((dim, dim))


def singular_value_norm(x, p):
    """Independent oracle: (N^-1 sum s_i^p)^(1/p) from the SVD."""
    s = np.linalg.svd(np.asarray(x, dtype=complex), compute_uv=False)
    return float((np.sum(s**p) / x.shape[0]) ** (1.0 / p))


def ga_monomial(arity, n, words, coeff):
    return GroupAlgebraElement.monomial(arity, n, WordTuple(tuple(words)), coeff)


def lam(i, n=2):
    """1 (x) lambda(g_i) in the one-factor group algebra."""
    return ga_monomial(1, n, [Word(((i, 1),))], np.eye(1))


def test_ntrace_examples():
    assert ntrace(np.eye(5)) == 1
    assert ntrace(np.diag([1.0, -1.0])) == 0
    assert ntrace(np.ones((2, 2))) == 1
    with pytest.raises(ValueError):
        ntrace(np.ones((2, 3)))


def test_schatten_examples():
    for p in (2, 4, 6):
        assert schatten_even_norm(np.eye(3), p) == pytest.approx(1.0)
    assert schatten_even_norm(np.diag([2.0, 0.0]), 2) == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError):
        schatten_even_norm(np.eye(2), 3)
    with pytest.raises(ValueError):
        schatten_even_norm(np.eye(2), 0)


def test_schatten_matches_singular_value_oracle():
    r = rng(1)
    x = rand_matrix(r, 4)
    assert schatten_even_norm(x, 4) == pytest.approx(singular_value_norm(x, 4))


@pytest.mark.parametrize("dim", [2, 5, 9, 16])
@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_schatten_oracle_sweep(dim, p):
    r = rng(dim * 100 + p)
    x = rand_matrix(r, dim)
    got = schatten_even_norm(x, p)
    want = singular_value_norm(x, p)
    assert abs(got - want) <= 1e-9 * max(want, 1.0)


def test_split_pairs():
    splits = all_splits(2)
    assert len(splits) == 4
    assert SplitPair((), (1, 2)) in splits
    assert SplitPair((1, 2), ()) in splits
    with pytest.raises(ValueError):
        SplitPair((1,), (1, 2))
    with pytest.raises(ValueError):
        SplitPair((2, 1), ())


def matrix_family(n, d, values):
    return OperatorFamily(n=n, d=d, kind=MATRIX, values=values)


def test_flatten_column_and_row():
    r = rng(2)
    vals = {(k,): rand_matrix(r, 2) for k in (1, 2, 3)}
    fam = matrix_family(3, 1, vals)
    col = flatten(fam, SplitPair((1,), ()))
    assert col.matrix.shape == (6, 2)
    for k in (1, 2, 3):
        assert np.allclose(col.matrix[2 * (k - 1) : 2 * k, :], vals[(k,)])
    row = flatten(fam, SplitPair((), (1,)))
    assert row.matrix.shape == (2, 6)
    for k in (1, 2, 3):
        assert np.allclose(row.matrix[:, 2 * (k - 1) : 2 * k], vals[(k,)])


def test_flatten_single_index_per_block():
    r = rng(3)
    vals = {(1, 1): rand_matrix(r, 2)}
    fam = matrix_family(1, 2, vals)
    for split in all_splits(2):
        flat = flatten(fam, split)
        assert np.allclose(flat.matrix, vals[(1, 1)])


def test_flatten_rejects_group_algebra_families():
    fam = OperatorFamily(2, 1, GROUP_ALGEBRA, {(1,): lam(1), (2,): lam(2)})
    with pytest.raises(KindError):
        flatten(fam, SplitPair((1,), ()))


def test_flatten_refuses_a_split_of_another_d():
    fam = matrix_family(2, 1, {(1,): np.eye(2), (2,): np.eye(2)})
    with pytest.raises(ValueError, match="split of 1..2 against a 1-indexed family"):
        flatten(fam, SplitPair((1,), (2,)))


def test_vv_norm_scalar_block():
    fam = matrix_family(1, 1, {(1,): np.array([[3.0 - 4.0j]])})
    for split in all_splits(1):
        assert vv_norm(flatten(fam, split), 2) == pytest.approx(5.0)


def test_vv_norm_row_of_ones():
    n = 5
    fam = matrix_family(n, 1, {(k,): np.eye(1) for k in range(1, n + 1)})
    got = vv_norm(flatten(fam, SplitPair((), (1,))), 2)
    # rank-one oracle: the only singular value of a 1 x n row of ones
    s = np.linalg.svd(np.ones((1, n)), compute_uv=False)
    assert got == pytest.approx(float(s[0])) == pytest.approx(np.sqrt(n))


@pytest.mark.parametrize("p", [2, 4, 6])
def test_vv_norm_all_ones_two_index(p):
    n = 2
    fam = matrix_family(n, 2, {g: np.eye(1) for g in product((1, 2), repeat=2)})
    for split in all_splits(2):
        assert vv_norm(flatten(fam, split), p) == pytest.approx(float(n))


@pytest.mark.parametrize("p", [2, 4, 6])
def test_vv_norm_matches_row_and_column_square_functions(p):
    r = rng(17 + p)
    vals = {(k,): rand_matrix(r, 3) for k in (1, 2, 3, 4)}
    fam = matrix_family(4, 1, vals)
    row_sq = sum(v @ v.conj().T for v in vals.values())
    col_sq = sum(v.conj().T @ v for v in vals.values())

    def sqrt_norm(m):
        eigs = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        return float((np.sum(eigs ** (p / 2)) / m.shape[0]) ** (1.0 / p))

    got_row = vv_norm(flatten(fam, SplitPair((), (1,))), p)
    got_col = vv_norm(flatten(fam, SplitPair((1,), ())), p)
    assert abs(got_row - sqrt_norm(row_sq)) <= 1e-9 * (1.0 + sqrt_norm(row_sq))
    assert abs(got_col - sqrt_norm(col_sq)) <= 1e-9 * (1.0 + sqrt_norm(col_sq))


def block_matrix_oracle(vals, n, dim, alpha, beta):
    """Independent flattening: member gamma at block (pi_alpha, pi_beta), lexicographic."""
    out = np.zeros((n ** len(alpha) * dim, n ** len(beta) * dim), dtype=complex)
    for gamma, v in vals.items():
        row = np.ravel_multi_index([gamma[k - 1] - 1 for k in alpha], (n,) * len(alpha))
        col = np.ravel_multi_index([gamma[k - 1] - 1 for k in beta], (n,) * len(beta))
        out[row * dim : (row + 1) * dim, col * dim : (col + 1) * dim] = v
    return out


@pytest.mark.parametrize("p", [2, 4, 6, 8])
@pytest.mark.parametrize("n,d,dim", [(3, 1, 2), (2, 2, 3), (2, 3, 2)])
def test_vv_norm_matches_singular_values_on_every_split(n, d, dim, p):
    # d=1 gives one wide and one tall split, d=2 adds square ones, d=3 has 2 x 16 and 16 x 2
    r = rng(1000 * n + 100 * d + 10 * dim + p)
    vals = {g: rand_matrix(r, dim) for g in product(range(1, n + 1), repeat=d)}
    fam = matrix_family(n, d, vals)
    shapes = set()
    for split in all_splits(d):
        x = block_matrix_oracle(vals, n, dim, split.alpha, split.beta)
        s = np.linalg.svd(x, compute_uv=False)
        want = float((np.sum(s**p) / dim) ** (1.0 / p))
        got = vv_norm(flatten(fam, split), p)
        assert abs(got - want) <= 1e-12 * want, (split, got, want)
        shapes.add(np.sign(x.shape[0] - x.shape[1]))
    assert shapes == ({-1, 0, 1} if d == 2 else {-1, 1})


def test_matrix_norms_form_the_gram_on_the_smaller_side(monkeypatch):
    sides = []
    matrix_power = np.linalg.matrix_power

    def spy(gram, k):
        sides.append(gram.shape)
        return matrix_power(gram, k)

    monkeypatch.setattr(algebra.np.linalg, "matrix_power", spy)
    r = rng(5)
    vals = {g: rand_matrix(r, 2) for g in product((1, 2, 3), repeat=2)}
    fam = matrix_family(3, 2, vals)
    for split in all_splits(2):
        sides.clear()
        flat = flatten(fam, split)
        vv_norm(flat, 4)
        side = min(flat.matrix.shape)
        assert sides == [(side, side)], (flat.matrix.shape, sides)
    sides.clear()
    schatten_even_norm(vals[(1, 1)], 6)
    assert sides == [(2, 2)]


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_schatten_of_a_square_matrix_keeps_the_column_gram_bits(p):
    x = rand_matrix(rng(40 + p), 5)
    trace = np.trace(np.linalg.matrix_power(x.conj().T @ x, p // 2))
    want = float(max(trace.real / 5, 0.0) ** (1.0 / p))
    assert repr(schatten_even_norm(x, p)) == repr(want)


def test_ga_multiply_examples():
    assert ga_trace(ga_multiply(lam(1), ga_adjoint(lam(1)))) == 1
    e = ga_monomial(1, 2, [Word()], np.array([[2.0]]))
    w = ga_monomial(1, 2, [Word(((2, 1),))], np.array([[3.0]]))
    prod = ga_multiply(e, w)
    assert prod.term_count == 1
    assert prod.coefficient(WordTuple((Word(((2, 1),)),)))[0, 0] == 6.0
    # bilinearity over a two-term left factor
    x = lam(1) + lam(2)
    y = lam(2)
    out = ga_multiply(x, y)
    assert out.term_count == 2


def test_ga_multiply_requires_matching_parameters():
    with pytest.raises(ValueError):
        ga_multiply(lam(1, n=2), ga_monomial(2, 2, [Word(), Word()], np.eye(1)))
    with pytest.raises(ValueError):
        ga_multiply(lam(1), ga_monomial(1, 2, [Word()], np.eye(2)))


def test_a_rectangular_element_has_no_coeff_dim_and_a_rectangular_product_no_trace():
    e = WordTuple((Word(),))
    x = GroupAlgebraElement.build(1, 1, (1, 2), {e: [[1.0, 2.0]]})
    y = GroupAlgebraElement.build(1, 1, (2, 3), {e: np.ones((2, 3))})
    with pytest.raises(ValueError, match="coefficients are rectangular"):
        x.coeff_dim
    with pytest.raises(ValueError, match="trace of a rectangular element"):
        ga_product_trace(x, y)


def test_ga_adjoint_involution_and_antihomomorphism():
    r = rng(5)
    x = ga_monomial(1, 2, [Word(((1, 1),))], rand_matrix(r, 2)) + ga_monomial(
        1, 2, [Word(((2, 1), (1, -1)))], rand_matrix(r, 2)
    )
    y = ga_monomial(1, 2, [Word(((2, 1),))], rand_matrix(r, 2))
    xx = ga_adjoint(ga_adjoint(x))
    for wt, c in x.terms.items():
        assert np.allclose(xx.coefficient(wt), c)
    lhs = ga_adjoint(ga_multiply(x, y))
    rhs = ga_multiply(ga_adjoint(y), ga_adjoint(x))
    for wt in set(lhs.terms) | set(rhs.terms):
        assert np.allclose(lhs.coefficient(wt), rhs.coefficient(wt))


def test_ga_adjoint_scalar_conjugation():
    x = ga_monomial(1, 1, [Word()], 1j * np.eye(2))
    assert np.allclose(ga_adjoint(x).coefficient(WordTuple((Word(),))), -1j * np.eye(2))


def test_ga_trace_examples():
    assert ga_trace(ga_monomial(1, 2, [Word()], np.eye(3))) == 1
    assert ga_trace(lam(1)) == 0
    r = rng(6)
    a = rand_matrix(r, 2)
    x = ga_monomial(1, 2, [Word()], a) + ga_monomial(1, 2, [Word(((2, 1),))], rand_matrix(r, 2))
    assert ga_trace(x) == pytest.approx(np.trace(a) / 2)


def test_ga_trace_is_tracial():
    r = rng(7)
    def elt(seed):
        rr = rng(seed)
        return ga_monomial(1, 2, [Word(((1, 1),))], rand_matrix(rr, 2)) + ga_monomial(
            1, 2, [Word(((2, -1),))], rand_matrix(rr, 2)
        )
    x, y = elt(8), elt(9)
    assert abs(ga_trace(ga_multiply(x, y)) - ga_trace(ga_multiply(y, x))) <= 1e-10


def free_generator_sum(n):
    acc = lam(1, n)
    for k in range(2, n + 1):
        acc = acc + lam(k, n)
    return acc


def count_cancelling_quadruples(n):
    """Word-enumeration oracle for the fourth moment of the generator sum."""
    count = 0
    for j, k, l, m in product(range(1, n + 1), repeat=4):
        w = Word.reduce([(j, -1), (k, 1), (l, -1), (m, 1)])
        if w.is_identity:
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_sum_norms(n):
    s = free_generator_sum(n)
    assert ga_even_norm(s, 2) == pytest.approx(np.sqrt(n), abs=1e-12)
    oracle = count_cancelling_quadruples(n)
    assert oracle == 2 * n * n - n
    assert ga_even_norm(s, 4) == pytest.approx(oracle ** 0.25, abs=1e-12)


def test_ga_norm_of_identity_supported_element():
    r = rng(11)
    a = rand_matrix(r, 3)
    x = ga_monomial(1, 2, [Word()], a)
    for p in (2, 4, 6):
        assert ga_even_norm(x, p) == pytest.approx(schatten_even_norm(a, p))


def test_ga_norm_power_is_real_nonnegative():
    r = rng(12)
    x = ga_monomial(1, 2, [Word(((1, 1),))], rand_matrix(r, 2)) + ga_monomial(
        1, 2, [Word(((2, 1), (1, 1)))], rand_matrix(r, 2)
    )
    gram = ga_multiply(ga_adjoint(x), x)
    val = ga_trace(ga_multiply(gram, gram))
    assert abs(val.imag) <= 1e-10
    assert val.real >= -1e-10


def test_ga_norm_budget():
    s = free_generator_sum(4)
    with pytest.raises(SizeLimitError):
        ga_even_norm(s, 4, budget=100)


def test_zero_coefficients_are_pruned():
    x = ga_monomial(1, 2, [Word(((1, 1),))], np.zeros((2, 2)))
    assert x.term_count == 0
    y = lam(1) + (-1.0) * lam(1)
    assert y.term_count == 0
    assert ga_even_norm(y, 4) == 0.0


def test_generator_sum_structure():
    a = {(1,): np.eye(2), (2,): np.zeros((2, 2))}
    s = generator_sum(a, 2, 1)
    assert s.term_count == 1  # zero coefficient dropped
    assert np.allclose(s.coefficient(WordTuple((Word(((1, 1),)),))), np.eye(2))
    t = generator_sum({(1, 1): np.array([[2.0]])}, 1, 2)
    assert t.arity == 2 and t.term_count == 1
    scalar_ones = {g: np.eye(1) for g in product((1, 2), repeat=2)}
    assert ga_even_norm(generator_sum(scalar_ones, 2, 2), 2) == pytest.approx(2.0)


def test_ga_flatten_matches_column_norm_for_generators():
    fam = OperatorFamily(2, 1, GROUP_ALGEBRA, {(1,): lam(1), (2,): lam(2)})
    for split in all_splits(1):
        flat = ga_flatten(fam, split)
        assert ga_vv_norm(flat, 4, fam.coeff_dim) == pytest.approx(np.sqrt(2))
    with pytest.raises(KindError):
        ga_flatten(matrix_family(1, 1, {(1,): np.eye(1)}), SplitPair((1,), ()))


def block_placement_oracle(members, n, split, shape):
    """Member gamma's blocks placed one entry at a time at (pi_alpha(gamma), pi_beta(gamma))."""
    r, c = shape
    out = np.zeros((n ** len(split.alpha) * r, n ** len(split.beta) * c), dtype=complex)
    for gamma, block in members.items():
        row = col = 0
        for k in split.alpha:
            row = row * n + gamma[k - 1] - 1
        for k in split.beta:
            col = col * n + gamma[k - 1] - 1
        for i in range(r):
            for j in range(c):
                out[row * r + i, col * c + j] = block[i, j]
    return out


SHAPES = [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)]


@pytest.mark.parametrize("n,d", SHAPES)
def test_flatten_places_every_member_block_on_every_split(n, d):
    r = rng(10 * n + d)
    vals = {g: rand_matrix(r, 2) for g in product(range(1, n + 1), repeat=d)}
    fam = matrix_family(n, d, vals)
    for split in all_splits(d):
        want = block_placement_oracle(vals, n, split, (2, 2))
        got = flatten(fam, split).matrix
        assert got.shape == want.shape and np.array_equal(got, want), split
        assert got.flags.writeable and not np.shares_memory(got, fam.members)


@pytest.mark.parametrize("n,d", SHAPES)
def test_ga_flatten_places_every_word_coefficient_block_on_every_split(n, d):
    r = rng(100 + 10 * n + d)
    words = [Word(()), Word(((1, 1),)), Word(((2, -1), (1, 1)))]
    vals = {}
    for g in product(range(1, n + 1), repeat=d):
        chosen = r.choice(len(words), size=r.integers(1, len(words) + 1), replace=False)
        terms = {WordTuple((words[i],)): rand_matrix(r, 2) for i in sorted(chosen)}
        vals[g] = GroupAlgebraElement.build(1, 2, (2, 2), terms)
    fam = OperatorFamily(n, d, GROUP_ALGEBRA, vals)
    used = sorted({wt for v in vals.values() for wt in v.terms}, key=lambda wt: wt.codes)
    for split in all_splits(d):
        flat = ga_flatten(fam, split)
        assert list(flat.terms) == used
        for wt in used:
            blocks = {g: v.coefficient(wt) for g, v in vals.items()}
            want = block_placement_oracle(blocks, n, split, (2, 2))
            assert np.array_equal(flat.coefficient(wt), want), (split, wt)


def test_members_follow_gamma_order_read_only_and_values_keep_the_key_order():
    r = rng(77)
    gammas = list(product((1, 2), repeat=2))
    shuffled = [gammas[i] for i in (2, 0, 3, 1)]
    vals = {g: rand_matrix(r, 2) for g in shuffled}
    text = {"n": 2, "d": 2, "values": {
        ",".join(map(str, g)): matrix_to_json(v) for g, v in vals.items()}}
    fam = family_from_json(json.loads(json.dumps(text)))
    assert list(fam.values) == shuffled
    assert fam.members.shape == (4, 2, 2) and not fam.members.flags.writeable
    for g, member in zip(fam.gammas(), fam.members):
        assert np.array_equal(member, vals[g])
        assert np.shares_memory(fam.values[g], fam.members)
    with pytest.raises(ValueError):
        fam.values[(1, 1)][0, 0] = 0.0
    # the scale sums in the order of values, as the file gave it
    want = 1.0 + sum(schatten_even_norm(vals[g], 4) ** 4 for g in shuffled)
    assert family_scale(fam, 4) == want
    elements = {g: lam(i) for g, i in zip(shuffled, (1, 2, 2, 1))}
    gfam = OperatorFamily(2, 2, GROUP_ALGEBRA, elements)
    assert list(gfam.values) == shuffled
    assert gfam.members == tuple(elements[g] for g in gfam.gammas())


def test_family_validation():
    with pytest.raises(ValueError):
        matrix_family(2, 1, {(1,): np.eye(2)})  # not total
    with pytest.raises(ValueError):
        matrix_family(2, 1, {(1,): np.eye(2), (2,): np.eye(3)})  # ragged dims
    with pytest.raises(ValueError):
        OperatorFamily(2, 1, "other", {(1,): np.eye(1), (2,): np.eye(1)})


def test_family_scale_and_sum():
    fam = matrix_family(2, 1, {(1,): np.eye(2), (2,): np.eye(2)})
    assert family_scale(fam, 4) == pytest.approx(3.0)
    assert np.allclose(fam.sum_value(), 2 * np.eye(2))


def test_family_scale_refuses_a_finite_norm_whose_power_overflows():
    fam = matrix_family(1, 1, {(1,): np.array([[6.6906999803886e30]])})
    assert family_scale(fam, 8) > 1e246
    with pytest.raises(ValueError, match=r"family scale is not finite \(inf\) at p=10"):
        family_scale(fam, 10)


def test_matrix_json_roundtrip():
    r = rng(13)
    x = rand_matrix(r, 3)
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(x))))
    assert np.allclose(back, x)
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]]})


@pytest.mark.parametrize("dim", [-1, 0])
def test_matrix_json_refuses_a_dim_below_one_by_name(dim):
    with pytest.raises(ValueError, match=rf"dim >= 1, got {dim}"):
        matrix_from_json({"dim": dim, "entries": [[1.0, 0.0]]})


def test_ga_and_family_json_roundtrip():
    r = rng(14)
    x = ga_monomial(1, 2, [Word(((1, 1),))], rand_matrix(r, 2)) + ga_monomial(
        1, 2, [Word(((2, -1), (1, 1)))], rand_matrix(r, 2)
    )
    back = ga_from_json(json.loads(json.dumps(ga_to_json(x))))
    assert back.term_count == x.term_count
    for wt, c in x.terms.items():
        assert np.allclose(back.coefficient(wt), c)

    fam = matrix_family(2, 1, {(1,): rand_matrix(r, 2), (2,): rand_matrix(r, 2)})
    fam2 = family_from_json(json.loads(json.dumps(family_to_json(fam))))
    assert fam2.kind == MATRIX
    for g in fam.gammas():
        assert np.allclose(fam2.values[g], fam.values[g])

    gfam = OperatorFamily(2, 1, GROUP_ALGEBRA, {(1,): lam(1), (2,): lam(2)})
    gfam2 = family_from_json(json.loads(json.dumps(family_to_json(gfam))))
    assert gfam2.kind == GROUP_ALGEBRA
    assert ga_even_norm(gfam2.sum_value(), 2) == pytest.approx(np.sqrt(2))


@pytest.mark.parametrize("element_first", [False, True])
def test_a_family_of_mixed_kinds_is_refused_by_name(element_first):
    matrix = {"dim": 1, "entries": [[1.0, 0.0]]}
    element = {"arity": 1, "n": 1, "terms": [{"words": ["g1"], "coeff": matrix}]}
    values = {"1": element, "2": matrix} if element_first else {"1": matrix, "2": element}
    kinds = (GROUP_ALGEBRA, MATRIX) if element_first else (MATRIX, GROUP_ALGEBRA)
    match = f"family values '1' and '2' mix kinds {kinds[0]} and {kinds[1]}"
    with pytest.raises(ValueError, match=match):
        family_from_json({"n": 2, "d": 1, "values": values})


def full_expansion_identity_coeff(x, p):
    """Identity coefficient of (x* x)^(p/2), expanded in full by repeated products."""
    gram = ga_multiply(ga_adjoint(x), x)
    power = gram
    for _ in range(p // 2 - 1):
        power = ga_multiply(power, gram)
    return power.coefficient(WordTuple.identity(x.arity))


def multi_term_element(seed):
    r = rng(seed)
    words = [Word(), Word(((1, 1),)), Word(((2, 1), (1, -1))), Word(((1, -1), (1, -1)))]
    return GroupAlgebraElement.build(
        1, 2, (2, 2), {WordTuple((w,)): rand_matrix(r, 2) for w in words}
    )


PAIRING_ELEMENTS = {
    "free_generators": lambda: make_family(
        FamilySpec("free_generators", n=3, d=1, p=2, dim=2)
    ).sum_value(),
    "dissociate": lambda: make_family(
        FamilySpec("dissociate", n=2, d=2, p=2, dim=2, seed=31)
    ).sum_value(),
    "multi_term": lambda: multi_term_element(32),
}


@pytest.mark.parametrize("p", [2, 4, 6, 8])
@pytest.mark.parametrize("kind", sorted(PAIRING_ELEMENTS))
def test_half_power_pairing_matches_full_expansion(kind, p):
    x = PAIRING_ELEMENTS[kind]()
    want = full_expansion_identity_coeff(x, p)
    # only the diagonal is formed: every caller traces it
    got = _gram_power_diagonal(x, p, DEFAULT_BUDGET)
    assert np.linalg.norm(got - np.diagonal(want)) <= 1e-12 * np.linalg.norm(np.diagonal(want))
    want_norm = max(np.trace(want).real / x.coeff_dim, 0.0) ** (1.0 / p)
    assert ga_even_norm(x, p) == pytest.approx(want_norm, rel=1e-12)


def test_generator_sum_refuses_an_index_outside_the_grid_or_an_empty_map():
    for gamma in [(3,), (0,), (1, 1)]:
        with pytest.raises(ValueError, match=rf"index \({gamma[0]},.*outside \[2\]\^1"):
            generator_sum({(1,): np.eye(1), gamma: np.eye(1)}, 2, 1)
    with pytest.raises(ValueError, match="empty coefficient map"):
        generator_sum({}, 2, 1)


def test_group_algebra_families_refuse_non_uniform_parameters():
    wide = ga_monomial(1, 3, [Word(((1, 1),))], np.eye(1))
    with pytest.raises(ValueError, match="non-uniform group-algebra parameters"):
        OperatorFamily(2, 1, GROUP_ALGEBRA, {(1,): lam(1), (2,): wide})


@pytest.mark.parametrize(
    "terms,match",
    [
        (5, "terms of an element must be a list"),
        ([{"words": [1], "coeff": {"dim": 1, "entries": [[1, 0]]}}], "list of strings"),
        ([{"words": "g1", "coeff": {"dim": 1, "entries": [[1, 0]]}}], "list of strings"),
        ([], "group-algebra element with no terms"),
    ],
)
def test_ga_json_refuses_malformed_terms_by_name(terms, match):
    with pytest.raises(ValueError, match=match):
        ga_from_json({"arity": 1, "n": 1, "terms": terms})


def test_non_finite_coefficients_are_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_family(2, 1, {(1,): np.eye(2), (2,): np.diag([1.0, bad])})
        x = ga_monomial(1, 2, [Word(((1, 1),))], np.array([[bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            OperatorFamily(2, 1, GROUP_ALGEBRA, {(1,): x, (2,): lam(2)})


@pytest.mark.parametrize("value", [True, 1.0, 1.5, "1"])
def test_family_json_integer_fields_accept_json_integers_only(value):
    matrix = {"dim": 1, "entries": [[1.0, 0.0]]}
    element = {"arity": 1, "n": 1, "terms": [{"words": ["g1"], "coeff": matrix}]}
    family = {"n": 1, "d": 1, "values": {"1": matrix}}
    assert family_from_json(family).n == 1
    for parse, obj, field in [
        (matrix_from_json, matrix, "dim"),
        (ga_from_json, element, "arity"),
        (ga_from_json, element, "n"),
        (family_from_json, family, "n"),
        (family_from_json, family, "d"),
    ]:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            parse({**obj, field: value})


# --- the coded engine against the object oracle and the left-regular representation


def _terms_strategy(arity, shape):
    word = st.lists(st.tuples(st.integers(1, 2), st.sampled_from((-1, 1))), max_size=3)
    key = st.tuples(*[word.map(Word.reduce)] * arity).map(WordTuple)
    # small dyadic entries make products cancel exactly; signed zeros ride along
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
        st.floats(-2.0, 2.0, allow_nan=False),
    )
    size = shape[0] * shape[1]
    coeff = st.lists(st.tuples(entry, entry), min_size=size, max_size=size).map(
        lambda pairs: np.array([complex(a, b) for a, b in pairs]).reshape(shape)
    )
    return st.dictionaries(key, coeff, max_size=6)


def _repr_terms(pairs):
    return repr([(wt, c.tolist()) for wt, c in pairs])


def _check_against_oracle(arity, r, c, c2, tx, ty, tz, batch):
    x, y, z = (
        GroupAlgebraElement.build(arity, 2, shape, t)
        for t, shape in ((tx, (r, c)), (ty, (c, c2)), (tz, (c, c)))
    )
    ox, oy, oz = map(ga_oracle.clean, (tx, ty, tz))
    saved, algebra._BATCH = algebra._BATCH, batch
    try:
        assert _repr_terms(sorted_terms(x)) == _repr_terms(sorted(ox.items()))
        got, want = ga_multiply(x, y), ga_oracle.multiply(ox, oy)
        assert _repr_terms(sorted_terms(got)) == _repr_terms(sorted(want.items()))
        got, want = ga_adjoint(x), ga_oracle.adjoint(ox)
        assert _repr_terms(sorted_terms(got)) == _repr_terms(sorted(want.items()))
        zz = ga_multiply(z, ga_adjoint(z))
        want = ga_oracle.trace(ga_oracle.multiply(oz, ga_oracle.adjoint(oz)), arity)
        assert repr(ga_trace(zz)) == repr(want)
        assert repr(ga_product_trace(z, ga_adjoint(z))) == repr(want)
        if r == c2:
            want = ga_oracle.trace(ga_oracle.multiply(ox, oy), arity)
            assert repr(ga_product_trace(x, y)) == repr(want)
        for p in (2, 4, 6):
            want = ga_oracle.vv_norm(ox, arity, (r, c), p, c)
            assert repr(ga_vv_norm(x, p, c)) == repr(want)
            want = ga_oracle.vv_norm(oz, arity, (c, c), p, c)
            assert repr(ga_even_norm(z, p)) == repr(want)
    finally:
        algebra._BATCH = saved


@pytest.mark.parametrize("batch", [1, algebra._BATCH])
# no shrinking: a broken product makes unreduced keys whose norms grow while
# Hypothesis shrinks them, so the failing example is reported unshrunk
@settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_coded_engine_matches_object_oracle_bit_for_bit(batch, data):
    arity = data.draw(st.integers(0, 3), label="arity")
    r, c, c2 = data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="shapes")
    tx = data.draw(_terms_strategy(arity, (r, c)), label="x")
    ty = data.draw(_terms_strategy(arity, (c, c2)), label="y")
    tz = data.draw(_terms_strategy(arity, (c, c)), label="z")
    _check_against_oracle(arity, r, c, c2, tx, ty, tz, batch)


@pytest.mark.parametrize("batch", [1, algebra._BATCH])
def test_coded_engine_prunes_cancellations_and_keeps_signed_zeros(batch):
    g = lambda *letters: WordTuple((Word(letters),))
    one = np.array([[1.0]])
    # g1 G1 and g2 G2 both land on e with coefficients 1 and -1: e cancels
    x = {g((1, 1)): one, g((2, 1)): one}
    y = {g((1, -1)): one, g((2, -1)): -one, g(): np.array([[complex(-0.0, 1.0)]])}
    z = {g(): np.array([[complex(-0.0, 1.0)]]), g((1, 1)): np.array([[complex(0.5, -0.0)]])}
    build = lambda terms: GroupAlgebraElement.build(1, 2, (1, 1), terms)
    assert WordTuple.identity(1) not in (build(x) * build(y)).terms
    # a running sum from the first term keeps -0.0 + -0.0 = -0.0
    total = build({g((1, 1)): [[complex(1.0, -0.0)]]}) + build(z)
    assert np.signbit(total.coefficient(g((1, 1)))[0, 0].imag)
    _check_against_oracle(1, 1, 1, 1, x, y, z, batch)


def _sums_from_minus_zero(pairs):
    """Each word's running sum from -0.0 over (word, coefficient) pairs, exact zeros dropped."""
    acc = {}
    for w, c in pairs:
        acc[w] = acc.get(w, np.full(c.shape, complex(-0.0, -0.0))) + c
    return sorted(ga_oracle.clean(acc).items())


def _product_pairs(tx, ty):
    return [
        (word_oracle.tuple_multiply(wx, wy), cx @ cy)
        for wx, cx in sorted(tx.items())
        for wy, cy in sorted(ty.items())
    ]


def _g(*letters):
    return WordTuple((Word(letters),))


_MERGE_CASES = {
    # e is reached by e e in the first batch and by g1 G1 in the second
    "rows_in_two_batches": (
        {_g(): [[0.5, -1.0], [2.0, 0.25]], _g((1, 1)): [[1.0, 0.5j], [-0.5, 1.0]]},
        {_g(): [[1.0, 0.0], [0.5j, -2.0]], _g((1, -1)): [[0.25, 1.0], [-1.0, 0.5]]},
    ),
    # e e, g1 G1 and g2 G2 meet at e with 1, 1 and -2: the sum is dropped
    "exact_cancellation": (
        {_g(): [[1.0]], _g((1, 1)): [[1.0]], _g((2, 1)): [[1.0]]},
        {_g(): [[1.0]], _g((1, -1)): [[1.0]], _g((2, -1)): [[-2.0]]},
    ),
    # the lone term at e is -0.0 + 1j: the sum y + x keeps its sign
    "lone_signed_zero": (
        {_g(): [[complex(-0.0, 1.0)]], _g((2, 1)): [[1.0]]},
        {_g((1, 1)): [[1.0]], _g((2, -1)): [[1.0]]},
    ),
    "no_terms": ({}, {_g((1, 1)): [[1.0, 2.0], [0.5, -1.0]], _g((2, 1)): np.eye(2)}),
}


@pytest.mark.parametrize("batch", [1, algebra._BATCH])
@pytest.mark.parametrize("case", sorted(_MERGE_CASES))
def test_merge_keeps_the_bits_of_running_sums_from_minus_zero(case, batch, monkeypatch):
    tx, ty = ({w: np.array(c, dtype=complex) for w, c in t.items()} for t in _MERGE_CASES[case])
    shape = next(iter({**tx, **ty}.values())).shape
    x, y = (GroupAlgebraElement.build(1, 2, shape, t) for t in (tx, ty))
    monkeypatch.setattr(algebra, "_BATCH", batch)
    for got, pairs in [
        (ga_multiply(x, y), _product_pairs(tx, ty)),
        (ga_multiply(y, x), _product_pairs(ty, tx)),
        (y + x, sorted(ty.items()) + sorted(tx.items())),
    ]:
        assert _repr_terms(sorted_terms(got)) == _repr_terms(_sums_from_minus_zero(pairs))
    if case == "exact_cancellation":
        assert WordTuple.identity(1) not in ga_multiply(x, y).terms
    if case == "lone_signed_zero":
        assert np.signbit((y + x).coefficient(_g())[0, 0].real)
    if case == "no_terms":
        assert ga_multiply(x, y).term_count == ga_multiply(y, x).term_count == 0


def test_a_product_holds_its_result_and_at_most_two_batches():
    dim, r = 64, rng(41)
    # six generator words: x* x has 31 words, six products merging at e
    x = GroupAlgebraElement.build(
        1, 6, (dim, dim), {_g((i, 1)): rand_matrix(r, dim) for i in range(1, 7)}
    )
    rows = max(1, algebra._BATCH // (x.term_count * dim * dim)) * x.term_count
    batch = rows * dim * dim * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        gram = ga_multiply(ga_adjoint(x), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.term_count == 31 and rows < gram.term_count  # several batches
    assert peak <= gram.coeffs.nbytes + 2 * batch, (peak, gram.coeffs.nbytes, batch)


def test_an_even_norm_holds_less_than_its_top_power():
    dim, r = 64, rng(41)
    # the element of the product test above: at p = 4 the top power is its gram x* x
    x = GroupAlgebraElement.build(
        1, 6, (dim, dim), {_g((i, 1)): rand_matrix(r, dim) for i in range(1, 7)}
    )
    tracemalloc.start()
    try:
        norm = ga_even_norm(x, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gram = ga_multiply(ga_adjoint(x), x)
    assert gram.term_count == 31
    assert peak < gram.coeffs.nbytes, (peak, gram.coeffs.nbytes)
    assert repr(norm) == repr(algebra._even_root(_stored_top_power_diagonal(x, 4).sum(), dim, 4))


def test_the_streamed_top_power_holds_two_merged_coefficients_at_a_time():
    dim, r = 64, rng(41)
    # the element above: x* x streams, its identity word merging six products
    x = GroupAlgebraElement.build(
        1, 6, (dim, dim), {_g((i, 1)): rand_matrix(r, dim) for i in range(1, 7)}
    )
    adjoint, coefficient = ga_adjoint(x), dim * dim * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        algebra._squared_diagonal(adjoint, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a merged word, its partner's merge (its sum and one product) and 31 diagonals
    assert peak < 3.5 * coefficient, peak / coefficient


def _stored_top_power_diagonal(x, p):
    """Diagonal at the identity of (x* x)^(p/2), p = 4 or 8, from the stored top power h h."""
    a, b = ga_adjoint(x), x
    if p == 8:
        a = b = ga_multiply(a, b)
    h = ga_multiply(a, b)
    return algebra._paired_diagonal(h, h)


def _element(terms, shape=None):
    terms = {w: np.array(c, dtype=complex) for w, c in terms.items()}
    return GroupAlgebraElement.build(1, 2, shape or next(iter(terms.values())).shape, terms)


def _wide_flattening():
    """x* and x of the (2, 4) flattening of two three-term members along alpha = ()."""
    r = rng(43)
    words = (_g(), _g((1, 1)), _g((2, -1), (1, 1)))
    member = lambda: _element({w: rand_matrix(r, 2) for w in words})
    f = OperatorFamily(2, 1, GROUP_ALGEBRA, {(1,): member(), (2,): member()})
    x = ga_flatten(f, SplitPair((), (1,)))
    assert x.coeff_shape == (2, 4)
    return ga_adjoint(x), x


def _merging_at_identity():
    """e is reached by e e, g1 G1 and g2 g1 G1 G2: three products merge there."""
    r = rng(47)
    x = _element({w: rand_matrix(r, 2) for w in (_g(), _g((1, 1)), _g((2, 1), (1, 1)))})
    return x, _element({w: rand_matrix(r, 2) for w in (_g(), _g((1, -1)), _g((1, -1), (2, -1)))})


#: Pairs (a, b) whose product h = a b is paired with itself.
_SQUARE_CASES = {
    "identity_merges_several": _merging_at_identity,
    # at g1, 2 * 1 + 1 * -2 cancels exactly: its partner G1 (= 2) pairs with nothing
    "exact_cancellation": lambda: (
        _element({_g(): [[2.0]], _g((1, 1)): [[1.0]]}),
        _element({_g(): [[-2.0]], _g((1, 1)): [[1.0]], _g((1, -1)): [[1.0]]}),
    ),
    # no word of h = {g1, g1 g1} meets its inverse: the diagonal is a lone -0.0 - 0.0j
    "lone_signed_zero": lambda: (
        _element({_g(): [[complex(-0.0, 1.0)]], _g((1, 1)): [[1.0]]}),
        _element({_g((1, 1)): [[1.0]]}),
    ),
    "no_terms": lambda: (
        _element({}, (2, 2)),
        _element({_g((1, 1)): [[1.0, 2.0], [0.5, -1.0]], _g((2, 1)): np.eye(2)}),
    ),
    "wide_flattening": _wide_flattening,
}


@pytest.mark.parametrize("batch", [1, algebra._BATCH])
@pytest.mark.parametrize("case", sorted(_SQUARE_CASES))
def test_the_top_power_paired_as_merged_keeps_the_bits_of_the_stored_one(case, batch, monkeypatch):
    a, b = _SQUARE_CASES[case]()
    stored = {}
    for u, v in ((a, b), (b, a)):
        h = ga_multiply(u, v)
        stored[u, v] = h, algebra._paired_diagonal(h, h)
    for i, x in enumerate((a, b)):
        for p in (4, 8):
            stored[i, p] = _stored_top_power_diagonal(x, p)
    formed, real = [], algebra.ga_multiply
    monkeypatch.setattr(algebra, "_BATCH", batch)
    monkeypatch.setattr(algebra, "ga_multiply", lambda x, y: formed.append(1) or real(x, y))
    for u, v in ((a, b), (b, a)):
        h, want = stored[u, v]
        formed.clear()
        assert repr(algebra._squared_diagonal(u, v).tolist()) == repr(want.tolist())
        # h is formed only when its products fit one batch
        assert (formed == []) == (u.term_count * v.term_count * np.prod(h.coeff_shape) > batch)
    for i, x in enumerate((a, b)):
        for p in (4, 8):
            diagonal, c = stored[i, p], x.coeff_shape[1]
            got = _gram_power_diagonal(x, p, DEFAULT_BUDGET)
            assert repr(got.tolist()) == repr(diagonal.tolist()), (i, p)
            norm = algebra._even_root(diagonal.sum(), c, p)
            assert repr(ga_vv_norm(x, p, c)) == repr(norm), (i, p)
    h, want = stored[a, b]
    if case == "exact_cancellation":
        assert _g((1, 1)) not in h.terms and _g((1, -1)) in h.terms
        assert repr(want.tolist()) == repr([(9 + 0j)])  # e e alone
    if case in ("lone_signed_zero", "no_terms"):  # nothing pairs: the sum is its start
        assert want.size and np.signbit(want.view(float)).all()


def test_each_side_of_the_top_power_switch_serves_a_benchmark_shape(monkeypatch):
    """At p = 4 the top power is formed for ``factorize``'s factors and streamed for B."""
    from orthosum.factorization import build_factors
    from orthosum.lab import _lambda_tensor_element
    from orthosum.partitions import all_partitions

    formed, real = [], algebra.ga_multiply
    monkeypatch.setattr(algebra, "ga_multiply", lambda x, y: formed.append(1) or real(x, y))

    def top_power_formed(x):
        formed.clear()
        ga_even_norm(x, 4)  # at p = 4 only _squared_diagonal may call ga_multiply
        return formed == [1]

    # the factorize workload's shape: every factor of every tuple, at two seeds
    parts = [s for s in all_partitions(4) if s.num_blocks < 4]
    for seed in (1, 2):
        f = make_family(FamilySpec("random_matrix", n=2, d=2, p=4, dim=2, seed=seed))
        for sigmas in product(parts, repeat=2):
            assert all(map(top_power_formed, build_factors(f, sigmas, 4))), (seed, sigmas)
    # B of the inequality workload's martingale reports, n = 5 (its p50) and n = 6
    for n in (5, 6):
        f = make_family(FamilySpec("martingale_rademacher", n=n, d=1, p=4, dim=2, seed=1))
        assert not top_power_formed(_lambda_tensor_element(f)), n


@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize(
    "arity,shape,seed", [(1, (1, 1), 0), (1, (2, 2), 1), (2, (2, 2), 2), (1, (2, 3), 3)]
)
def test_even_norm_matches_left_regular_representation(p, arity, shape, seed):
    r = rng(200 + seed)
    # words of length <= 2 keep the ball of radius p L / 2 small
    max_len = 2 if arity == 1 else 1
    terms = {}
    letter = lambda: (int(r.integers(1, 3)), int(r.choice((-1, 1))))
    for _ in range(4):
        lengths = r.integers(0, max_len + 1, size=arity)
        words = tuple(Word.reduce([letter() for _ in range(m)]) for m in lengths)
        terms[WordTuple(words)] = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    x = GroupAlgebraElement.build(arity, 2, shape, terms)
    letters_terms = [(tuple(w.letters for w in wt.words), c) for wt, c in x.terms.items()]
    want = lambda_oracle.even_norm(letters_terms, arity, 2, p, shape[1])
    got = ga_even_norm(x, p) if shape[0] == shape[1] else ga_vv_norm(x, p, shape[1])
    assert got == pytest.approx(want, rel=1e-12)
