"""Telescoping families, factor construction, and the factorization identity."""

from itertools import product

import numpy as np
import pytest
from factor_oracle import block_offsets, placed_words, reference_factors

from orthosum.algebra import (
    MATRIX,
    OperatorFamily,
    family_scale,
    ga_multiply,
    ga_trace,
    schatten_even_norm,
)
from orthosum.errors import KindError, SizeLimitError
from orthosum.factorization import (
    FactorRecord,
    build_factors,
    factor_norm_report,
    factorization_check,
    xi_family,
)
from orthosum.freegroup import Word, WordTuple, gamma_indices
from orthosum.lab import FamilySpec, make_family
from orthosum.orthogonality import MomentTable, psi
from orthosum.partitions import SetPartition, all_partitions


def rng(seed=0):
    return np.random.default_rng(seed)


def rand_matrix(r, dim):
    return r.standard_normal((dim, dim)) + 1j * r.standard_normal((dim, dim))


def random_family(n, d, dim, seed):
    r = rng(seed)
    return OperatorFamily(
        n, d, MATRIX, {g: rand_matrix(r, dim) for g in gamma_indices(n, d)}
    )


def xi_trace(xs, g):
    acc = None
    for r, i in enumerate(g):
        e = xs[r](i)
        acc = e if acc is None else ga_multiply(acc, e)
    return ga_trace(acc)


def test_xi_family_m2():
    xs = xi_family(2, 2)
    assert xi_trace(xs, (1, 1)) == 1
    assert xi_trace(xs, (2, 2)) == 1
    assert xi_trace(xs, (1, 2)) == 0
    assert xi_trace(xs, (2, 1)) == 0


def test_xi_family_m3_exhaustive():
    xs = xi_family(3, 2)
    for g in product((1, 2), repeat=3):
        expect = 1 if len(set(g)) == 1 else 0
        assert xi_trace(xs, g) == expect


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_xi_family_constant_detection_exact(m, n):
    xs = xi_family(m, n)
    for g in product(range(1, n + 1), repeat=m):
        expect = 1 if len(set(g)) == 1 else 0
        assert xi_trace(xs, g) == expect


def test_xi_family_requires_m_at_least_two():
    with pytest.raises(ValueError):
        xi_family(1, 2)
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        xi_family(3, 0)


def common_singletons(sigmas):
    """The positions that are singletons of every partition, ascending."""
    return tuple(sorted(set.intersection(*(set(s.singleton_elements()) for s in sigmas))))


def test_factor_records_count_the_singleton_coordinates():
    fam = random_family(2, 2, 2, seed=5)
    sig1 = SetPartition.from_blocks([[1, 2], [3], [4]])
    sig2 = SetPartition.from_blocks([[1], [2, 3, 4]])
    records = factor_norm_report(fam, (sig1, sig2), 4).records
    assert [r.s for r in records] == [1, 2, 3, 4]
    # position 1: block {1,2} of sig1, singleton {1} of sig2; position 3:
    # singleton of sig1, middle of {2,3,4} in sig2; no common singleton
    assert [r.q for r in records] == [1, 0, 1, 1]
    assert common_singletons((sig1, sig2)) == ()
    both = (SetPartition.from_blocks([[1, 2, 4], [3]]),) * 2
    records = factor_norm_report(fam, both, 4).records
    assert [r.s for r in records if r.q == 2] == [3] == list(common_singletons(both))


def test_build_factors_single_index_pair():
    r = rng(1)
    vals = {(k,): rand_matrix(r, 2) for k in (1, 2)}
    fam = OperatorFamily(2, 1, MATRIX, vals)
    sig = (SetPartition.one_block(2),)
    f1, f2 = build_factors(fam, sig, 2)
    # F_1 = sum lambda(g_k)* (x) f_k*, F_2 = sum lambda(g_k) (x) f_k
    for k in (1, 2):
        down = WordTuple((Word(((k, -1),)),))
        up = WordTuple((Word(((k, 1),)),))
        assert np.allclose(f1.coefficient(down), vals[(k,)].conj().T)
        assert np.allclose(f2.coefficient(up), vals[(k,)])


def test_build_factors_all_top_blocks_use_single_generator_words():
    fam = random_family(2, 2, 2, seed=2)
    sig = (SetPartition.one_block(4), SetPartition.one_block(4))
    factors = build_factors(fam, sig, 4)
    assert all(len(sigma.singleton_elements()) == 0 for sigma in sig)
    for factor in factors:
        for wt in factor.terms:
            assert all(len(w) <= 2 for w in wt.words)
            assert not wt.is_identity


def test_build_factors_common_singletons_have_trivial_group_part():
    fam = random_family(2, 1, 2, seed=3)
    sig = (SetPartition.from_blocks([[1, 2], [3], [4]]),)
    factors = build_factors(fam, sig, 4)
    assert common_singletons(sig) == (3, 4)
    identity = WordTuple.identity(factors[2].arity)
    for s in (3, 4):
        assert list(factors[s - 1].terms) == [identity]
        expect = sum(fam.values[g] for g in fam.gammas())
        if s % 2:
            expect = expect.conj().T
        assert np.allclose(factors[s - 1].coefficient(identity), expect)


def test_build_factors_rejects_bad_input():
    fam = random_family(2, 1, 2, seed=4)
    with pytest.raises(ValueError):
        build_factors(fam, (SetPartition.singletons(2),), 2)
    gfam = make_family(FamilySpec("free_generators", n=2, d=1, p=2))
    with pytest.raises(KindError):
        build_factors(gfam, (SetPartition.one_block(2),), 2)


def test_factorization_scalar_single_index():
    vals = {(1,): np.array([[1.0 + 2.0j]]), (2,): np.array([[-0.5 + 1.0j]])}
    fam = OperatorFamily(2, 1, MATRIX, vals)
    sig = (SetPartition.one_block(2),)
    report = factorization_check(fam, sig, 2)
    expect = sum(abs(v[0, 0]) ** 2 for v in vals.values())
    assert report.psi_direct == pytest.approx(expect)
    assert report.psi_factored == pytest.approx(expect)
    assert report.abs_err <= 1e-12 * expect


@pytest.mark.parametrize("seed", range(3))
def test_factorization_all_tuples_random_family(seed):
    fam = random_family(2, 2, 2, seed=200 + seed)
    scale = family_scale(fam, 4)
    table = MomentTable(fam, 4)
    parts = [s for s in all_partitions(4) if s.num_blocks < 4]
    for sig in product(parts, repeat=2):
        report = factorization_check(fam, sig, 4, table=table)
        assert report.abs_err <= 1e-9 * scale


def test_factorization_matches_psi_on_integer_family():
    vals = {
        (1,): np.array([[1.0, 0.0], [1.0, 1.0]]),
        (2,): np.array([[0.0, 2.0], [1.0, 0.0]]),
    }
    fam = OperatorFamily(2, 1, MATRIX, vals)
    sig = (SetPartition.from_blocks([[1, 3], [2, 4]]),)
    report = factorization_check(fam, sig, 4)
    assert report.psi_direct == pytest.approx(psi(fam, sig, 4))
    assert report.abs_err <= 1e-12 * (1.0 + abs(report.psi_direct))


def test_factor_norms_common_singleton_equality_and_holder():
    fam = random_family(2, 2, 2, seed=6)
    sig = (
        SetPartition.from_blocks([[1, 2], [3], [4]]),
        SetPartition.from_blocks([[1, 2], [3], [4]]),
    )
    report = factor_norm_report(fam, sig, 4)
    assert common_singletons(sig) == (3, 4)
    assert report.bd_max_rel_err <= 1e-10
    assert report.sum_norm == pytest.approx(
        schatten_even_norm(fam.sum_value(), 4)
    )
    assert report.holder_ok
    assert report.psi_abs <= report.norms_product * (1 + 1e-9) + 1e-12
    assert all(isinstance(r, FactorRecord) for r in report.records)
    qs = [r.q for r in report.records]
    assert qs == [0, 0, 2, 2]
    assert tuple(r.s for r in report.records if r.q == 2) == common_singletons(sig)


@pytest.mark.parametrize("seed", range(4))
def test_holder_bound_on_random_tuples(seed):
    r = rng(300 + seed)
    fam = random_family(2, 2, 2, seed=300 + seed)
    parts = [s for s in all_partitions(4) if s.num_blocks < 4]
    table = MomentTable(fam, 4)
    idx = r.integers(0, len(parts), size=2)
    sig = (parts[idx[0]], parts[idx[1]])
    report = factor_norm_report(fam, sig, 4, table=table)
    assert report.holder_ok


def test_factor_norm_report_carries_factorization_check():
    fam = random_family(2, 2, 2, seed=7)
    table = MomentTable(fam, 4)
    parts = [s for s in all_partitions(4) if s.num_blocks < 4]
    for sig in list(product(parts, repeat=2))[::23]:
        carried = factor_norm_report(fam, sig, 4, table=table).check
        assert carried == factorization_check(fam, sig, 4, table=table)
        assert carried.psi_direct == psi(fam, sig, 4, table=table)


def test_factor_construction_is_budgeted():
    fam = random_family(2, 2, 2, seed=9)
    table = MomentTable(fam, 4)
    sig = (SetPartition.one_block(4), SetPartition.from_blocks([[1, 3], [2, 4]]))
    needed = 4 * 2**2
    assert len(build_factors(fam, sig, 4, budget=needed)) == 4
    with pytest.raises(SizeLimitError, match="factor term"):
        build_factors(fam, sig, 4, budget=needed - 1)
    with pytest.raises(SizeLimitError, match="factor term"):
        factorization_check(fam, sig, 4, budget=needed - 1, table=table)
    with pytest.raises(SizeLimitError, match="factor term"):
        factor_norm_report(fam, sig, 4, budget=needed - 1, table=table)


def test_factor_norm_report_runs_on_codes_through_module_ga_multiply(monkeypatch):
    from orthosum import algebra, factorization

    fam = random_family(2, 2, 2, seed=41)
    sig = (SetPartition.from_blocks([[1, 2], [3, 4]]), SetPartition.one_block(4))
    want = factor_norm_report(fam, sig, 4)
    words_built = []
    word_init, tuple_init = Word.__init__, WordTuple.__init__
    monkeypatch.setattr(Word, "__init__", lambda s, *a: words_built.append(a) or word_init(s, *a))
    monkeypatch.setattr(
        WordTuple, "__init__", lambda s, *a: words_built.append(a) or tuple_init(s, *a)
    )
    products = []
    real = algebra.ga_multiply

    def spy(x, y):
        products.append((len(x.terms), len(y.terms)))
        return real(x, y)

    # the bench tracer patches these same names
    monkeypatch.setattr(algebra, "ga_multiply", spy)
    monkeypatch.setattr(factorization, "ga_multiply", spy)
    pairings = []
    real_trace = factorization.ga_product_trace
    monkeypatch.setattr(
        factorization, "ga_product_trace", lambda x, y: pairings.append(1) or real_trace(x, y)
    )
    got = factor_norm_report(fam, sig, 4)
    assert words_built == []
    # p - 2 chain products and one pairing with the last factor, then x* x for
    # each of the p factor norms (p/2 = 2 pairs it)
    assert len(products) == 2 + 4
    assert len(pairings) == 1
    assert repr(got) == repr(want)
    factor = build_factors(fam, sig, 4)[0]
    assert len(factor.terms) == factor.term_count == 4
    assert words_built == []
    assert "e" not in factor.terms and WordTuple.identity(factor.arity) not in factor.terms
    for wt, coeff in factor.terms.items():
        assert isinstance(wt, WordTuple)
        assert np.array_equal(coeff, factor.coefficient(wt))
        assert np.shares_memory(coeff, factor.coeffs)


def test_factorization_reports_refuse_another_familys_moment_table():
    f1, f2 = (random_family(2, 1, 2, seed=s) for s in (1, 2))
    sig = (SetPartition.from_blocks([[1, 2], [3, 4]]),)
    foreign = MomentTable(f1, 4)
    with pytest.raises(ValueError, match="moment table"):
        factorization_check(f2, sig, 4, table=foreign)
    with pytest.raises(ValueError, match="moment table"):
        factor_norm_report(f2, sig, 4, table=foreign)
    assert factorization_check(f2, sig, 4, table=MomentTable(f2, 4)).abs_err <= 1e-9 * family_scale(f2, 4)


def coded_terms(element):
    """An element's terms keyed by word tuples rebuilt from its codes."""
    return {WordTuple.from_codes(key): c for key, c in zip(element.keys, element.coeffs)}


@pytest.mark.parametrize("d,p", [(1, 2), (1, 4), (1, 6), (2, 4), (3, 4)])
def test_build_factors_equals_the_rank_placement_oracle(d, p):
    fam = random_family(2, d, 2 if d < 3 else 1, seed=50 + 10 * d + p)
    parts = [s for s in all_partitions(p) if s.num_blocks < p]
    for sigmas in product(parts, repeat=d):
        factors = build_factors(fam, sigmas, p)
        for factor, want in zip(factors, reference_factors(fam, sigmas, p), strict=True):
            got = coded_terms(factor)
            assert factor.arity == block_offsets(sigmas)[0], sigmas
            assert got.keys() == want.keys(), sigmas
            assert all(np.array_equal(got[key], want[key]) for key in want), sigmas


@pytest.mark.parametrize("m", range(2, 7))
def test_xi_family_equals_the_rank_placement_oracle(m):
    one_block = (SetPartition.one_block(m),)
    for r, xi in enumerate(xi_family(m, 2), start=1):
        for i in (1, 2):
            element = xi(i)
            assert (element.arity, element.n) == (m - 1, 2)
            assert list(coded_terms(element)) == [placed_words(one_block, r, (i,))]
            assert element.coeffs.tolist() == [[[1]]]


def test_factor_norm_report_builds_its_factors_through_module_build_factors(monkeypatch):
    from orthosum import factorization

    calls = []
    real = factorization.build_factors
    # the bench tracer patches this same name
    monkeypatch.setattr(
        factorization, "build_factors", lambda *args: calls.append(args) or real(*args)
    )
    fam = random_family(2, 2, 2, seed=43)
    sig = (SetPartition.from_blocks([[1, 2], [3], [4]]), SetPartition.one_block(4))
    factor_norm_report(fam, sig, 4)
    assert [args[1] for args in calls] == [sig]


@pytest.mark.parametrize(
    "sigmas,shape",
    [
        ((), r"\(0,\)"),
        ((SetPartition.one_block(4),), r"\(1, 4\)"),
        ((SetPartition.one_block(4), SetPartition.one_block(2)), r"\(2, 2, 4\)"),
        ((SetPartition.one_block(2),) * 2, r"\(2, 2\)"),
    ],
)
def test_build_factors_refuses_a_partition_tuple_of_another_shape(sigmas, shape):
    fam = random_family(2, 2, 2, seed=44)
    match = rf"partition tuple shape {shape} does not match family/posn shape \(2, 4\)"
    with pytest.raises(ValueError, match=match):
        build_factors(fam, sigmas, 4)
    with pytest.raises(ValueError, match=match):
        factor_norm_report(fam, sigmas, 4)
