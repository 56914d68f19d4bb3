"""Generated families and the inequality checks, each against its stated value."""

import math

import numpy as np
import pytest
from helpers import family_to_json, random_unitaries, word_family_to_json

from orthosum.algebra import (
    GROUP_ALGEBRA,
    MATRIX,
    OperatorFamily,
    SplitPair,
    family_scale,
    flatten,
    schatten_even_norm,
    vv_norm,
)
from orthosum.errors import ConstructionError, NotPOrthogonalError, SizeLimitError
from orthosum.freegroup import Word, WordFamily, gamma_indices
from orthosum.lab import (
    FamilySpec,
    absorption_check,
    compute_quantities,
    dissociate_equivalence_report,
    khintchine_iteration_check,
    main_inequality_report,
    make_family,
    make_rng,
    phi_r_bound_check,
    random_complex_matrix,
    sublemma_root_check,
)
from orthosum.orthogonality import is_p_orthogonal, mobius_decomposition_check


def random_coeffs(n, d, dim, seed):
    r = make_rng(seed)
    return {g: random_complex_matrix(r, dim) for g in gamma_indices(n, d)}


# --- family generation -----------------------------------------------------


def test_free_generator_family_shape():
    fam = make_family(FamilySpec("free_generators", n=2, d=2, p=4))
    assert fam.kind == GROUP_ALGEBRA
    assert len(fam.values) == 4
    for gamma, elt in fam.values.items():
        assert elt.term_count == 1
        (wt,) = elt.terms
        assert [w.letters for w in wt.words] == [((i, 1),) for i in gamma]


def test_rademacher_family_is_diagonal_and_orthogonal():
    fam = make_family(FamilySpec("rademacher", n=2, d=1, p=4, seed=3))
    assert fam.kind == MATRIX
    for v in fam.values.values():
        assert v.shape == (4, 4)
        assert np.allclose(v, np.diag(np.diagonal(v)))
    assert is_p_orthogonal(fam, 2, 1e-12).max_abs_violation <= 1e-12


def test_martingale_family_matches_kron_structure():
    spec = FamilySpec("martingale_rademacher", n=2, d=1, p=4, dim=2, seed=9)
    fam = make_family(spec)
    assert fam.coeff_dim == 2 * 4
    assert is_p_orthogonal(fam, 2, 1e-12).max_abs_violation <= 1e-12
    assert is_p_orthogonal(fam, 4, 1e-12).max_abs_violation <= 1e-12


def test_dissociate_family_certifies_then_builds():
    spec = FamilySpec("dissociate", n=2, d=2, p=4, dim=2, seed=1)
    fam = make_family(spec)
    assert fam.kind == GROUP_ALGEBRA
    assert is_p_orthogonal(fam, 4, 0.0).max_abs_violation == 0.0


def test_dissociate_family_rejects_bad_words(tmp_path):
    g1 = Word(((1, 1),))
    bad = WordFamily(n=2, d=1, words={(1,): g1, (2,): g1})
    path = tmp_path / "words.json"
    path.write_text(__import__("json").dumps(word_family_to_json(bad)))
    spec = FamilySpec("dissociate", n=2, d=1, p=2, seed=0, path=str(path))
    with pytest.raises(ConstructionError) as err:
        make_family(spec)
    assert err.value.witness == ((1,), (2,))
    assert f"index function {err.value.witness}" in str(err.value)


def test_family_spec_validation_and_roundtrip():
    with pytest.raises(ValueError):
        FamilySpec("unknown", n=2, d=1, p=4)
    with pytest.raises(ValueError):
        FamilySpec("rademacher", n=2, d=1, p=3)
    with pytest.raises(ValueError):
        FamilySpec("file", n=2, d=1, p=4)
    spec = FamilySpec("random_matrix", n=2, d=2, p=4, dim=3, seed=17)
    assert FamilySpec.from_json(spec.to_json()) == spec


def test_generation_is_reproducible():
    a = make_family(FamilySpec("random_matrix", n=2, d=1, p=2, dim=3, seed=5))
    b = make_family(FamilySpec("random_matrix", n=2, d=1, p=2, dim=3, seed=5))
    c = make_family(FamilySpec("random_matrix", n=2, d=1, p=2, dim=3, seed=6))
    for g in a.gammas():
        assert np.allclose(a.values[g], b.values[g])
    assert not np.allclose(a.values[(1,)], c.values[(1,)])


def test_file_family_roundtrip(tmp_path):
    import json

    fam = make_family(FamilySpec("random_matrix", n=2, d=1, p=2, dim=2, seed=8))
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_to_json(fam)))
    back = make_family(FamilySpec("file", n=2, d=1, p=2, path=str(path)))
    for g in fam.gammas():
        assert np.allclose(back.values[g], fam.values[g])


# --- quantities and the main inequality ------------------------------------


def test_quantities_free_generators_one_index():
    fam = make_family(FamilySpec("free_generators", n=4, d=1, p=2))
    q = compute_quantities(fam, 2)
    assert q.A == pytest.approx(2.0)
    assert q.C == pytest.approx(2.0)


@pytest.mark.parametrize("p", [2, 4])
def test_quantities_scalar_ones_two_index(p):
    fam = OperatorFamily(
        2, 2, MATRIX, {g: np.eye(1) for g in gamma_indices(2, 2)}
    )
    q = compute_quantities(fam, p)
    assert q.C == pytest.approx(2.0)  # n^(d/2)


def test_quantities_zero_family():
    fam = OperatorFamily(
        2, 1, MATRIX, {g: np.zeros((2, 2)) for g in gamma_indices(2, 1)}
    )
    q = compute_quantities(fam, 4)
    assert (q.A, q.B, q.C) == (0.0, 0.0, 0.0)


def test_quantities_single_index_d_reduces_D_to_C():
    fam = make_family(FamilySpec("rademacher", n=3, d=1, p=4, seed=2))
    q = compute_quantities(fam, 4)
    assert q.D == pytest.approx(q.C)


@pytest.mark.parametrize("d", range(1, 7))
def test_the_supremum_in_D_is_its_r0_term(d):
    for p in range(2, 171, 2):
        sup = max(math.factorial(p - r) ** ((d - 1) / (p - r)) for r in range(p - 1))
        assert sup == math.factorial(p) ** ((d - 1) / p), p


def test_D_keeps_its_bits_and_refuses_to_overflow():
    fam = make_family(FamilySpec("random_matrix", n=2, d=2, p=4, dim=2, seed=3))
    q = compute_quantities(fam, 4)
    sup = max(math.factorial(4 - r) ** (1 / (4 - r)) for r in range(3))
    assert q.D == float(sup * 4 * q.C)
    # d = 1 never makes p! a float; d = 2 would need (172!)^(1/172) of a float 172!
    q = compute_quantities(make_family(FamilySpec("rademacher", n=1, d=1, p=172)), 172)
    assert q.D == q.C
    fam = make_family(FamilySpec("random_matrix", n=1, d=2, p=172, dim=1))
    with pytest.raises(ValueError, match="D is not finite at p = 172, d = 2"):
        compute_quantities(fam, 172)


def test_main_inequality_single_term_family():
    r = make_rng(4)
    a = random_complex_matrix(r, 2)
    vals = {(1,): a, (2,): np.zeros((2, 2))}
    fam = OperatorFamily(2, 1, MATRIX, vals)
    report = main_inequality_report(fam, 4)
    q = report.quantities
    assert q.A == pytest.approx(schatten_even_norm(a, 4))
    assert q.C == pytest.approx(q.A)
    assert report.ratio == pytest.approx(4.0 ** (-1.0))
    assert report.pisier_ok


def test_main_inequality_pisier_martingale():
    fam = make_family(FamilySpec("martingale_rademacher", n=4, d=1, p=4, dim=2, seed=21))
    report = main_inequality_report(fam, 4)
    assert report.pisier_ok is True


def test_main_inequality_two_index_free_generators():
    fam = make_family(FamilySpec("free_generators", n=2, d=2, p=4))
    report = main_inequality_report(fam, 4)
    assert report.pisier_ok is None
    assert report.ratio <= 1.0


def test_main_inequality_rejects_non_orthogonal_input():
    fam = make_family(FamilySpec("random_matrix", n=2, d=1, p=2, dim=2, seed=30))
    with pytest.raises(NotPOrthogonalError) as err:
        main_inequality_report(fam, 2)
    assert err.value.report.worst_h is not None


def test_main_inequality_of_the_zero_family_has_ratio_zero():
    fam = OperatorFamily(2, 1, MATRIX, {(1,): np.zeros((2, 2)), (2,): np.zeros((2, 2))})
    report = main_inequality_report(fam, 4)
    assert (report.quantities.A, report.quantities.C, report.ratio) == (0.0, 0.0, 0.0)


# --- iteration sandwich ------------------------------------------------------


def test_khintchine_scalar_single_index():
    a = {(k,): np.array([[c]]) for k, c in zip((1, 2, 3), (1.0, -2.0, 0.5))}
    total = sum(abs(c) ** 2 for c in (1.0, -2.0, 0.5))
    for p in (2, 4, 6):
        rep = khintchine_iteration_check(a, 3, 1, p)
        assert rep.lower_ok and rep.upper_ok
        assert rep.C == pytest.approx(math.sqrt(total))
        assert math.sqrt(total) - 1e-9 <= rep.S_norm <= 2 * math.sqrt(total) + 1e-9


def test_khintchine_single_support():
    r = make_rng(31)
    a = {(1,): random_complex_matrix(r, 2), (2,): np.zeros((2, 2))}
    rep = khintchine_iteration_check(a, 2, 1, 4)
    want = schatten_even_norm(a[(1,)], 4)
    assert rep.S_norm == pytest.approx(want)
    assert rep.C == pytest.approx(want)


@pytest.mark.parametrize("n,d,p", [(2, 1, 2), (2, 1, 4), (2, 2, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_khintchine_random_matrices(n, d, p, seed):
    a = random_coeffs(n, d, 2, seed=1000 + seed)
    rep = khintchine_iteration_check(a, n, d, p)
    assert rep.lower_ok and rep.upper_ok


# --- absorption ---------------------------------------------------------------


def words_support():
    g1, g2 = Word(((1, 1),)), Word(((2, 1),))
    return [g1, g2, g1 * g2]


def test_absorption_trivial_representation_exact():
    r = make_rng(40)
    a = {w: random_complex_matrix(r, 2) for w in words_support()}
    unis = [np.eye(3), np.eye(3)]
    rep = absorption_check(a, unis, 4)
    assert rep.abs_err <= 1e-12 * (1 + rep.rhs)


def test_absorption_identity_supported():
    r = make_rng(41)
    a = {Word(): random_complex_matrix(r, 2)}
    unis = random_unitaries(make_rng(42), 1, 3)
    rep = absorption_check(a, unis, 4)
    want = schatten_even_norm(a[Word()], 4)
    assert rep.lhs == pytest.approx(want)
    assert rep.rhs == pytest.approx(want)


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_absorption_random_unitaries(p, seed):
    r = make_rng(500 + seed)
    a = {w: random_complex_matrix(r, 2) for w in words_support()}
    unis = random_unitaries(r, 2, 4)
    rep = absorption_check(a, unis, p)
    scale = 1 + sum(schatten_even_norm(m, p) ** p for m in a.values())
    assert rep.abs_err <= 1e-10 * scale


def test_absorption_rejects_non_unitary():
    a = {Word(((1, 1),)): np.eye(2)}
    with pytest.raises(ValueError):
        absorption_check(a, [np.diag([1.0, 2.0])], 2)


def test_absorption_refuses_an_empty_coefficient_map():
    with pytest.raises(ValueError, match="empty coefficient map"):
        absorption_check({}, random_unitaries(make_rng(1), 2, 2), 4)


# --- scalar root bound --------------------------------------------------------


def test_root_closed_form():
    rep = sublemma_root_check(2, 1.0)
    assert abs(rep.root - (1 + math.sqrt(3))) <= 1e-10
    assert rep.bound_ok  # 1 + sqrt(3) <= 4


def test_root_p4_bound():
    rep = sublemma_root_check(4, 1.0)
    assert rep.root <= 8.0
    assert rep.bound_ok


@pytest.mark.parametrize("c", [0.5, 3.0])
@pytest.mark.parametrize("p", [2, 4, 6])
def test_root_scales_linearly_in_D(c, p):
    base = sublemma_root_check(p, 1.0).root
    scaled = sublemma_root_check(p, c).root
    assert scaled == pytest.approx(c * base, rel=1e-9)


def test_root_validation():
    with pytest.raises(ValueError):
        sublemma_root_check(3, 1.0)
    with pytest.raises(ValueError):
        sublemma_root_check(2, 0.0)


# --- Mobius mass bound --------------------------------------------------------


def test_phi_r_at_full_singleton_count_is_zero():
    assert phi_r_bound_check(4, 1, 4).phi_r == 0
    assert phi_r_bound_check(4, 2, 4).phi_r == 0


def test_phi_r_smallest_case():
    rep = phi_r_bound_check(2, 1, 0)
    assert rep.phi_r == 1
    assert rep.bound == 2
    assert rep.ok


def test_phi_r_exhaustive_small_grid():
    for d in (1, 2):
        for r in range(4):
            assert phi_r_bound_check(4, d, r).ok


def test_phi_r_budget_is_charged_before_any_partition_is_built(monkeypatch):
    from orthosum import lab

    built = []
    monkeypatch.setattr(lab, "all_partitions", lambda m: built.append(m) or [])
    with pytest.raises(SizeLimitError, match="partition-tuple"):
        phi_r_bound_check(10, 1, 0, budget=1)
    assert built == []


@pytest.mark.parametrize("d,r", [(0, 0), (1, 5)])
def test_phi_r_refuses_no_coordinates_or_more_common_singletons_than_points(d, r):
    with pytest.raises(ValueError, match=r"bad \(d, r\) = "):
        phi_r_bound_check(4, d, r)


@pytest.mark.parametrize("d", [1, 2])
def test_phi_r_budget_charges_the_tuples_it_enumerates(d):
    # bell(4) = 15 partitions, 14 above the singletons: 14^d tuples are walked
    assert phi_r_bound_check(4, d, 0, budget=14**d).ok
    with pytest.raises(SizeLimitError, match=f"needs {14**d} items"):
        phi_r_bound_check(4, d, 0, budget=14**d - 1)


# --- dissociate equivalence and the commutative remark -------------------------


def test_dissociate_equivalence_scalar_ones():
    a = {g: np.eye(1) for g in gamma_indices(2, 2)}
    rep = dissociate_equivalence_report(a, 2, 2, 4)
    assert rep.rhs == pytest.approx(2.0)
    assert rep.rhs_all_splits >= rep.rhs - 1e-12


def test_dissociate_equivalence_single_support():
    r = make_rng(60)
    a = {g: np.zeros((2, 2)) for g in gamma_indices(2, 2)}
    a[(1, 2)] = random_complex_matrix(r, 2)
    rep = dissociate_equivalence_report(a, 2, 2, 4)
    want = schatten_even_norm(a[(1, 2)], 4)
    assert rep.lhs == pytest.approx(want)
    assert rep.rhs == pytest.approx(want)


def test_dissociate_equivalence_reports_finite_ratio():
    a = random_coeffs(2, 2, 2, seed=61)
    rep = dissociate_equivalence_report(a, 2, 2, 4)
    assert rep.lhs > 0 and rep.rhs > 0


def test_dissociate_equivalence_takes_each_flattening_norm_once(monkeypatch):
    from orthosum import lab
    from orthosum.algebra import all_splits

    n, d, p = 2, 3, 4
    a = random_coeffs(n, d, 2, seed=63)
    fam = OperatorFamily(n, d, MATRIX, a)
    contiguous = [SplitPair.from_alpha(range(1, k + 1), d) for k in range(d + 1)]
    want_rhs = max(lab.flattening_norm(fam, s, p) for s in contiguous)
    want_all = max(lab.flattening_norm(fam, s, p) for s in all_splits(d))
    calls = []
    original = lab.flattening_norm
    monkeypatch.setattr(
        lab, "flattening_norm", lambda *args: calls.append(args[1]) or original(*args)
    )
    rep = dissociate_equivalence_report(a, n, d, p)
    assert len(calls) == 2**d == len(set(calls))
    assert (rep.rhs, rep.rhs_all_splits) == (want_rhs, want_all)


def test_a_refused_split_sweep_builds_no_split_and_no_flattening(monkeypatch):
    from orthosum import lab

    fam = make_family(FamilySpec("random_matrix", n=2, d=3, p=2, dim=1, seed=4))
    assert lab.max_flattening_norm(fam, 2, budget=8) > 0.0
    with pytest.raises(SizeLimitError, match="flattening splits needs 8 items"):
        lab.max_flattening_norm(fam, 2, budget=7)
    called = []
    monkeypatch.setattr(lab, "all_splits", lambda *a: called.append("all_splits"))
    monkeypatch.setattr(lab, "flattening_norm", lambda *a: called.append("flattening_norm"))
    big = make_family(FamilySpec("random_matrix", n=1, d=18, p=2, dim=1))
    with pytest.raises(SizeLimitError, match=r"flattening splits needs 2\^18 items"):
        lab.max_flattening_norm(big, 2, budget=100000)
    a = {g: np.eye(1) for g in gamma_indices(1, 18)}
    with pytest.raises(SizeLimitError, match=r"flattening splits needs 2\^18 items"):
        dissociate_equivalence_report(a, 1, 18, 2, budget=100000)
    assert called == []


def test_commutative_square_function_matches_flattening():
    # diagonal family: the row flattening norm equals the square-function norm
    fam = make_family(FamilySpec("rademacher", n=2, d=2, p=4, seed=62))
    p = 4
    row = vv_norm(flatten(fam, SplitPair((), (1, 2))), p)
    square = sum(
        np.abs(np.diagonal(v)) ** 2 for v in fam.values.values()
    )
    dim = fam.coeff_dim
    want = float((np.sum(square ** (p / 2)) / dim) ** (1.0 / p))
    assert abs(row - want) <= 1e-9 * (1 + want)


# --- end-to-end: norm of the sum equals the Mobius resummation -----------------


@pytest.mark.parametrize(
    "kind,n,d,p,dim",
    [
        ("free_generators", 2, 1, 4, 1),
        ("free_generators", 2, 2, 4, 1),
        ("rademacher", 2, 1, 6, 1),
        ("rademacher", 2, 2, 4, 1),
        ("martingale_rademacher", 2, 1, 4, 2),
        ("dissociate", 2, 2, 4, 2),
    ],
)
def test_orthogonal_family_norm_matches_noninjective_sum(kind, n, d, p, dim):
    from orthosum.algebra import family_sum_norm

    fam = make_family(FamilySpec(kind, n=n, d=d, p=p, dim=dim, seed=63))
    report = mobius_decomposition_check(fam, p)
    scale = family_scale(fam, p)
    assert abs(report.injective_sum) <= 1e-12 * scale
    noninj = report.rhs - report.injective_sum
    norm_p = family_sum_norm(fam, p) ** p
    assert abs(norm_p - noninj.real) <= 1e-8 * scale
    assert abs(noninj.imag) <= 1e-8 * scale


# --- one tolerance and one sandwich per report ---------------------------------


def test_main_inequality_carries_its_tolerance():
    fam = make_family(FamilySpec("martingale_rademacher", n=3, d=1, p=4, dim=2, seed=70))
    report = main_inequality_report(fam, 4)
    assert report.tol == 1e-9 * family_scale(fam, 4)
    assert report.quantities == compute_quantities(fam, 4)


@pytest.mark.parametrize("n,d,p", [(2, 1, 4), (2, 2, 4)])
def test_khintchine_is_the_quantities_sandwich(n, d, p):
    a = random_coeffs(n, d, 2, seed=71)
    rep = khintchine_iteration_check(a, n, d, p)
    q = compute_quantities(OperatorFamily(n, d, MATRIX, a), p)
    assert (rep.S_norm, rep.C) == (q.B, q.C)


def test_spec_without_kind_is_a_value_error():
    with pytest.raises(ValueError, match="kind"):
        FamilySpec.from_json({"n": 2, "d": 1, "p": 4})


@pytest.mark.parametrize("D", [math.inf, math.nan, -math.inf])
def test_root_rejects_non_finite_D(D):
    with pytest.raises(ValueError):
        sublemma_root_check(4, D)


def test_sandwich_verdicts_are_carried_by_the_report_and_raised_by_quantities(monkeypatch):
    from orthosum import lab

    fam = make_family(FamilySpec("rademacher", n=2, d=2, p=4, seed=3))
    report = main_inequality_report(fam, 4)
    assert report.upper_ok is True and report.converse_ok is True
    true_c = lab.max_flattening_norm
    monkeypatch.setattr(lab, "max_flattening_norm", lambda *a, **kw: 0.1 * true_c(*a, **kw))
    report = main_inequality_report(fam, 4)
    assert report.upper_ok is False and report.converse_ok is True
    with pytest.raises(RuntimeError, match="sandwich"):
        compute_quantities(fam, 4)


@pytest.mark.parametrize("p,D", [(116, 1.0), (58, 1000.0), (400, 1.0), (100000, 1.0), (4, 1e-90)])
def test_root_rejects_polynomials_outside_the_double_range(p, D):
    with pytest.raises(ValueError, match="range"):
        sublemma_root_check(p, D)


@pytest.mark.parametrize("p,D", [(58, 1.0), (4, 1e-60), (10, 3.0)])
def test_root_near_the_range_edges_still_bounded(p, D):
    assert sublemma_root_check(p, D).bound_ok


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowed_scale_raises_instead_of_passing():
    ones = {(i,): np.array([[1e100]]) for i in range(1, 5)}
    with pytest.raises(ValueError, match="scale is not finite"):
        khintchine_iteration_check(ones, 4, 1, 4)
    signs = np.array([[1.0, -1.0], [1.0, 1.0]])
    fam = OperatorFamily(4, 1, MATRIX, {g: 1e200 * signs for g in gamma_indices(4, 1)})
    with pytest.raises(ValueError, match="scale is not finite"):
        main_inequality_report(fam, 4)


def test_seeds_outside_64_bits_are_rejected_not_masked():
    assert make_rng(2**64 - 1).random() == make_rng(2**64 - 1).random()
    for seed in (-5, -1, 2**64, 2**65):
        with pytest.raises(ValueError, match="seed"):
            make_rng(seed)
        with pytest.raises(ValueError, match="seed"):
            make_family(FamilySpec("random_matrix", n=2, d=1, p=2, seed=seed))


@pytest.mark.parametrize("field", ["n", "d", "p", "dim", "seed"])
@pytest.mark.parametrize("value", [True, 4.9, 2.0, math.inf, "2"])
def test_spec_integer_fields_accept_json_integers_only(field, value):
    obj = {"kind": "random_matrix", "n": 2, "d": 1, "p": 2, "dim": 1, "seed": 0}
    assert FamilySpec.from_json(obj).n == 2
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        FamilySpec.from_json({**obj, field: value})


def test_make_family_charges_members_before_building(monkeypatch):
    from orthosum import lab

    built = []
    monkeypatch.setattr(lab, "random_complex_matrix", lambda *a: built.append(a))
    spec = FamilySpec("random_matrix", n=4, d=2, p=2, dim=1)
    with pytest.raises(SizeLimitError, match="family members needs 16"):
        make_family(spec, budget=10)
    assert built == []


def test_word_families_are_built_from_codes_alone(monkeypatch):
    """Package code that builds elements makes no WordTuple and calls neither build nor monomial."""
    from orthosum.algebra import GroupAlgebraElement
    from orthosum.factorization import xi_family
    from orthosum.freegroup import WordTuple, canonical_dissociate, is_p_dissociate

    calls = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(WordTuple, "__init__", spy("WordTuple", WordTuple.__init__))
    for name in ("build", "monomial"):
        original = getattr(GroupAlgebraElement, name).__func__
        monkeypatch.setattr(GroupAlgebraElement, name, classmethod(spy(name, original)))

    free = make_family(FamilySpec("free_generators", n=3, d=2, p=4, dim=2))
    dissociate = make_family(FamilySpec("dissociate", n=3, d=1, p=4, dim=2, seed=3))
    assert is_p_dissociate(canonical_dissociate(2, 2), 4).ok
    telescope = [xi(2) for xi in xi_family(3, 2)]
    unis = random_unitaries(make_rng(4), 2, 2)
    coeffs = {Word(((1, 1),)): np.eye(2), Word(((2, -1), (1, 1))): 2 * np.eye(2)}
    absorbed = absorption_check(coeffs, unis, 4)
    report = dissociate_equivalence_report(random_coeffs(2, 2, 2, seed=5), 2, 2, 4)
    assert calls == []
    # the letter g_i is coded 2i + 1 and its inverse 2i
    assert free.values[(1, 2)].keys == (((3,), (5,)),)
    assert dissociate.values[(2,)].keys == (((5,),),)
    assert [x.keys for x in telescope] == [(((4,), ()),), (((5,), (4,)),), (((), (5,)),)]
    assert absorbed.abs_err <= 1e-9 * absorbed.rhs and report.lhs > 0


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("rademacher", n=10, d=1, p=2),
        FamilySpec("martingale_rademacher", n=9, d=1, p=2, dim=2),
        FamilySpec("random_matrix", n=2, d=1, p=2, dim=3),
        FamilySpec("free_generators", n=1, d=1, p=2, dim=4),
        FamilySpec("random_matrix", n=1, d=1000, p=2),
    ],
)
def test_make_family_charges_member_entries_before_building(monkeypatch, spec):
    from orthosum import lab

    built = []
    monkeypatch.setattr(lab, "random_complex_matrix", lambda *a: built.append(a))
    monkeypatch.setattr(lab, "product", lambda *a, **k: built.append(a))
    with pytest.raises(SizeLimitError, match="sign table rows|member entries"):
        make_family(spec, budget=10)
    assert built == []


def test_member_entries_of_the_largest_benchmark_family_fit_exactly():
    # martingale n=6, dim 2: 6 members of side 2 * 2^6, 6 * 128^2 = 98,304 entries
    spec = FamilySpec("martingale_rademacher", n=6, d=1, p=4, dim=2, seed=1)
    assert len(make_family(spec, budget=98_304).values) == 6
    with pytest.raises(SizeLimitError, match="member entries needs 98304 items"):
        make_family(spec, budget=98_303)


def test_refused_huge_shapes_name_their_shape_without_forming_it():
    spec = FamilySpec("random_matrix", n=10, d=100_000, p=2)
    with pytest.raises(SizeLimitError, match=r"family members needs 10\^100000 items"):
        make_family(spec)
    spec = FamilySpec("rademacher", n=1, d=10**12, p=2)
    with pytest.raises(SizeLimitError, match=r"sign table rows needs 2\^1000000000000 "):
        make_family(spec)


def test_absorption_and_equivalence_reject_uneven_coefficients_and_unmapped_words():
    unis = random_unitaries(make_rng(1), 2, 2)
    uneven = {Word(((1, 1),)): np.eye(2), Word(((2, 1),)): np.eye(3)}
    with pytest.raises(ValueError, match="same shape"):
        absorption_check(uneven, unis, 4)
    with pytest.raises(ValueError, match="no unitary image"):
        absorption_check({Word(((3, 1),)): np.eye(2)}, unis, 4)
    with pytest.raises(ValueError, match="same shape"):
        dissociate_equivalence_report({(1,): np.eye(2), (2,): np.eye(3)}, 2, 1, 4)
