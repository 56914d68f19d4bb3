"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import math
import time
from itertools import product

import numpy as np
from helpers import random_unitaries

from orthosum.algebra import family_scale, family_sum_norm, ga_even_norm, schatten_even_norm
from orthosum.factorization import factor_norm_report, xi_family
from orthosum.freegroup import canonical_dissociate, gamma_indices, is_p_dissociate
from orthosum.lab import (
    FamilySpec,
    absorption_check,
    khintchine_iteration_check,
    main_inequality_report,
    make_family,
    make_rng,
    phi_r_bound_check,
    random_complex_matrix,
    sublemma_root_check,
)
from orthosum.lab import FREE_GENERATORS, DISSOCIATE, RADEMACHER, MARTINGALE_RADEMACHER
from orthosum.orthogonality import is_p_orthogonal, mobius_decomposition_check
from orthosum.partitions import (
    SetPartition,
    all_partitions,
    mobius,
    mobius_recursive,
    refinements,
    verify_mobius_identities,
)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {status}: {label}{suffix}", flush=True)
    assert ok, f"criterion {num}: {label}{suffix}"


def ga_moment(elt, p):
    return ga_even_norm(elt, p)


def test_criterion_01_mobius_identities():
    start = time.time()
    ok = True
    for m in range(2, 7):
        rep = verify_mobius_identities(m)
        ok = ok and rep.abs_sum == math.factorial(m) and rep.interval_sums_ok
    for m in (7, 8):
        zero = SetPartition.singletons(m)
        abs_sum = sum(abs(mobius(zero, s)) for s in all_partitions(m))
        ok = ok and abs_sum == math.factorial(m)
    elapsed = time.time() - start
    report(1, "Mobius factorial and interval-sum identities", ok and elapsed < 5.0,
           f"{elapsed:.2f}s")


def test_criterion_02_mobius_oracle_agreement():
    ok = True
    for m in range(1, 6):
        for sigma in all_partitions(m):
            for rho in refinements(sigma):
                if mobius(rho, sigma) != mobius_recursive(rho, sigma):
                    ok = False
    report(2, "closed-form Mobius equals the recursive oracle for m <= 5", ok)


def test_criterion_03_canonical_dissociate():
    start = time.time()
    ok = True
    for n, d, p in [(2, 2, 4), (3, 2, 4), (2, 3, 4), (2, 2, 6)]:
        ok = ok and is_p_dissociate(canonical_dissociate(n, d), p).ok
    elapsed = time.time() - start
    report(3, "canonical generator-product families are p-dissociate",
           ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_04_p_orthogonality_of_generated_families():
    free = make_family(FamilySpec(FREE_GENERATORS, n=2, d=2, p=4))
    rep_free = is_p_orthogonal(free, 4, 0.0)
    # n = p = 2 makes the injective-projection set non-empty as well
    free_small = make_family(FamilySpec(FREE_GENERATORS, n=2, d=2, p=2))
    rep_small = is_p_orthogonal(free_small, 2, 0.0)
    rad = make_family(FamilySpec(RADEMACHER, n=2, d=2, p=4, seed=1))
    rep_rad = is_p_orthogonal(rad, 4, 1e-12)
    ok = (
        rep_free.max_abs_violation == 0.0
        and rep_small.max_abs_violation == 0.0
        and rep_small.count_checked > 0
        and rep_rad.max_abs_violation <= 1e-12
    )
    report(4, "free-generator moments vanish exactly, Rademacher to 1e-12", ok,
           f"rademacher max {rep_rad.max_abs_violation:.1e}")


def test_criterion_05_decomposition_identity():
    start = time.time()
    configs = [(2, 1, 4), (2, 2, 4), (3, 1, 4), (2, 2, 6)]
    kinds = [("random_matrix", 3), (RADEMACHER, 1), (FREE_GENERATORS, 1)]
    # rhs against lhs, and lhs against the sum norm, which the moment walk does not compute
    worst = {"rhs_vs_lhs": 0.0, "lhs_vs_sum_norm": 0.0}
    failed = []
    for (n, d, p) in configs:
        for kind, dim in kinds:
            for seed in range(20):
                fam = make_family(FamilySpec(kind, n=n, d=d, p=p, dim=dim, seed=seed))
                rep = mobius_decomposition_check(fam, p)
                scale = family_scale(fam, p)
                sides = {
                    "rhs_vs_lhs": rep.abs_err / scale,
                    "lhs_vs_sum_norm": abs(rep.lhs - family_sum_norm(fam, p) ** p) / scale,
                }
                for side, rel in sides.items():
                    worst[side] = max(worst[side], rel)
                    if not rel <= 1e-8:
                        failed.append(f"{side} {kind} {(n, d, p)} seed {seed}")
    elapsed = time.time() - start
    detail = ", ".join(f"worst {side} rel err {rel:.1e}" for side, rel in worst.items())
    if failed:
        detail += f", {len(failed)} failed, first {failed[0]}"
    report(5, "decomposition identity on 20 seeds x 4 sizes x 3 kinds",
           not failed and elapsed < 60.0, f"{detail}, {elapsed:.1f}s")


def test_criterion_06_factorization():
    start = time.time()
    # non-constant telescoping traces, exhaustive and exact
    ok_nc = True
    for m in (2, 3, 4):
        for n in (1, 2, 3):
            xs = xi_family(m, n)
            for g in product(range(1, n + 1), repeat=m):
                acc = None
                for r, i in enumerate(g):
                    e = xs[r](i)
                    acc = e if acc is None else acc * e
                from orthosum.algebra import ga_trace

                want = 1 if len(set(g)) == 1 else 0
                if ga_trace(acc) != want:
                    ok_nc = False

    parts = [s for s in all_partitions(4) if s.num_blocks < 4]
    from orthosum.orthogonality import MomentTable

    worst_err = 0.0
    worst_bd = 0.0
    all_holder = True
    for seed in range(10):
        fam = make_family(FamilySpec("random_matrix", n=2, d=2, p=4, dim=2, seed=seed))
        scale = family_scale(fam, 4)
        table = MomentTable(fam, 4)
        for sig in product(parts, repeat=2):
            # the report carries the factorization check of the same factors
            norms = factor_norm_report(fam, sig, 4, table=table)
            worst_err = max(worst_err, norms.check.abs_err / scale)
            worst_bd = max(worst_bd, norms.bd_max_rel_err)
            all_holder = all_holder and norms.holder_ok
    ok = ok_nc and worst_err <= 1e-8 and worst_bd <= 1e-10 and all_holder
    elapsed = time.time() - start
    report(6, "factorization identity, factor-norm equality, Hoelder",
           ok, f"worst rel err {worst_err:.1e}, {elapsed:.1f}s")


def test_criterion_07_khintchine_sandwich():
    ok = True
    for (n, d, p) in [(2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 2, 6)]:
        for seed in range(20):
            rng = make_rng(10_000 + seed)
            a = {g: random_complex_matrix(rng, 2) for g in gamma_indices(n, d)}
            rep = khintchine_iteration_check(a, n, d, p)
            ok = ok and rep.lower_ok and rep.upper_ok
    report(7, "iteration sandwich C <= |S|_p <= 2^d C on 20 seeds x 4 sizes", ok)


def test_criterion_08_one_index_bound():
    ok = True
    kinds = (FREE_GENERATORS, DISSOCIATE, RADEMACHER, MARTINGALE_RADEMACHER)
    for p in (2, 4, 6, 8):
        n = 4 if p <= 4 else 2
        for kind in kinds:
            for seed in range(20):
                fam = make_family(FamilySpec(kind, n=n, d=1, p=p, dim=2, seed=seed))
                rep = main_inequality_report(fam, p)
                ok = ok and rep.pisier_ok is True
    report(8, "one-index bound A <= (3pi/2) p C for generated families", ok)


def test_criterion_09_root_bound():
    ok = True
    for p in (2, 4, 6, 8, 10):
        for D in (0.5, 1.0, 3.0):
            ok = ok and sublemma_root_check(p, D).bound_ok
    closed = 1.0 + math.sqrt(3.0)
    got = sublemma_root_check(2, 1.0).root
    ok = ok and abs(got - closed) <= 1e-10
    report(9, "binomial-polynomial root <= 2pD, closed form at p=2",
           ok, f"|root - (1+sqrt3)| = {abs(got - closed):.1e}")


def test_criterion_10_mobius_mass_bound():
    ok = True
    for d in (1, 2):
        for r in range(5):
            ok = ok and phi_r_bound_check(4, d, r).ok
    for r in range(7):
        ok = ok and phi_r_bound_check(6, 1, r).ok
    report(10, "Mobius mass phi_r <= C(p,r) ((p-r)!)^d by exhaustion", ok)


def test_criterion_11_absorption():
    from orthosum.freegroup import Word

    ok = True
    worst = 0.0
    g1, g2 = Word(((1, 1),)), Word(((2, 1),))
    support = (g1, g2, g1 * g2)
    for seed in range(20):
        rng = make_rng(20_000 + seed)
        dim_rep = 3 if seed % 2 else 4
        a = {w: random_complex_matrix(rng, 2) for w in support}
        unis = random_unitaries(rng, 2, dim_rep)
        scale = 1.0 + sum(schatten_even_norm(m, 4) ** 4 for m in a.values())
        for p in (2, 4):
            rep = absorption_check(a, unis, p)
            scale_p = 1.0 + sum(schatten_even_norm(m, p) ** p for m in a.values())
            rel = rep.abs_err / scale_p
            worst = max(worst, rel)
            ok = ok and rel <= 1e-10
    report(11, "unitary-twist absorption equality on 20 seeds",
           ok, f"worst rel err {worst:.1e}")


def test_criterion_12_generator_sum_norms():
    from orthosum.algebra import generator_sum

    ok = True
    for n in range(1, 5):
        s = generator_sum({(k,): np.eye(1) for k in range(1, n + 1)}, n, 1)
        two = ga_even_norm(s, 2)
        four = ga_even_norm(s, 4)
        ok = ok and abs(two - math.sqrt(n)) <= 1e-12
        ok = ok and abs(four - (2 * n * n - n) ** 0.25) <= 1e-12
    report(12, "closed-form generator-sum norms at p = 2 and 4", ok)
