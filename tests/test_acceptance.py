"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either taken verbatim from the source material
for the named bundles or frozen from an independent oracle (exact linear
algebra for dimensions, direct re-evaluation for bound inequalities).
"""

import random
from fractions import Fraction

import pytest

from kbundle.bounds import ClosureQuery, closure_threshold, restriction_bound
from kbundle.bundle import from_syzygy, invariants, pullback_powers, validate
from kbundle.modgb import apply_columns, syzygy_module_columns
from kbundle.powers import (
    exterior_power_matrix,
    symmetric_power_matrix,
    tensor_power_matrix,
)
from kbundle.stability import (
    analyze_bundle,
    bohnhorst_spindler,
    brenner_monomial,
    hoppe_check,
)
from kbundle.tannaka import (
    TensorSections,
    classify_group,
    fingerprint,
    section_dim_table,
    tensor_dim_cell,
)

from power_expand import sym_expand, tensor_expand, wedge_expand
from sample_bundles import (
    RING_QQ3,
    dual_five_monomials,
    five_quadrics,
    five_quartics,
    monomial_cubes_family,
    random_homogeneous,
    random_kernel_bundle,
    random_primary_monomial_forms,
    rank6_bundle,
    sl3_bundle,
    syzygy_bundle,
)


def announce(n, text):
    print(f"ACCEPTANCE {n}: {text} PASS")


def test_criterion_01_five_monomials_dual():
    bundle = dual_five_monomials()
    report = hoppe_check(bundle, engine="both")
    assert report.verdict == "semistable"
    assert report.stability == "undetermined"
    # sections of S*(m) vanish exactly for m < -2
    table1 = section_dim_table(bundle, "tensor", 1, range(-4, -1), engine="linalg")
    table1_gb = section_dim_table(bundle, "tensor", 1, range(-4, -1), engine="gb")
    assert table1 == table1_gb
    assert table1[-4] == 0 and table1[-3] == 0 and table1[-2] > 0
    # wedge-square sections vanish exactly for m < -5, equality at -5
    table2 = section_dim_table(bundle, "exterior", 2, range(-7, -4), engine="linalg")
    assert table2[-7] == 0 and table2[-6] == 0 and table2[-5] > 0
    q2 = report.per_power[1]
    assert (q2.alpha, q2.relation) == (-5, "=")
    assert q2.threshold == -5 == -2 * report.mu
    announce(1, "dual five-monomial bundle semistable, section table exact;")


def test_criterion_02_monomial_cubes_unstable():
    report = hoppe_check(monomial_cubes_family(), engine="both")
    assert report.verdict == "unstable"
    w = report.witness
    assert w is not None and w.verified and w.q == 2 and w.degree == 9
    assert Fraction(9) < Fraction(28, 3)
    # the witness element really is a kernel element of the wedge-square map
    pres = exterior_power_matrix(monomial_cubes_family(), 2)
    assert apply_columns(pres.columns, pres.target_module(),
                         w.element).is_zero()
    res = brenner_monomial(monomial_cubes_family())
    assert res.verdict == "inconclusive"
    viol = {(v[0], v[2]) for v in res.violations}
    assert ((0, 1, 2), Fraction(-9, 2)) in viol
    announce(2, "cube-family unstable with verified witness at q=2, degree 9;")


def test_criterion_03_five_quartics_full_pipeline():
    bundle = five_quartics()
    analysis = analyze_bundle(bundle, engine="both")
    report = analysis.report
    assert report.verdict == "semistable"
    assert report.stability == "proven_via_selfduality"
    # H^0(E(m)) = 0 for m <= 5 (window floor is 4: below it sections are
    # impossible since the ambient splitting bundle has none)
    table1 = section_dim_table(bundle, "tensor", 1, range(4, 6), engine="linalg")
    assert table1[4] == 0 and table1[5] == 0
    q1 = report.per_power[0]
    assert q1.relation == ">" and q1.window_top == 5
    # wedge-square vanishing below 10, nonzero at 10; "both" checks the gb
    # table, counted up to 10 first and read below it, against linalg's
    table2 = section_dim_table(bundle, "exterior", 2, [10, 8, 9], engine="both")
    assert table2[8] == 0 and table2[9] == 0 and table2[10] > 0
    # invariant cells of the degree-0 normalization
    sections0 = TensorSections(five_quartics(twist=5))
    simplicity = tensor_dim_cell(sections0, 2, 0, method="exact")
    assert simplicity.value == 1
    cell4 = tensor_dim_cell(sections0, 4, 0)
    exact4 = tensor_dim_cell(sections0, 4, 0, method="exact")
    assert cell4.lo == cell4.hi == exact4.value == 3
    fp = fingerprint(bundle, report.stability, q_max=4)
    assert fp.selfdual
    assert classify_group(fp).label() == "Sp(4)"
    announce(3, "five quartics: sections, simplicity 1, dims[4]=3, Sp(4);")


def test_criterion_04_five_quadrics_pullback():
    bundle = five_quadrics()
    report = hoppe_check(bundle, engine="both")
    assert report.verdict == "semistable"
    assert pullback_powers(bundle, 2) == five_quartics()
    analysis = analyze_bundle(bundle, via_pullback=2)
    assert analysis.report.is_stable_proven
    assert analysis.pullback.report.stability == "proven_via_selfduality"
    announce(4, "five quadrics semistable, pullback matches, combined stable;")


def test_criterion_05_sl3_case():
    res = brenner_monomial(sl3_bundle())
    assert res.verdict == "stable"
    bundle = sl3_bundle()
    analysis = analyze_bundle(bundle)
    assert analysis.report.stability == "proven_stable"
    sections = TensorSections(bundle)
    cell3 = tensor_dim_cell(sections, 3, 0)
    exact3 = tensor_dim_cell(sections, 3, 0, method="exact")
    assert cell3.lo == cell3.hi == exact3.value == 1
    fp = fingerprint(bundle, analysis.report.stability, q_max=3)
    assert fp.dims[3].value == 1
    assert classify_group(fp).label() == "SL(3)"
    announce(5, "cube+product family stable, dims[3]=1, SL(3);")


def test_criterion_06_rank6_bundle():
    bundle = rank6_bundle(twist=7)
    analysis = analyze_bundle(bundle, engine="both")
    report = analysis.report
    assert report.verdict == "semistable"
    assert report.stability == "proven_via_selfduality"
    fp = fingerprint(bundle, report.stability, q_max=4)
    assert fp.selfdual
    # degree 0 already
    exact4 = tensor_dim_cell(TensorSections(bundle), 4, 0, method="exact")
    assert fp.dims[4].lo == fp.dims[4].hi == exact4.value == 3
    assert classify_group(fp).label() == "Sp(6)"
    announce(6, "rank-6 bundle semistable, self-dual, dims[4]=3, Sp(6);")


def test_criterion_07_criteria_agreement_suite():
    rng = random.Random(7771)
    checked_monomial = 0
    while checked_monomial < 50:
        gens = random_primary_monomial_forms(rng, max_extra=3, max_degree=4)
        if len(gens) > 6:
            continue
        bundle = from_syzygy(gens)
        # analyze_bundle raises InternalCheckError on any contradiction
        analyze_bundle(bundle, upgrade_selfdual=False)
        checked_monomial += 1
    # Bohnhorst-Spindler shaped instances of rank 2 and 3
    from kbundle.algebra import make_ring
    checked_bs = 0
    attempts = 0
    while checked_bs < 20 and attempts < 200:
        attempts += 1
        N = rng.choice([2, 2, 3])
        ring = RING_QQ3 if N == 2 else make_ring(4)
        k = rng.randint(1, 2)
        n = N + k
        a = sorted((rng.randint(-2, 0) for _ in range(n)), reverse=True)
        b = sorted((a[j] + rng.randint(1, 2) for j in range(k)), reverse=True)
        if any(b[j] <= a[j] for j in range(k)):
            continue
        rows = []
        for j in range(k):
            row = []
            for i in range(n):
                d = b[j] - a[i]
                row.append(ring.zero() if d <= 0
                           else random_homogeneous(ring, d, rng, density=0.7))
            rows.append(row)
        from kbundle.bundle import make_kernel_bundle
        bundle = make_kernel_bundle(ring, a, b, rows)
        if not validate(bundle, check_surjectivity=True).ok:
            continue
        bs = bohnhorst_spindler(bundle)
        if bs.verdict == "not_applicable":
            continue
        analysis = analyze_bundle(bundle, upgrade_selfdual=False)
        report = analysis.report
        if bs.verdict in ("stable", "semistable"):
            assert report.verdict == "semistable"
        if bs.verdict == "unstable":
            assert report.verdict == "unstable"
        if bs.verdict == "stable" and report.stability is not None:
            assert report.stability != "not_stable"
        checked_bs += 1
    assert checked_bs >= 10
    announce(7, f"{checked_monomial} monomial families and {checked_bs} "
                "interlaced instances agree with the driver;")


def test_criterion_08_engine_equivalence():
    named = [dual_five_monomials(), monomial_cubes_family(), five_quartics(),
             five_quadrics(), sl3_bundle()]
    for bundle in named:
        hoppe_check(bundle, engine="both")
    rng = random.Random(8080)
    for _ in range(100):
        bundle = random_kernel_bundle(rng)
        source, target = bundle.source_module(), bundle.target_module()
        cols = bundle.columns()
        syz = syzygy_module_columns(cols, source, target)
        lo = min(source.generator_degrees)
        from kbundle.modgb import buchberger, graded_piece_dim, kernel_dim_linalg
        gb = buchberger(list(syz.elements)) if syz.elements else syz
        for t in range(lo, lo + 4):
            assert graded_piece_dim(syz, t) == graded_piece_dim(gb, t) == \
                kernel_dim_linalg(cols, source, target, t)
    announce(8, "groebner and elimination dimensions agree on 5 named + 100 "
                "random bundles;")


def test_criterion_09_kernel_closure_signs():
    rng = random.Random(909)
    checked = 0
    while checked < 100:
        bundle = random_kernel_bundle(rng)
        if bundle.rank < 3:
            continue
        gens = syzygy_module_columns(bundle.columns(), bundle.source_module(),
                                     bundle.target_module()).elements
        if len(gens) < 2:
            continue
        take = 3 if (len(gens) >= 3 and bundle.rank > 3 and rng.random() < 0.3) else 2
        picks = [gens[rng.randrange(len(gens))] for _ in range(take)]
        tp = tensor_power_matrix(bundle, take)
        t_el = tensor_expand(tp, picks)
        assert apply_columns(tp.columns, tp.target_module(), t_el).is_zero()
        sp = symmetric_power_matrix(bundle, take)
        s_el = sym_expand(sp, picks)
        assert apply_columns(sp.columns, sp.target_module(), s_el).is_zero()
        ep = exterior_power_matrix(bundle, take)
        w_el = wedge_expand(ep, picks)
        if not w_el.is_zero():
            assert apply_columns(ep.columns, ep.target_module(),
                                 w_el).is_zero()
        checked += 1
    announce(9, "100 random kernel-closure expansions annihilated exactly;")


def test_criterion_10_bounds():
    langer = restriction_bound("langer", 2, 4, 80, certificate="stable")
    assert langer.k_min == 61
    flenner = restriction_bound("flenner", 2, 4, 0, c=1, certificate="semistable")
    assert flenner.k_min == 7
    from kbundle.algebra import parse_many
    gens = parse_many(["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"], RING_QQ3)
    closure = closure_threshold(ClosureQuery(generators=gens,
                                             certificate="semistable"))
    assert closure.tau == Fraction(5, 2)
    assert closure.m_min == 3
    rng = random.Random(10101)
    for _ in range(100):
        theorem = rng.choice(["flenner", "langer", "langer_strong"])
        N = rng.randint(2, 4)
        r = rng.randint(2, 6)
        delta = Fraction(rng.randint(0, 150))
        kwargs = {"certificate": "stable"} if theorem == "langer" else \
            {"certificate": "semistable"}
        if theorem == "flenner":
            kwargs["c"] = rng.randint(1, N - 1)
        if theorem == "langer_strong":
            kwargs["field_char"] = rng.choice([2, 3, 5, 7])
        bound = restriction_bound(theorem, N, r, delta, **kwargs)
        assert bound.predicate(bound.k_min)
        assert not bound.predicate(bound.k_min - 1)
    announce(10, "Langer 61, Flenner 7, closure 5/2 -> R_{>=3}, 100 boundary "
                 "re-evaluations;")
