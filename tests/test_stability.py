import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import comb, floor
from types import SimpleNamespace

import pytest

from kbundle.algebra import FieldSpec, Poly, make_ring, monomials_of_degree, parse_many
from kbundle.bundle import (
    BundleError,
    invariants,
    make_kernel_bundle,
    modular_twin,
    syzygy_forms,
    twist,
    validate,
)
from kbundle.modgb import (
    PRIMARY_TEST_PRIME,
    Caps,
    NO_CAPS,
    ResourceCapError,
    is_irrelevant_primary,
    kernel_dim_linalg,
    kernel_sections_linalg,
)
from kbundle import tannaka
from kbundle.powers import exterior_power_matrix
from kbundle.stability import (
    ENGINES,
    KOSZUL,
    InternalCheckError,
    NumericCriterionResult,
    StabilityError,
    _koszul_bounds,
    _scan_exterior,
    _verify_witness,
    analyze_bundle,
    bohnhorst_spindler,
    brenner_monomial,
    hoppe_check,
    numeric_slope_gate,
    parameter_criterion,
    selfdual_upgrade,
)

from sample_bundles import (
    P,
    RING_QQ3,
    double_rank2_bundle,
    dual_five_monomials,
    five_quadrics,
    five_quartics,
    monomial_cubes_family,
    rank2_degree0_bundle,
    random_kernel_bundle,
    random_primary_monomial_forms,
    rank6_bundle,
    sl3_bundle,
    syzygy_bundle,
)
from kbundle.bundle import from_syzygy


def test_gate_five_quadrics_strict():
    assert numeric_slope_gate(five_quadrics()) == "pass_strict"


def test_gate_cotangent_strict():
    assert numeric_slope_gate(syzygy_bundle(["X", "Y", "Z"])) == "pass_strict"


def test_gate_fail_configuration():
    b = syzygy_bundle(["X", "Y", "Z^5"])
    assert invariants(b).mu == Fraction(-7, 2)
    assert b.twists_a[-1] == -5
    assert numeric_slope_gate(b) == "fail"


def test_gate_equality_configuration():
    b = syzygy_bundle(["X", "Y", "Z^2"])
    assert invariants(b).mu == -2
    assert numeric_slope_gate(b) == "pass"


def test_hoppe_dual_five_monomials_semistable_undetermined():
    report = hoppe_check(dual_five_monomials(), engine="both")
    assert report.verdict == "semistable"
    assert report.stability == "undetermined"
    assert report.gate == "pass_strict"
    q1, q2 = report.per_power
    assert (q1.q, q1.relation, q1.alpha) == (1, ">", None)
    assert q1.threshold == Fraction(-5, 2)
    assert (q2.q, q2.relation, q2.alpha) == (2, "=", -5)
    assert q2.threshold == -5


def test_hoppe_monomial_cubes_unstable_with_witness():
    report = hoppe_check(monomial_cubes_family(), engine="both")
    assert report.verdict == "unstable"
    assert report.gate == "fail"
    w = report.witness
    assert w is not None and w.verified
    assert w.q == 2 and w.degree == 9
    assert Fraction(9) < Fraction(28, 3)


def test_hoppe_five_quartics_semistable():
    report = hoppe_check(five_quartics(), engine="both")
    assert report.verdict == "semistable"
    assert report.stability == "undetermined"
    q1, q2 = report.per_power
    # no sections of E(m) for m <= 5, boundary included
    assert (q1.relation, q1.window_top) == (">", 5)
    # wedge-square sections vanish below 10 and appear exactly at 10
    assert (q2.relation, q2.alpha) == ("=", 10)


def test_hoppe_five_quadrics_semistable():
    report = hoppe_check(five_quadrics(), engine="both")
    assert report.verdict == "semistable"
    assert report.stability == "undetermined"
    q1, q2 = report.per_power
    assert q1.relation == ">"
    assert (q2.relation, q2.alpha) == ("=", -5 + 10)  # threshold -2*mu = 5


def test_hoppe_rank2_stable():
    report = hoppe_check(rank2_degree0_bundle())
    assert report.verdict == "semistable"
    assert report.stability == "proven_stable"
    assert [c.q for c in report.per_power] == [1]


def test_hoppe_rank2_strictly_semistable():
    # Syz(X, Y, Z^2): the Koszul relation of (X, Y) is a boundary subsheaf
    report = hoppe_check(syzygy_bundle(["X", "Y", "Z^2"]))
    assert report.verdict == "semistable"
    assert report.stability == "not_stable"
    assert report.per_power[0].relation == "="
    assert report.per_power[0].alpha == 2


def test_hoppe_gate_fail_unstable_rank2():
    report = hoppe_check(syzygy_bundle(["X", "Y", "Z^5"]), engine="both")
    assert report.verdict == "unstable"
    assert report.witness.q == 1 and report.witness.degree == 2
    assert report.witness.verified


def test_semistability_mode_skips_boundary():
    report = hoppe_check(five_quartics(), mode="semistability")
    assert report.verdict == "semistable"
    assert report.stability == "undetermined"
    q2 = report.per_power[1]
    assert q2.relation == ">"
    assert q2.window_top == 9


def test_twist_invariance():
    for bundle, c in ((five_quartics(), 5), (monomial_cubes_family(), 3)):
        base = hoppe_check(bundle)
        shifted = hoppe_check(twist(bundle, c))
        assert shifted.verdict == base.verdict
        assert shifted.stability == base.stability
        for pc_base, pc_shift in zip(base.per_power, shifted.per_power):
            assert pc_shift.relation == pc_base.relation
            assert pc_shift.threshold == pc_base.threshold - pc_base.q * c
            if pc_base.alpha is not None:
                assert pc_shift.alpha == pc_base.alpha - pc_base.q * c


def test_permutation_invariance():
    gens = ["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"]
    base = hoppe_check(syzygy_bundle(gens))
    rng = random.Random(2024)
    for _ in range(3):
        rng.shuffle(gens)
        report = hoppe_check(syzygy_bundle(gens))
        assert report.verdict == base.verdict
        assert report.stability == base.stability
        assert [(c.q, c.alpha, c.relation) for c in report.per_power] == \
               [(c.q, c.alpha, c.relation) for c in base.per_power]


def test_engine_agreement_is_enforced():
    # engine="both" raises InternalCheckError on mismatch; passing silently
    # on these bundles is the agreement check
    for bundle in (dual_five_monomials(), five_quadrics(),
                   monomial_cubes_family(), rank2_degree0_bundle()):
        hoppe_check(bundle, engine="both")


def test_engine_mismatch_raises(monkeypatch):
    import kbundle.powers as powers
    # a gb engine that never finds a section disagrees with linalg at q = 2,
    # at the one degree its QQ scan reads
    monkeypatch.setattr(powers, "kernel_dims_gb", lambda *args: lambda k: 0)
    with pytest.raises(InternalCheckError, match=r"engine mismatch in "
                       r"exterior\^2 at degree -5: gb 0, linalg 3$"):
        hoppe_check(dual_five_monomials(), engine="both")


def test_gb_section_without_linalg_witness_raises(monkeypatch):
    import kbundle.powers as powers
    # a gb engine that counts a section in every degree claims q = 1 at the
    # lowest degree, where linalg finds no vector to witness it; q = 1 of
    # the five quadrics lies below the Koszul counter's ranks
    monkeypatch.setattr(powers, "kernel_dims_gb", lambda *args: lambda k: 1)
    with pytest.raises(InternalCheckError,
                       match="witness at q=1, degree 2 failed verification"):
        hoppe_check(five_quadrics(), engine="gb")


def test_witness_at_the_threshold_is_rejected():
    # wedge^2 of the five quadrics has sections from degree 5 = -2*mu on: a
    # genuine kernel element there lies on the threshold, not below it
    pres = exterior_power_matrix(five_quadrics(), 2)
    _, vectors = kernel_sections_linalg(
        pres.columns, pres.source_module(), pres.target_module(), 5)
    assert _verify_witness(pres, vectors[0], 5, Fraction(11, 2))
    assert not _verify_witness(pres, vectors[0], 5, Fraction(5))


def count_calls(monkeypatch, names) -> Counter:
    """Count the calls made to the named functions where the scan makes
    them: the engines' counts through PowerPresentation.kernel_dims (the
    bindings of powers), the witness and the exterior presentations through
    stability's bindings."""
    import kbundle.powers as powers
    import kbundle.stability as stability
    calls = Counter()
    for name in names:
        module = stability if name in ("kernel_sections_linalg",
                                       "exterior_power_matrix") else powers
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_non_bundle_is_rejected_before_the_scan(monkeypatch):
    calls = count_calls(monkeypatch, ("kernel_dim_linalg", "kernel_dims_gb",
                                      "kernel_sections_linalg"))
    bundle = syzygy_bundle(["X^2", "X*Y", "Y^2"])     # common zero (0:0:1)
    for engine in ENGINES:
        with pytest.raises(BundleError, match="not-surjective"):
            analyze_bundle(bundle, engine=engine)
    assert calls == Counter()


def test_hoppe_check_refuses_a_non_bundle_before_any_presentation(monkeypatch):
    import kbundle.stability as stability
    calls = count_calls(monkeypatch, ("exterior_power_matrix",))
    # the Koszul counter's degree formula is wrong off an m-primary ideal:
    # it must not run either
    for name in ("_koszul_bounds", "_scan_exterior"):
        def refuse(*args, _name=name):
            calls[_name] += 1
        monkeypatch.setattr(stability, name, refuse)
    bundle = syzygy_bundle(["X", "Y", "X + Y"])     # common zero (0:0:1)
    for engine in ENGINES:
        with pytest.raises(BundleError, match="not-surjective"):
            hoppe_check(bundle, engine=engine)
    assert calls == Counter()


def split_unstable_bundle():
    """Syz(X^2, Y^2, Z^2)(3) + Syz(X, Y, Z)(2) as one m = 2 presentation:
    rank 4, mu = 1/4, destabilized by the second summand, whose wedge^2 is
    O(1).  Every rank is scanned: q = 1 has no section, q = 2 one at -1."""
    z = RING_QQ3.zero()
    return make_kernel_bundle(RING_QQ3, [1] * 6, [3, 2], [
        [P("X^2"), P("Y^2"), P("Z^2"), z, z, z],
        [z, z, z, P("X"), P("Y"), P("Z")]])


def test_witness_comes_from_the_kept_engine(monkeypatch):
    # every engine builds the "<" rank's witness with one
    # kernel_sections_linalg call, so all three report the same one; both
    # re-counts with gb only q = 2, since q = 1 is a ">" proven mod p
    calls = count_calls(monkeypatch, ("kernel_dims_gb", "kernel_sections_linalg"))
    witnesses = {}
    for engine in ENGINES:
        calls.clear()
        report = hoppe_check(split_unstable_bundle(), engine=engine)
        assert report.witness.verified and report.witness.q == 2
        witnesses[engine] = str(report.witness.element)
        assert calls == {
            "gb": Counter(kernel_dims_gb=2, kernel_sections_linalg=1),
            "linalg": Counter(kernel_sections_linalg=1),
            "both": Counter(kernel_dims_gb=1, kernel_sections_linalg=1),
        }[engine]
    assert witnesses["gb"] == witnesses["linalg"] == witnesses["both"]


def test_both_rechecks_only_field_read_ranks(monkeypatch):
    """Under both, gb runs once on each rank read over the bundle's field
    (prime None, window not empty) and on no rank proven mod p or by the
    Koszul counter; it is compared at every degree read, not only the
    first."""
    import kbundle.powers as powers
    calls = count_calls(monkeypatch, ("kernel_dims_gb",))
    bundles = {"split": split_unstable_bundle(), "five quadrics": five_quadrics(),
               "p3 seven quadrics": random_syzygy_bundle(3, (2,) * 7, 0),
               "p2 f7 monomial": KOSZUL_CASES["p2 f7 monomial"]()}
    primes = {}
    for name, bundle in bundles.items():
        calls.clear()
        report = hoppe_check(bundle, engine="both")
        primes[name] = [c.prime for c in report.per_power]
        assert calls["kernel_dims_gb"] == sum(
            c.prime is None and c.window_low <= c.window_top
            for c in report.per_power), name
    assert primes == {"split": [PRIMARY_TEST_PRIME, None],
                      "five quadrics": [PRIMARY_TEST_PRIME, KOSZUL],
                      "p3 seven quadrics": [PRIMARY_TEST_PRIME] * 2 + [KOSZUL] * 2,
                      "p2 f7 monomial": [None, None, KOSZUL]}
    # a gb count off by one at degree 9, which q = 2 of the F_7 bundle
    # reads after 8, and at -5, which the section table reads after -6
    real = powers.kernel_dims_gb

    def wrong_at(degree):
        return lambda *args: partial(
            lambda dims, k: dims(k) + (k == degree), real(*args))

    monkeypatch.setattr(powers, "kernel_dims_gb", wrong_at(9))
    with pytest.raises(InternalCheckError, match=r"exterior\^2 at degree 9: "):
        hoppe_check(bundles["p2 f7 monomial"], engine="both")
    monkeypatch.setattr(powers, "kernel_dims_gb", wrong_at(-5))
    with pytest.raises(InternalCheckError, match=r"exterior\^2 at degree -5: "
                       r"gb 4, linalg 3$"):
        tannaka.section_dim_table(dual_five_monomials(), "exterior", 2,
                                  range(-6, -4), "both")


def test_every_engine_reports_one_witness():
    """Seeded differential test: monomial syzygy bundles on P^2 and
    surjective random presentations get the same verdict, per-rank outcome
    and witness string under gb, linalg and both.  The deciding prime is
    left out, since only linalg's first pass runs mod p."""
    rng = random.Random(2)
    bundles = [from_syzygy(random_primary_monomial_forms(rng)) for _ in range(17)]
    bundles += [b for b in (random_kernel_bundle(rng) for _ in range(75))
                if validate(b, check_surjectivity=True).ok]
    unstable = Counter()
    for i, bundle in enumerate(bundles):
        outcomes = []
        for engine in ENGINES:
            report = hoppe_check(bundle, engine=engine)
            witness = report.witness
            outcomes.append((report.verdict, report.stability,
                             [c.replace(prime=None)
                              for c in report.per_power],
                             witness and (witness.q, witness.degree,
                                          str(witness.element))))
        assert outcomes[0] == outcomes[1] == outcomes[2], (i, outcomes)
        if report.verdict == "unstable":
            assert witness.verified
            unstable["monomial" if i < 17 else "random"] += 1
    assert unstable == Counter(monomial=11, random=5)


def test_gb_scan_reads_only_the_window():
    """Generic Syz of 4 cubics on P^3: the gb count stops at the window top,
    so ten S-pairs decide each scanned rank, as linalg does.  The full
    syzygy module takes hundreds of pairs."""
    ring = make_ring(4)
    rng = random.Random(7)
    gens = [Poly(ring, {m: ring.field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
                        for m in monomials_of_degree(4, 3)})
            for _ in range(4)]
    bundle = from_syzygy(gens)
    gb = hoppe_check(bundle, engine="gb")
    la = hoppe_check(bundle, engine="linalg")
    assert (gb.verdict, gb.stability) == (la.verdict, la.stability)
    assert ([(c.q, c.alpha, c.relation) for c in gb.per_power]
            == [(c.q, c.alpha, c.relation) for c in la.per_power])
    for c in la.per_power:
        dim = exterior_power_matrix(bundle, c.q).kernel_dims(
            "gb", Caps(max_pairs=10), c.window_top)
        window = range(c.window_low, c.window_top + 1)
        assert next((k for k in window if dim(k)), None) == c.alpha


def test_brenner_stable_family():
    res = brenner_monomial(sl3_bundle())
    assert res.verdict == "stable"
    assert not res.violations


def test_brenner_inconclusive_with_violation_details():
    res = brenner_monomial(monomial_cubes_family())
    assert res.verdict == "inconclusive"
    assert res.bound == Fraction(-14, 3)
    viols = {(v[0], v[2]) for v in res.violations}
    assert ((0, 1, 2), Fraction(-9, 2)) in viols


def test_brenner_coordinate_family_stable():
    res = brenner_monomial(syzygy_bundle(["X", "Y", "Z"]))
    assert res.verdict == "stable"


def test_brenner_rejects_non_monomial():
    with pytest.raises(StabilityError):
        brenner_monomial(five_quadrics())


def test_brenner_rejects_non_primary():
    with pytest.raises(StabilityError):
        brenner_monomial(syzygy_bundle(["X^2", "X*Y", "X*Z"]))


@pytest.mark.parametrize("options, message", [
    ({"mode": "quick"}, "unknown mode 'quick'"),
    ({"engine": "fast"}, "unknown engine 'fast'"),
])
def test_hoppe_check_refuses_unknown_choices(options, message):
    # the command line refuses these first; only a library call gets here
    with pytest.raises(StabilityError) as info:
        hoppe_check(five_quadrics(), **options)
    assert str(info.value) == message


def test_brenner_primary_test_matches_buchberger():
    # the exact monomial test (no constant, a pure power of every variable)
    # against the Groebner test, on families with and without pure powers
    rng = random.Random(2718)
    answers = set()
    for nvars in (3, 4):
        ring = make_ring(nvars)
        for _ in range(40):
            monos = [tuple(rng.randint(1, 3) * (k == v) for k in range(nvars))
                     for v in range(nvars) if rng.random() < 0.8]
            monos += [tuple(rng.randint(0, 2) for _ in range(nvars))
                      for _ in range(rng.randint(2, 4))]
            gens = tuple(Poly(ring, {m: ring.field.one()}) for m in monos)
            # make_kernel_bundle, not from_syzygy, which refuses a constant
            bundle = make_kernel_bundle(
                ring, [-sum(m) for m in monos], [0], [gens])
            try:
                brenner_monomial(bundle)
                primary = True
            except StabilityError as exc:
                assert "irrelevant-primary" in str(exc)
                primary = False
            assert primary == bool(is_irrelevant_primary(list(gens)))
            answers.add((primary, (0,) * nvars in monos))
    assert {(True, False), (False, False), (False, True)} <= answers


def test_bohnhorst_spindler_examples():
    stable = bohnhorst_spindler(syzygy_bundle(["X^2", "Y^2", "Z^2"], twist=3))
    assert stable.verdict == "stable"
    cubes = bohnhorst_spindler(syzygy_bundle(["X^3", "Y^3", "Z^3"], twist=3))
    assert cubes.verdict == "stable"
    assert invariants(syzygy_bundle(["X^3", "Y^3", "Z^3"], twist=3)).mu == Fraction(-3, 2)
    # b_1 = a_1 breaks the interlacing shape; zero entries keep the grading legal
    from kbundle.bundle import make_kernel_bundle
    from sample_bundles import RING_QQ3
    z = RING_QQ3.zero()
    shape_fail = bohnhorst_spindler(
        make_kernel_bundle(RING_QQ3, [1, 1, 1], [1], [[z, z, z]]))
    assert shape_fail.verdict == "not_applicable"


def test_bohnhorst_spindler_rank_mismatch():
    res = bohnhorst_spindler(five_quadrics())  # rank 4 on P^2
    assert res.verdict == "not_applicable"


def test_parameter_criterion_examples():
    assert parameter_criterion(2, (1, 1, 1)).verdict == "stable"
    assert parameter_criterion(2, (2, 2, 2)).verdict == "stable"
    assert parameter_criterion(3, (1, 1, 1, 3)).verdict == "inconclusive"
    assert parameter_criterion(2, (1, 1, 2)).verdict == "semistable"
    with pytest.raises(StabilityError):
        parameter_criterion(2, (1, 1, 1, 1))


def test_selfdual_upgrade_five_quartics():
    bundle = five_quartics()
    report = hoppe_check(bundle)
    upgraded = selfdual_upgrade(bundle, report)
    assert upgraded.stability == "proven_via_selfduality"


def test_selfdual_upgrade_declines_non_simple():
    bundle = double_rank2_bundle()
    report = hoppe_check(bundle)
    assert report.verdict == "semistable"
    assert report.stability == "undetermined"
    upgraded = selfdual_upgrade(bundle, report)
    assert upgraded.stability == "undetermined"
    assert any("not simple" in line for line in upgraded.criteria_trace)


@pytest.mark.parametrize("change, reason", [
    (lambda report: report.replace(verdict="unstable"),
     "only semistable bundles with undetermined stability are eligible"),
    (lambda report: report.replace(gate="pass"),
     "the slope gate is not strict, so a corank-1 boundary subsheaf is not "
     "excluded"),
    (lambda report: report.replace(per_power=[
        c.replace(relation="=") for c in report.per_power]),
     "boundary sections at q = [1] are not of the self-dual pairing type"),
])
def test_selfdual_upgrade_declines_off_pattern_reports(change, reason):
    bundle = five_quartics()
    report = change(hoppe_check(bundle))
    upgraded = selfdual_upgrade(bundle, report)
    assert upgraded.stability == "undetermined"
    assert upgraded.criteria_trace[-1] == (
        f"self-duality upgrade not applied: {reason}")


def test_selfdual_upgrade_declines_a_degenerate_pairing(monkeypatch):
    monkeypatch.setattr(tannaka, "selfdual_certify", lambda bundle, caps: (
        False, 1))
    bundle = five_quartics()
    upgraded = selfdual_upgrade(bundle, hoppe_check(bundle))
    assert upgraded.stability == "undetermined"
    assert upgraded.criteria_trace[-1] == (
        "self-duality upgrade not applied: the section of E0 (x) E0 is a "
        "degenerate pairing")


def test_selfdual_upgrade_declines_positive_characteristic():
    ring7 = make_ring(3, FieldSpec(7))
    bundle = syzygy_bundle(
        ["X^4 - Y^4", "X^4 - Z^4", "X^2*Y^2", "X^2*Z^2", "Y^2*Z^2"], ring=ring7)
    upgraded = selfdual_upgrade(bundle, hoppe_check(bundle))
    assert upgraded.stability == "undetermined"
    assert upgraded.criteria_trace[-1] == (
        "self-duality upgrade not applied: requires characteristic 0")


def test_selfdual_upgrade_declines_non_integral_slope():
    bundle = five_quadrics()
    report = hoppe_check(bundle)
    upgraded = selfdual_upgrade(bundle, report)
    assert upgraded.stability == "undetermined"
    assert any("normalizing twist" in line for line in upgraded.criteria_trace)


def test_analysis_five_quadrics_via_pullback():
    analysis = analyze_bundle(five_quadrics(), via_pullback=2)
    assert analysis.report.verdict == "semistable"
    assert analysis.report.stability == "proven_via_selfduality"
    assert analysis.pullback is not None
    assert analysis.pullback.bundle == five_quartics()
    assert analysis.pullback.report.stability == "proven_via_selfduality"


def test_analysis_runs_auxiliary_criteria():
    analysis = analyze_bundle(rank2_degree0_bundle())
    assert analysis.criteria["bohnhorst_spindler"].verdict == "stable"
    assert analysis.criteria["parameter_criterion"].verdict == "stable"
    assert analysis.report.stability == "proven_stable"


def test_criteria_skip_brenner_past_its_generator_cap(monkeypatch):
    import kbundle.stability as stability
    bundle = sl3_bundle()
    analysis = analyze_bundle(bundle, upgrade_selfdual=False)
    assert list(analysis.criteria) == ["brenner_monomial"]
    # four generators past a cap of three: brenner_monomial refuses them
    monkeypatch.setattr(stability, "BRENNER_GENERATOR_CAP", 3)
    analysis = analyze_bundle(bundle, upgrade_selfdual=False)
    assert analysis.criteria == {}
    assert analysis.report.is_semistable


def test_one_row_with_a_zero_entry_is_no_syzygy_bundle():
    # Syz(X^2, Y^2, Z^2)(3) + O: one row, but its zero entry is no form of
    # a Koszul complex, so neither the syzygy criteria nor the Koszul
    # counter reads it
    z = RING_QQ3.zero()
    bundle = make_kernel_bundle(RING_QQ3, [1, 1, 1, 0], [3],
                                [[P("X^2"), P("Y^2"), P("Z^2"), z]])
    assert syzygy_forms(bundle) is None
    assert syzygy_forms(rank2_degree0_bundle()) == (P("X^2"), P("Y^2"), P("Z^2"))
    with pytest.raises(StabilityError, match="needs a syzygy bundle"):
        brenner_monomial(bundle)
    analysis = analyze_bundle(bundle, upgrade_selfdual=False)
    assert analysis.criteria == {}
    assert [(c.q, c.alpha, c.relation, c.prime)
            for c in analysis.report.per_power] == [(1, 0, "=", None)]
    assert (analysis.report.verdict, analysis.report.stability) == \
        ("semistable", "undetermined")


def claim(monkeypatch, verdict):
    """Make bohnhorst_spindler claim verdict for every bundle."""
    import kbundle.stability as stability
    monkeypatch.setattr(stability, "bohnhorst_spindler",
                        lambda bundle: NumericCriterionResult(verdict, "claimed"))


def test_stability_from_an_auxiliary_criterion(monkeypatch):
    # the five quadrics end undetermined without the self-duality upgrade,
    # and no criterion applies to them: a claimed "stable" decides
    claim(monkeypatch, "stable")
    report = analyze_bundle(five_quadrics(), upgrade_selfdual=False).report
    assert report.stability == "proven_stable"
    assert report.criteria_trace[-2:] == [
        "bohnhorst_spindler: stable", "stability from an auxiliary criterion"]


def test_unstable_pullback_over_qq_is_a_contradiction(monkeypatch):
    import kbundle.stability as stability
    # a pullback cannot be unstable over QQ; an unstable stand-in reaches
    # the branch
    monkeypatch.setattr(stability, "pullback_powers",
                        lambda bundle, k: monomial_cubes_family())
    with pytest.raises(InternalCheckError,
                       match=r"pullback \(k = 2\) of a semistable bundle is "
                             "unstable over QQ"):
        analyze_bundle(five_quadrics(), upgrade_selfdual=False, via_pullback=2)


def analyze_with_unstable_pullback_over_f7(monkeypatch, k):
    """analyze_bundle on the five quadrics over F_7 with an unstable
    stand-in for their pullback along x_i -> x_i^k."""
    import kbundle.stability as stability
    ring7 = make_ring(3, FieldSpec(7))
    monkeypatch.setattr(stability, "pullback_powers", lambda bundle, k: (
        syzygy_bundle(["X^3", "Y^3", "Z^3", "X*Y^2*Z^2"], ring=ring7)))
    return analyze_bundle(
        syzygy_bundle(["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"],
                      ring=ring7),
        upgrade_selfdual=False, via_pullback=k)


def test_unstable_separable_pullback_over_fp_is_a_contradiction(monkeypatch):
    # over F_7, x_i -> x_i^2 is separable and keeps semistability
    with pytest.raises(InternalCheckError,
                       match=r"pullback \(k = 2\) of a semistable bundle is "
                             "unstable over F_7"):
        analyze_with_unstable_pullback_over_f7(monkeypatch, 2)


def test_unstable_pullback_says_nothing_downstairs(monkeypatch):
    # over F_7, x_i -> x_i^7 is inseparable: an unstable pullback is allowed
    analysis = analyze_with_unstable_pullback_over_f7(monkeypatch, 7)
    assert analysis.pullback.report.verdict == "unstable"
    assert analysis.report.stability == "undetermined"
    assert analysis.report.criteria_trace[-1] == (
        "pullback (k = 7) is unstable; this gives no information downstairs")


@pytest.mark.parametrize("bundle, verdict, problem", [
    (monomial_cubes_family, "stable",
     "bohnhorst_spindler says stable but the exterior-power driver says "
     "unstable"),
    (five_quadrics, "unstable",
     "bohnhorst_spindler says unstable but the exterior-power driver says "
     "semistable"),
    (lambda: syzygy_bundle(["X", "Y", "Z^2"]), "stable",
     "bohnhorst_spindler says stable but the driver proved strict "
     "semistability"),
])
def test_contradicting_criterion_raises(monkeypatch, bundle, verdict, problem):
    claim(monkeypatch, verdict)
    with pytest.raises(InternalCheckError) as info:
        analyze_bundle(bundle(), upgrade_selfdual=False)
    assert str(info.value) == problem


def test_criteria_consistency_random_monomials():
    rng = random.Random(90210)
    for _ in range(12):
        bundle = from_syzygy(random_primary_monomial_forms(rng))
        # raises InternalCheckError if any criterion contradicts the driver
        analyze_bundle(bundle, upgrade_selfdual=False)


def test_mod_p_run_allowed():
    from kbundle.algebra import FieldSpec, make_ring, parse_many
    ring5 = make_ring(3, FieldSpec(5))
    gens = parse_many(["X^2", "Y^2", "Z^2"], ring5)
    bundle = from_syzygy(gens, 3)
    report = hoppe_check(bundle, engine="both")
    assert report.verdict == "semistable"
    assert report.stability == "proven_stable"


def test_reused_caps_apply_per_call():
    # the second call starts after the first call's budget has run out
    caps = Caps(timeout_seconds=0.5)
    for _ in range(2):
        analysis = analyze_bundle(rank2_degree0_bundle(), caps=caps)
        assert analysis.report.stability == "proven_stable"
        time.sleep(0.6)
    assert caps == Caps(timeout_seconds=0.5)


def test_zero_second_budget_raises():
    with pytest.raises(ResourceCapError, match="timeout exceeded"):
        analyze_bundle(rank2_degree0_bundle(), caps=Caps(timeout_seconds=0))


def test_analysis_shares_one_deadline(monkeypatch):
    import kbundle.stability as stability
    seen = []
    real = stability.hoppe_check

    def recording(bundle, engine, mode, caps):
        seen.append(caps)
        return real(bundle, engine, mode, caps)

    monkeypatch.setattr(stability, "hoppe_check", recording)
    caps = Caps(timeout_seconds=60)
    analyze_bundle(five_quadrics(), via_pullback=2, caps=caps)
    # the bundle and its pullback are scanned under one armed copy
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0]._deadline is not None and caps._deadline is None


# ---------------------------------------------------------------------------
# The mod-p first pass of the linalg scan.
# ---------------------------------------------------------------------------

def random_form(ring, degree, rng):
    return Poly(ring, {m: ring.field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
                       for m in monomials_of_degree(ring.nvars, degree)})


def random_syzygy_bundle(N, degrees, seed, field=FieldSpec(0)):
    ring = make_ring(N + 1, field)
    rng = random.Random(seed)
    gens = tuple(random_form(ring, d, rng) for d in degrees)
    return from_syzygy(gens)


def random_m2_kernel_bundle(N, twists_a, twists_b, seed, field=FieldSpec(0)):
    ring = make_ring(N + 1, field)
    rng = random.Random(seed)
    rows = [[random_form(ring, b - a, rng) for a in twists_a] for b in twists_b]
    return make_kernel_bundle(ring, list(twists_a), list(twists_b), rows)


def reference_scan(bundle, qs):
    """(q, alpha, relation, low, top) per exterior rank from one exact QQ
    elimination at every degree of the stability_evidence window."""
    mu = invariants(bundle).mu
    out = []
    for q in qs:
        threshold = -q * mu
        top = floor(threshold)
        pres = exterior_power_matrix(bundle, q)
        low = -max(pres.source_twists)
        args = (pres.columns, pres.source_module(), pres.target_module())
        dims = [kernel_dim_linalg(*args, k) for k in range(low, top + 1)]
        alpha = next((low + i for i, d in enumerate(dims) if d), None)
        if alpha is not None:
            # the kernel is torsion-free: no section is lost going up
            assert all(dims[alpha - low:])
        relation = (">" if alpha is None else
                    "<" if alpha < threshold else "=")
        out.append((q, alpha, relation, low, top))
    return out


def rank_fields(checks):
    return [(c.q, c.alpha, c.relation, c.window_low, c.window_top)
            for c in checks]


def scan_fields(report):
    return rank_fields(report.per_power)


# (builder, per exterior rank: relation; "<" ends the scan as unstable)
FIRST_PASS_CASES = {
    "p2 3 quadrics": (lambda s: random_syzygy_bundle(2, (2, 2, 2), s), [">"]),
    "p2 4 cubics": (lambda s: random_syzygy_bundle(2, (3, 3, 3, 3), s), [">"]),
    "p2 5 quadrics": (lambda s: random_syzygy_bundle(2, (2,) * 5, s), [">", "="]),
    "p2 degrees 1,1,2": (lambda s: random_syzygy_bundle(2, (1, 1, 2), s), ["="]),
    "p2 degrees 1,1,4": (lambda s: random_syzygy_bundle(2, (1, 1, 4), s), ["<"]),
    "p2 degrees 1,2,2,3": (lambda s: random_syzygy_bundle(2, (1, 2, 2, 3), s),
                           [">", "<"]),
    "p2 m=2 kernel": (lambda s: random_m2_kernel_bundle(
        2, (0, 0, 0, 0, -1), (1, 1), s), ["="]),
    "p3 4 quadrics": (lambda s: random_syzygy_bundle(3, (2, 2, 2, 2), s), [">"]),
    "p3 degrees 1,1,1,3": (lambda s: random_syzygy_bundle(3, (1, 1, 1, 3), s),
                           ["=", "<"]),
    "p3 degrees 1,1,2,4": (lambda s: random_syzygy_bundle(3, (1, 1, 2, 4), s),
                           ["<"]),
    "p3 m=2 kernel": (lambda s: random_m2_kernel_bundle(
        3, (0,) * 6, (1, 1), s), [">", ">"]),
}


# draws whose linear forms meet at (1:0:1), where the third form vanishes:
# the maximal minors are not irrelevant-primary, so they are no bundles
NOT_BUNDLES = {("p2 degrees 1,1,2", 3), ("p2 degrees 1,1,4", 3)}


def scan_ranks(bundle, qs, engine):
    """_scan_exterior on each rank without the Koszul pass: the `linalg`
    first pass on the bundle's modular twin, then the engine on the rank's
    presentation, as hoppe_check runs where the Koszul counter does not
    decide the rank."""
    mu = invariants(bundle).mu
    twin = partial(modular_twin, bundle, PRIMARY_TEST_PRIME)
    return [_scan_exterior(bundle, twin, q, mu, "stability_evidence", engine,
                           NO_CAPS)[0]
            for q in qs]


@pytest.mark.parametrize("name", list(FIRST_PASS_CASES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_linalg_first_pass_matches_plain_qq_scan_and_gb(name, seed):
    build, relations = FIRST_PASS_CASES[name]
    bundle = build(seed)
    if (name, seed) in NOT_BUNDLES:
        for engine in ("linalg", "gb"):
            with pytest.raises(BundleError, match="not-surjective"):
                hoppe_check(bundle, engine=engine)
        return
    la_report = hoppe_check(bundle, engine="linalg")
    gb_report = hoppe_check(bundle, engine="gb")
    qs = [c.q for c in la_report.per_power]
    # the Koszul counter decides most of these syzygy ranks before any
    # presentation is built, so the engines' scans run on them directly
    la = scan_ranks(bundle, qs, "linalg")
    gb = scan_ranks(bundle, qs, "gb")
    assert [c.relation for c in la] == relations
    assert scan_fields(la_report) == scan_fields(gb_report) == \
        reference_scan(bundle, qs)
    assert rank_fields(la) == rank_fields(gb) == scan_fields(la_report)
    assert (la_report.verdict, la_report.stability) == \
        (gb_report.verdict, gb_report.stability)
    assert [c.prime for c in gb] == [None] * len(gb)
    # on these generic bundles the prime sees what QQ sees
    assert [c.prime for c in la] == [
        PRIMARY_TEST_PRIME if c.relation == ">" else None for c in la]
    if la_report.verdict == "unstable":
        assert la_report.witness.verified and \
            la_report.witness.degree == gb_report.witness.degree


FIVE_QUADRICS = ["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"]


def five_quadrics_with(third):
    """The five quadrics with X*Y replaced by third: n - N - 1 = 2, so rank
    q = 1 is scanned, and q = 2 is read off the Koszul complex."""
    return syzygy_bundle(FIVE_QUADRICS[:2] + [third] + FIVE_QUADRICS[3:])


def test_prime_dividing_a_coefficient_does_not_decide():
    # mod 32003 the third generator vanishes and sections appear in the
    # window of q = 1; QQ has none, so QQ decides ">"
    base = hoppe_check(five_quadrics(), engine="linalg")
    report = hoppe_check(five_quadrics_with("32003*X*Y"), engine="linalg")
    assert (report.verdict, report.stability) == (base.verdict, base.stability)
    assert scan_fields(report) == scan_fields(base)
    assert [c.prime for c in base.per_power] == [PRIMARY_TEST_PRIME, KOSZUL]
    assert [c.prime for c in report.per_power] == [None, KOSZUL]


def count_linalg_calls_by_characteristic(monkeypatch):
    import kbundle.powers as powers
    calls = Counter()
    real = powers.kernel_dim_linalg

    def counting(columns, source, target, t, caps):
        calls[source.ring.field.char] += 1
        return real(columns, source, target, t, caps)

    monkeypatch.setattr(powers, "kernel_dim_linalg", counting)
    return calls


def test_prime_in_a_denominator_skips_the_first_pass(monkeypatch):
    calls = count_linalg_calls_by_characteristic(monkeypatch)
    base = hoppe_check(five_quadrics(), engine="linalg")
    calls.clear()
    report = hoppe_check(five_quadrics_with("1/32003*X*Y"), engine="linalg")
    assert scan_fields(report) == scan_fields(base)
    assert [c.prime for c in report.per_power] == [None, KOSZUL]
    assert set(calls) == {0}


def test_bundle_over_fp_is_never_reduced_to_another_prime(monkeypatch):
    import kbundle.bundle as bundle_module

    def refuse(bundle, prime):
        raise AssertionError(f"reduced a bundle over {bundle.ring.field} "
                             f"mod {prime}")

    # the first pass and the Tannaka cells both take their twin from
    # bundle.modular_twin, which calls bundle's binding
    monkeypatch.setattr(bundle_module, "reduce_bundle_mod_p", refuse)
    calls = count_linalg_calls_by_characteristic(monkeypatch)
    # m = 2: every rank is scanned
    bundle = random_m2_kernel_bundle(3, (0,) * 6, (1, 1), 1,
                                     field=FieldSpec(7))
    for engine in ("linalg", "both"):
        report = hoppe_check(bundle, engine=engine)
        assert report.stability == "proven_stable"
        assert [c.prime for c in report.per_power] == [None, None]
    assert set(calls) == {7}


def test_stable_generic_bundle_runs_no_qq_elimination(monkeypatch):
    calls = count_linalg_calls_by_characteristic(monkeypatch)
    # m = 2: every rank is scanned
    report = hoppe_check(random_m2_kernel_bundle(3, (0,) * 6, (1, 1), 1),
                         engine="linalg")
    assert report.stability == "proven_stable"
    assert calls[0] == 0 and calls[PRIMARY_TEST_PRIME] == len(report.per_power)


def test_failed_gate_without_a_section_proves_semistability(monkeypatch):
    import kbundle.stability as stability
    # every valid presentation dualizes to a minimal resolution, where a
    # failed gate means unstable; a failing stand-in gate reaches the branch
    monkeypatch.setattr(stability, "numeric_slope_gate", lambda bundle: "fail")
    report = hoppe_check(five_quadrics())
    assert report.verdict == "semistable"
    assert [c.q for c in report.per_power] == [1, 2, 3]
    assert (
        "gate failed but no exterior-power section violates the thresholds: "
        "the dualized presentation is not minimal; the exhaustive exterior "
        "checks prove semistability") in report.criteria_trace


def test_non_strict_gate_leaves_stability_undetermined(monkeypatch):
    import kbundle.stability as stability
    # a gate at equality leaves a rank-1 quotient of slope mu open, so no
    # strict exterior rank proves stability
    monkeypatch.setattr(stability, "numeric_slope_gate", lambda bundle: "pass")
    report = hoppe_check(sl3_bundle())
    assert [c.relation for c in report.per_power] == [">"]
    assert report.stability == "undetermined"
    assert report.criteria_trace[-1] == \
        "slope gate not strict: stability undetermined"


def test_empty_window_runs_no_elimination(monkeypatch):
    import kbundle.stability as stability
    from kbundle.powers import PowerPresentation

    def refuse(*args):
        raise AssertionError("eliminated an empty window")

    monkeypatch.setattr(PowerPresentation, "kernel_dims", refuse)
    monkeypatch.setattr(stability, "exterior_power_matrix", refuse)
    # wedge^1 of the five quadrics starts at degree 2; a slope of 0 puts
    # the window's top at 0, below every pass, the twin and the engine
    check, pres = _scan_exterior(five_quadrics(), refuse, 1, Fraction(0),
                                 "stability_evidence", "linalg", NO_CAPS,
                                 refuse)
    assert (check.alpha, check.relation, check.window_low, check.window_top,
            check.prime) == (None, ">", 2, 0, None)
    assert pres is None


def test_first_mod_p_section_is_searched_from_the_top(monkeypatch):
    """The rank-6 check probes the mod-p kernel at top only: with fewer
    than N + 1 = 3 sections there, the section-count bound puts every
    section at top, and the QQ scan starts there.  wedge^4 is read off the
    Koszul complex and probes nothing."""
    import kbundle.powers as powers
    probes = []
    real = powers.kernel_dim_linalg

    def logging(columns, source, target, t, caps):
        probes.append((source.ring.field.char, t))
        return real(columns, source, target, t, caps)

    monkeypatch.setattr(powers, "kernel_dim_linalg", logging)
    report = hoppe_check(rank6_bundle(), engine="linalg")
    assert [(c.q, c.relation, c.window_low, c.window_top)
            for c in report.per_power] == [
        (1, ">", -1, 0), (2, "=", -2, 0), (3, ">", -3, 0), (4, "=", -4, 0)]
    p = PRIMARY_TEST_PRIME
    assert probes == [(p, 0),                       # wedge^1: none at top
                      (p, 0), (0, 0),               # wedge^2
                      (p, 0)]                       # wedge^3


def stub_bundles(monkeypatch, N, low, dims):
    """A stand-in bundle on P^N whose wedge^1 window starts at low, and its
    twin mod PRIMARY_TEST_PRIME: each one's presentation counts sections by
    dims(char, k)."""
    import kbundle.stability as stability

    def kernel_dims(char, engine, caps, top):
        return partial(dims, char)

    monkeypatch.setattr(stability, "exterior_power_matrix", lambda b, q: (
        SimpleNamespace(kernel_dims=partial(kernel_dims, b.char))))
    return (SimpleNamespace(char=char, N=N, twists_a=(-low,))
            for char in (0, PRIMARY_TEST_PRIME))


@pytest.mark.parametrize("low, top", [(-6, 0), (-3, 2), (0, 1), (2, 2), (-5, -4)])
def test_first_mod_p_section_walk_stops_at_the_bound(monkeypatch, low, top):
    """The first pass walks down from top to the first mod-p section.  With
    the fewest sections a section at `first` allows, C(N + k - first, N) in
    degree k, the count D at top puts `first` exactly on the section-count
    bound, which ends the walk there with no probe below it.  With many
    sections the first degree without one ends it."""
    p = PRIMARY_TEST_PRIME
    for N in (1, 2):
        for first in range(low, top + 1):
            for tight in (True, False):
                probes = []

                def dim(char, k):
                    probes.append((char, k))
                    if k < first:
                        return 0
                    return comb(N + k - first, N) if tight else 10 ** 6

                bundle, bundle_p = stub_bundles(monkeypatch, N, low, dim)
                check, _ = _scan_exterior(bundle, lambda: bundle_p, 1,
                                          Fraction(-top), "stability_evidence",
                                          "linalg", NO_CAPS)
                assert check.alpha == first
                stop = first if tight else max(first - 1, low)
                assert probes == [(p, k) for k in range(top, stop - 1, -1)] \
                    + [(0, first)], (N, first, tight)


@pytest.mark.parametrize("engine", ["linalg", "gb"])
def test_a_pass_hands_its_stop_to_the_next(monkeypatch, engine):
    """A pass that stops at k with lo(k) = 0 hands k on: the mod-p walk
    probes nothing below k, though it has sections there, the engine scan
    starts at k, and the section exactly at k is alpha."""
    p = PRIMARY_TEST_PRIME
    probes, reads = [], []

    def dim(char, k):
        probes.append((char, k))
        return 10 ** 6 if char == p and k >= -5 else int(k >= -3)

    def koszul(k):
        reads.append(k)
        return 0, 10 ** 6 * (k >= -3)

    bundle, bundle_p = stub_bundles(monkeypatch, 2, -6, dim)
    check, _ = _scan_exterior(bundle, lambda: bundle_p, 1, Fraction(0),
                              "stability_evidence", engine, NO_CAPS, koszul)
    assert (check.alpha, check.relation, check.prime) == (-3, "<", None)
    assert min(reads) == -4
    assert probes == ([(p, k) for k in range(0, -4, -1)] if engine == "linalg"
                      else []) + [(0, -3)]


DUPLICATE_CASES = [five_quadrics, five_quartics, dual_five_monomials,
                   sl3_bundle, rank6_bundle, double_rank2_bundle] + [
    partial(build, seed) for name, (build, _) in FIRST_PASS_CASES.items()
    for seed in (1, 2, 3) if (name, seed) not in NOT_BUNDLES]


@pytest.mark.parametrize("engine", ["linalg", "both"])
def test_no_degree_is_eliminated_twice_in_one_check(monkeypatch, engine):
    """Within one hoppe_check, every pass, the Koszul counter's exact term
    and the engine read each degree once: no (field, source degrees, target
    degrees, degree) reaches kernel_dim_linalg twice."""
    import kbundle.powers as powers
    import kbundle.stability as stability
    seen = Counter()
    real = powers.kernel_dim_linalg

    def logging(columns, source, target, t, caps):
        seen[source.ring.field.char, source.generator_degrees,
             target.generator_degrees, t] += 1
        return real(columns, source, target, t, caps)

    monkeypatch.setattr(powers, "kernel_dim_linalg", logging)
    monkeypatch.setattr(stability, "kernel_dim_linalg", logging)
    for build in DUPLICATE_CASES:
        seen.clear()
        hoppe_check(build(), engine=engine)
        assert max(seen.values(), default=1) == 1, build


@pytest.mark.parametrize("name", list(FIRST_PASS_CASES))
@pytest.mark.parametrize("seed", [1, 2])
def test_a_section_spans_a_monomial_multiple_of_its_count(name, seed):
    """The section-count bound of `_scan_exterior`: K_k != 0 forces
    dim K_{k+j} >= C(N+j, N) over QQ and mod p, since a section times the
    monomials of degree j stays independent; two degrees past the window
    are counted as well.  The bounded first pass still finds what a plain
    QQ scan finds."""
    bundle = FIRST_PASS_CASES[name][0](seed)
    N = bundle.N
    bundle_p = tannaka.reduce_bundle_mod_p(bundle, PRIMARY_TEST_PRIME)
    mu = invariants(bundle).mu
    for q in range(1, bundle.rank):
        for b in (bundle, bundle_p):
            pres = exterior_power_matrix(b, q)
            low = -max(pres.source_twists)
            args = (pres.columns, pres.source_module(), pres.target_module())
            dims = [kernel_dim_linalg(*args, k)
                    for k in range(low, floor(-q * mu) + 3)]
            for i, d in enumerate(dims):
                if d:
                    assert all(dims[i + j] >= comb(N + j, N)
                               for j in range(len(dims) - i)), (q, dims)
    report = hoppe_check(bundle, engine="linalg")
    assert scan_fields(report) == reference_scan(
        bundle, [c.q for c in report.per_power])


# ---------------------------------------------------------------------------
# The Koszul counter of syzygy bundles.
# ---------------------------------------------------------------------------

F7 = FieldSpec(7)
RING_F7_3 = make_ring(3, F7)
RING_QQ4 = make_ring(4)

# name -> builder of a syzygy bundle; the monomial ideals are those whose
# cover run stops on the pure powers, where the bracket at rank n - N - 1
# can be loose
KOSZUL_CASES = {
    "p2 qq 5 quadrics": lambda: random_syzygy_bundle(2, (2,) * 5, 1),
    "p2 qq degrees 1,2,2,3,3": lambda: random_syzygy_bundle(
        2, (1, 2, 2, 3, 3), 2),
    "p2 f7 degrees 1,2,2,3": lambda: random_syzygy_bundle(
        2, (1, 2, 2, 3), 3, F7),
    "p2 f7 6 quadrics": lambda: random_syzygy_bundle(2, (2,) * 6, 4, F7),
    "p3 qq degrees 1,2,2,2,3": lambda: random_syzygy_bundle(
        3, (1, 2, 2, 2, 3), 5),
    "p3 f7 5 quadrics": lambda: random_syzygy_bundle(3, (2,) * 5, 6, F7),
    "p2 qq monomial": lambda: syzygy_bundle(["X^2", "Y^2", "Z^2", "X*Y", "X*Z"]),
    "p2 f7 monomial": lambda: syzygy_bundle(
        ["X^4", "Y^4", "Z^4", "X^2*Y^2", "Y^2*Z^2", "X*Y*Z^2"], ring=RING_F7_3),
    "p3 qq monomial": lambda: syzygy_bundle(
        ["X0^3", "X1^3", "X2^3", "X3^3", "X0*X1*X2"], ring=RING_QQ4),
    # mod 32003 this is five_quartics(): HF(S/I, 7), the term q = 2 reads
    # at its window top, is 1 mod 32003 and 0 over QQ
    "p2 qq quartics, 32003 on X^3*Y": lambda: syzygy_bundle(
        ["X^4 - Y^4", "X^4 - Z^4", "X^2*Y^2 + 32003*X^3*Y", "X^2*Z^2", "Y^2*Z^2"]),
}


@pytest.mark.parametrize("name", list(KOSZUL_CASES))
def test_koszul_bracket_holds_against_elimination(name):
    """Seeded differential test: lo <= dim K_k <= hi for the exterior
    presentation of every rank q >= n - N - 1, k from below the window to
    past its top, exact for q >= n - N, and at q = n - N - 1 exact or
    showing a section wherever the Macaulay matrix of the Hilbert-function
    term has no more rows than the source piece has monomials; no counter
    below n - N - 1."""
    bundle = KOSZUL_CASES[name]()
    n, N = bundle.n, bundle.N
    d = [bundle.twists_b[0] - a for a in bundle.twists_a]
    socle = sum(d) - N - 1
    checked = validate(bundle, check_surjectivity=True)
    assert checked.ok
    counter = _koszul_bounds(bundle, checked.span)
    mu = invariants(bundle).mu
    loose = 0
    for q in range(1, bundle.rank):
        bounds = counter(q)
        if q < n - N - 1:
            assert bounds is None, q
            continue
        pres = exterior_power_matrix(bundle, q)
        top = floor(-q * mu) + 2
        dim = pres.kernel_dims("linalg", NO_CAPS, top)
        for k in range(-max(pres.source_twists) - 1, top + 1):
            lo, hi = bounds(k)
            assert lo <= dim(k) <= hi, (q, k, lo, dim(k), hi)
            t = socle - k - q * bundle.twists_b[0]
            rows = sum(comb(t - di + N, N) for di in d if t >= di)
            columns = sum(comb(k - g + N, N)
                          for g in pres.source_module().generator_degrees if k >= g)
            assert lo == hi or (q == n - N - 1 and (lo or rows > columns)), (q, k)
            loose += lo < hi
    assert bool(loose) == ("monomial" in name)


def test_koszul_counter_needs_a_row_without_zeros():
    # an m = 2 presentation, and a zero entry, which splits off a summand
    z = RING_QQ3.zero()
    bundles = [dual_five_monomials(), make_kernel_bundle(
        RING_QQ3, [-1, -1, -1, -1], [1], [[P("X^2"), P("Y^2"), P("Z^2"), z]])]
    for bundle in bundles:
        checked = validate(bundle, check_surjectivity=True)
        assert checked.ok and checked.span is not None
        assert _koszul_bounds(bundle, checked.span) is None


def koszul_report_bundles():
    yield from (build() for build in KOSZUL_CASES.values())
    yield from (five_quadrics(), five_quartics(), monomial_cubes_family(),
                sl3_bundle(), rank6_bundle(),
                syzygy_bundle(["X", "Y", "Z^5"]),
                random_syzygy_bundle(3, (1, 1, 2, 4), 1),
                random_syzygy_bundle(3, (1, 1, 1, 3), 2),
                # a section at the top of q = 1 that only the upper bound
                # sees: the size rule keeps the bracket (0, 1) there
                syzygy_bundle(["X^4", "Y^4", "Z^4", "Y*Z^2"]))


def test_koszul_ranks_match_the_scan_under_every_engine():
    """Every rank the counter decides has the (q, alpha, relation) that
    _scan_exterior finds without the Koszul pass, under each engine the
    report ran; the others were scanned.  The pool reaches all three
    relations through the counter, and a fallback at rank n - N - 1."""
    seen = Counter()
    for bundle in koszul_report_bundles():
        mu = invariants(bundle).mu
        twin = cache(partial(modular_twin, bundle, PRIMARY_TEST_PRIME))
        for engine in ENGINES:
            report = hoppe_check(bundle, engine=engine)
            for c in report.per_power:
                if c.prime != KOSZUL:
                    if c.q >= bundle.n - bundle.N - 1 and c.window_low <= c.window_top:
                        seen["fallback"] += 1
                    continue
                seen[c.relation] += 1
                for e in ("gb", "linalg") if engine == "both" else (engine,):
                    scan, _ = _scan_exterior(bundle, twin, c.q, mu,
                                             "stability_evidence", e, NO_CAPS)
                    assert (scan.q, scan.alpha, scan.relation) == \
                        (c.q, c.alpha, c.relation), (bundle.describe(), e)
            if report.witness is not None:
                assert report.witness.verified
    assert {">", "=", "<", "fallback"} <= set(seen), seen


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("build, q", [(rank6_bundle, 4), (five_quartics, 2),
                                      (five_quadrics, 2)])
def test_boundary_rank_reads_the_exact_hilbert_term(monkeypatch, engine, build, q):
    """Rank n - N - 1 of these bundles is read off the Koszul complex (on
    the first two the leading-term bracket alone leaves it open, and the
    Hilbert-function term is eliminated): its presentation is never built,
    and it agrees with the scan."""
    import kbundle.stability as stability
    bundle = build()
    assert q == bundle.n - bundle.N - 1
    built = []
    real = stability.exterior_power_matrix

    def building(b, rank):
        built.append(rank)
        return real(b, rank)

    monkeypatch.setattr(stability, "exterior_power_matrix", building)
    check, = (c for c in hoppe_check(bundle, engine=engine).per_power if c.q == q)
    assert check.prime == KOSZUL and q not in built, built
    # the same rank without the Koszul pass
    scan, _ = _scan_exterior(bundle, partial(modular_twin, bundle,
                                             PRIMARY_TEST_PRIME), q,
                             invariants(bundle).mu, "stability_evidence",
                             engine, NO_CAPS)
    assert (scan.q, scan.alpha, scan.relation) == (q, check.alpha, check.relation)


def test_exact_hilbert_term_runs_under_the_caps():
    with pytest.raises(ResourceCapError):
        hoppe_check(rank6_bundle(), caps=Caps(timeout_seconds=0))
    # the Macaulay elimination at the window top of wedge^4 checks the
    # deadline itself
    bundle = rank6_bundle()
    checked = validate(bundle, check_surjectivity=True)
    bounds = _koszul_bounds(bundle, checked.span, Caps(timeout_seconds=0).start())(4)
    with pytest.raises(ResourceCapError):
        bounds(0)
