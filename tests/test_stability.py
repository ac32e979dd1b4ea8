import random
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from math import comb, floor
from types import SimpleNamespace

import pytest

from kbundle.algebra import FieldSpec, Poly, make_ring, monomials_of_degree, parse_many
from kbundle.bundle import (
    BundleError,
    SyzygyBundleSpec,
    invariants,
    make_kernel_bundle,
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
    InternalCheckError,
    NumericCriterionResult,
    StabilityError,
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
    double_rank2_bundle,
    dual_five_monomials,
    five_quadrics,
    five_quadrics_spec,
    five_quartics,
    monomial_cubes_family,
    monomial_cubes_spec,
    rank2_degree0_bundle,
    random_kernel_bundle,
    random_primary_monomial_spec,
    rank6_bundle,
    sl3_bundle,
    sl3_spec,
    syzygy_bundle,
    syzygy_spec,
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
    # a gb engine that never finds a section disagrees with linalg at q = 2
    monkeypatch.setattr(powers, "kernel_dims_gb", lambda *args: lambda k: 0)
    with pytest.raises(InternalCheckError, match="engine mismatch at q=2"):
        hoppe_check(dual_five_monomials(), engine="both")


def test_gb_section_without_linalg_witness_raises(monkeypatch):
    import kbundle.powers as powers
    # a gb engine that counts a section in every degree claims q = 1 at the
    # lowest degree, where linalg finds no vector to witness it
    monkeypatch.setattr(powers, "kernel_dims_gb", lambda *args: lambda k: 1)
    with pytest.raises(InternalCheckError,
                       match="witness at q=1, degree -1 failed verification"):
        hoppe_check(syzygy_bundle(["X^2", "Y^2", "Z^2"], twist=3), engine="gb")


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
    bindings of powers), the witness through stability's binding."""
    import kbundle.powers as powers
    import kbundle.stability as stability
    calls = Counter()
    for name in names:
        module = stability if name == "kernel_sections_linalg" else powers
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_non_bundle_is_rejected_before_the_scan(monkeypatch):
    calls = count_calls(monkeypatch, ("kernel_dim_linalg", "kernel_dims_gb",
                                      "kernel_sections_linalg"))
    spec = syzygy_spec(["X^2", "X*Y", "Y^2"])     # common zero (0:0:1)
    for engine in ENGINES:
        with pytest.raises(BundleError, match="not-surjective"):
            analyze_bundle(from_syzygy(spec), engine=engine, spec=spec)
    assert calls == Counter()


def test_witness_comes_from_the_kept_engine(monkeypatch):
    # every engine builds the "<" rank's witness with one
    # kernel_sections_linalg call, so all three report the same one
    calls = count_calls(monkeypatch, ("kernel_dims_gb", "kernel_sections_linalg"))
    witnesses = {}
    for engine in ENGINES:
        calls.clear()
        report = hoppe_check(monomial_cubes_family(), engine=engine)
        assert report.witness.verified and report.witness.q == 2
        witnesses[engine] = str(report.witness.element)
        assert calls == {
            "gb": Counter(kernel_dims_gb=2, kernel_sections_linalg=1),
            "linalg": Counter(kernel_sections_linalg=1),
            "both": Counter(kernel_dims_gb=2, kernel_sections_linalg=1),
        }[engine]
    assert witnesses["gb"] == witnesses["linalg"] == witnesses["both"]


def test_every_engine_reports_one_witness():
    """Seeded differential test: monomial syzygy bundles on P^2 and
    surjective random presentations get the same verdict, per-rank outcome
    and witness string under gb, linalg and both.  The deciding prime is
    left out, since only linalg's first pass runs mod p."""
    rng = random.Random(2)
    bundles = [from_syzygy(random_primary_monomial_spec(rng)) for _ in range(17)]
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
    """Generic Syz of 4 cubics on P^3: the gb scan stops at the window top,
    so ten S-pairs decide it, as linalg does.  The full syzygy module takes
    hundreds of pairs."""
    ring = make_ring(4)
    rng = random.Random(7)
    gens = [Poly(ring, {m: ring.field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
                        for m in monomials_of_degree(4, 3)})
            for _ in range(4)]
    bundle = from_syzygy(SyzygyBundleSpec(ring, gens, 0))
    gb = hoppe_check(bundle, engine="gb", caps=Caps(max_pairs=10))
    la = hoppe_check(bundle, engine="linalg")
    assert (gb.verdict, gb.stability) == (la.verdict, la.stability)
    assert ([(c.q, c.alpha, c.relation) for c in gb.per_power]
            == [(c.q, c.alpha, c.relation) for c in la.per_power])


def test_brenner_stable_family():
    res = brenner_monomial(sl3_spec())
    assert res.verdict == "stable"
    assert not res.violations


def test_brenner_inconclusive_with_violation_details():
    res = brenner_monomial(monomial_cubes_spec())
    assert res.verdict == "inconclusive"
    assert res.bound == Fraction(-14, 3)
    viols = {(v[0], v[2]) for v in res.violations}
    assert ((0, 1, 2), Fraction(-9, 2)) in viols


def test_brenner_coordinate_family_stable():
    res = brenner_monomial(syzygy_spec(["X", "Y", "Z"]))
    assert res.verdict == "stable"


def test_brenner_rejects_non_monomial():
    with pytest.raises(StabilityError):
        brenner_monomial(five_quadrics_spec())


def test_brenner_rejects_non_primary():
    with pytest.raises(StabilityError):
        brenner_monomial(syzygy_spec(["X^2", "X*Y", "X*Z"]))


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
            try:
                brenner_monomial(SyzygyBundleSpec(ring, gens))
                primary = True
            except StabilityError as exc:
                assert "irrelevant-primary" in str(exc)
                primary = False
            assert primary == is_irrelevant_primary(list(gens))
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
    analysis = analyze_bundle(five_quadrics(), via_pullback=2,
                              spec=five_quadrics_spec())
    assert analysis.report.verdict == "semistable"
    assert analysis.report.stability == "proven_via_selfduality"
    assert analysis.pullback is not None
    assert analysis.pullback.bundle == five_quartics()
    assert analysis.pullback.report.stability == "proven_via_selfduality"


def test_analysis_runs_auxiliary_criteria():
    analysis = analyze_bundle(rank2_degree0_bundle(),
                              spec=syzygy_spec(["X^2", "Y^2", "Z^2"], twist=3))
    assert analysis.criteria["bohnhorst_spindler"].verdict == "stable"
    assert analysis.criteria["parameter_criterion"].verdict == "stable"
    assert analysis.report.stability == "proven_stable"


def test_criteria_skip_brenner_past_its_generator_cap(monkeypatch):
    import kbundle.stability as stability
    spec = sl3_spec()
    bundle = from_syzygy(spec)
    analysis = analyze_bundle(bundle, spec=spec, upgrade_selfdual=False)
    assert list(analysis.criteria) == ["brenner_monomial"]
    # four generators past a cap of three: brenner_monomial refuses them
    monkeypatch.setattr(stability, "BRENNER_GENERATOR_CAP", 3)
    analysis = analyze_bundle(bundle, spec=spec, upgrade_selfdual=False)
    assert analysis.criteria == {}
    assert analysis.report.is_semistable


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
        spec = random_primary_monomial_spec(rng)
        bundle = from_syzygy(spec)
        # raises InternalCheckError if any criterion contradicts the driver
        analyze_bundle(bundle, spec=spec, upgrade_selfdual=False)


def test_mod_p_run_allowed():
    from kbundle.algebra import FieldSpec, make_ring, parse_many
    from kbundle.bundle import SyzygyBundleSpec
    ring5 = make_ring(3, FieldSpec(5))
    gens = parse_many(["X^2", "Y^2", "Z^2"], ring5)
    bundle = from_syzygy(SyzygyBundleSpec(ring5, gens, 3))
    report = hoppe_check(bundle, engine="both")
    assert report.verdict == "semistable"
    assert report.stability == "proven_stable"


def test_reused_caps_apply_per_call():
    # the second call starts after the first call's budget has run out
    caps = Caps(timeout_seconds=0.5)
    spec = syzygy_spec(["X^2", "Y^2", "Z^2"], twist=3)
    for _ in range(2):
        analysis = analyze_bundle(rank2_degree0_bundle(), spec=spec, caps=caps)
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
    analyze_bundle(five_quadrics(), via_pullback=2, spec=five_quadrics_spec(),
                   caps=caps)
    # the bundle and its pullback are scanned under one armed copy
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0]._deadline is not None and caps._deadline is None


# ---------------------------------------------------------------------------
# The mod-p first pass of the linalg scan.
# ---------------------------------------------------------------------------

def random_form(ring, degree, rng):
    return Poly(ring, {m: ring.field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
                       for m in monomials_of_degree(ring.nvars, degree)})


def random_syzygy_bundle(N, degrees, seed):
    ring = make_ring(N + 1)
    rng = random.Random(seed)
    gens = tuple(random_form(ring, d, rng) for d in degrees)
    return from_syzygy(SyzygyBundleSpec(ring, gens, 0))


def random_m2_kernel_bundle(N, twists_a, twists_b, seed):
    ring = make_ring(N + 1)
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


def scan_fields(report):
    return [(c.q, c.alpha, c.relation, c.window_low, c.window_top)
            for c in report.per_power]


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


@pytest.mark.parametrize("name", list(FIRST_PASS_CASES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_linalg_first_pass_matches_plain_qq_scan_and_gb(name, seed):
    build, relations = FIRST_PASS_CASES[name]
    bundle = build(seed)
    la = hoppe_check(bundle, engine="linalg")
    gb = hoppe_check(bundle, engine="gb")
    assert [c.relation for c in la.per_power] == relations
    assert scan_fields(la) == reference_scan(bundle, [c.q for c in la.per_power])
    assert scan_fields(la) == scan_fields(gb)
    assert (la.verdict, la.stability) == (gb.verdict, gb.stability)
    assert [c.prime for c in gb.per_power] == [None] * len(gb.per_power)
    # on these generic bundles the prime sees what QQ sees
    assert [c.prime for c in la.per_power] == [
        PRIMARY_TEST_PRIME if c.relation == ">" else None for c in la.per_power]
    if la.verdict == "unstable":
        assert la.witness.verified and la.witness.degree == gb.witness.degree


def test_prime_dividing_a_coefficient_does_not_decide():
    # mod 32003 the third generator vanishes and sections appear in the
    # window; QQ has none, so QQ decides ">"
    base = hoppe_check(syzygy_bundle(["X", "Y", "Z"]), engine="linalg")
    report = hoppe_check(syzygy_bundle(["X", "Y", "32003*Z"]), engine="linalg")
    assert (report.verdict, report.stability) == (base.verdict, base.stability)
    assert scan_fields(report) == scan_fields(base)
    assert [c.prime for c in base.per_power] == [PRIMARY_TEST_PRIME]
    assert [c.prime for c in report.per_power] == [None]


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
    base = hoppe_check(syzygy_bundle(["X", "Y", "Z"]), engine="linalg")
    calls.clear()
    report = hoppe_check(syzygy_bundle(["X", "Y", "1/32003*Z"]), engine="linalg")
    assert scan_fields(report) == scan_fields(base)
    assert [c.prime for c in report.per_power] == [None]
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
    ring7 = make_ring(3, FieldSpec(7))
    bundle = from_syzygy(SyzygyBundleSpec(
        ring7, parse_many(["X^2", "Y^2", "Z^2"], ring7), 3))
    for engine in ("linalg", "both"):
        report = hoppe_check(bundle, engine=engine)
        assert report.stability == "proven_stable"
        assert [c.prime for c in report.per_power] == [None]
    assert set(calls) == {7}


def test_stable_generic_bundle_runs_no_qq_elimination(monkeypatch):
    calls = count_linalg_calls_by_characteristic(monkeypatch)
    report = hoppe_check(random_syzygy_bundle(2, (3, 3, 3, 3), 5),
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
    from kbundle.powers import PowerPresentation

    def refuse(*args):
        raise AssertionError("eliminated an empty window")

    monkeypatch.setattr(PowerPresentation, "kernel_dims", refuse)
    # wedge^1 of the five quadrics starts at degree 2; a slope of 0 puts
    # the window's top at 0
    pres = exterior_power_matrix(five_quadrics(), 1)
    check = _scan_exterior(pres, pres, 1, Fraction(0), "stability_evidence",
                           "linalg", NO_CAPS)
    assert (check.alpha, check.relation, check.window_low, check.window_top,
            check.prime) == (None, ">", 2, 0, None)


def test_first_mod_p_section_is_searched_from_the_top(monkeypatch):
    """The rank-6 check probes the mod-p kernel at top only: with fewer
    than N + 1 = 3 sections there, the section-count bound puts every
    section at top, and the QQ scan starts there."""
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
                      (p, 0),                       # wedge^3
                      (p, 0), (0, 0)]               # wedge^4


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

                def kernel_dims(char, engine, caps, top_):
                    def dim(k):
                        probes.append((char, k))
                        if k < first:
                            return 0
                        return comb(N + k - first, N) if tight else 10 ** 6
                    return dim

                pres, pres_p = (SimpleNamespace(
                    kernel_dims=partial(kernel_dims, char), source_twists=(-low,),
                    ring=SimpleNamespace(nvars=N + 1)) for char in (0, p))
                check = _scan_exterior(pres, pres_p, 1, Fraction(-top),
                                       "stability_evidence", "linalg", NO_CAPS)
                assert check.alpha == first
                stop = first if tight else max(first - 1, low)
                assert probes == [(p, k) for k in range(top, stop - 1, -1)] \
                    + [(0, first)], (N, first, tight)


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
