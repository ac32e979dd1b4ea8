"""The semistability decision engine.

The driver applies Hoppe's criterion: E is semistable iff for every exterior
rank q below the rank and every integer k strictly below -q*mu(E) the twisted
exterior power (wedge^q E)(k) has no nonzero global section.  Sections are
read off the kernel presentations of the exterior powers degree by degree,
through `PowerPresentation.kernel_dims`: the Groebner engine (rank-nullity on
the leading terms of the image) or the linear-algebra engine (exact
elimination), the latter after a first pass on `bundle.modular_twin`; a
numeric slope gate handles line-bundle quotients, which covers the top
exterior rank.

All slope comparisons are exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil, comb, floor
from typing import Optional

from .algebra import AlgebraError, Record, monomial_family_gcd, mono_deg
from .bundle import (
    KernelBundle,
    SyzygyBundleSpec,
    invariants,
    modular_twin,
    pullback_powers,
    require_valid,
    twist,
)
from .modgb import (
    Caps,
    InternalCheckError,
    NO_CAPS,
    PRIMARY_TEST_PRIME,
    ModuleElement,
    apply_columns,
    kernel_sections_linalg,
)
from .powers import exterior_power_matrix
from . import tannaka


class StabilityError(AlgebraError):
    pass


MODES = ("semistability", "stability_evidence")
ENGINES = ("gb", "linalg", "both")


class PowerCheck(Record):
    """Outcome of one exterior rank q.

    relation "<" means a section strictly below the threshold -q*mu exists
    (witnessed), "=" means the first section sits exactly at the threshold,
    ">" means no section up to window_top (the scanned boundary).  prime is
    the prime whose elimination proved a ">" (None when QQ decided).
    """

    __slots__ = ("q", "alpha", "threshold", "relation", "window_top",
                 "window_low", "prime")
    __hash__ = None

    def __init__(self, q: int, alpha: Optional[int], threshold: Fraction,
                 relation: str, window_top: int, window_low: int,
                 prime: Optional[int] = None):
        self.q = q
        self.alpha = alpha
        self.threshold = threshold
        self.relation = relation
        self.window_top = window_top
        self.window_low = window_low
        self.prime = prime


class Witness(Record):
    __slots__ = ("q", "degree", "element", "verified")
    __hash__ = None

    def __init__(self, q: int, degree: int, element: ModuleElement,
                 verified: bool = False):
        self.q = q
        self.degree = degree
        self.element = element
        self.verified = verified


class StabilityReport(Record):
    """verdict is "unstable" or "semistable"; stability means something only
    when semistable; gate is "pass_strict", "pass" or "fail"."""

    __slots__ = ("verdict", "stability", "rank", "mu", "gate", "mode",
                 "engine", "per_power", "witness", "criteria_trace")
    __hash__ = None

    def __init__(self, verdict: str, stability: Optional[str], rank: int,
                 mu: Fraction, gate: str, mode: str, engine: str,
                 per_power: Optional[list] = None,
                 witness: Optional[Witness] = None,
                 criteria_trace: Optional[list] = None):
        self.verdict = verdict
        self.stability = stability
        self.rank = rank
        self.mu = mu
        self.gate = gate
        self.mode = mode
        self.engine = engine
        self.per_power = [] if per_power is None else per_power
        self.witness = witness
        self.criteria_trace = [] if criteria_trace is None else criteria_trace

    @property
    def is_semistable(self) -> bool:
        return self.verdict == "semistable"

    @property
    def is_stable_proven(self) -> bool:
        return self.stability in tannaka.PROVEN


def numeric_slope_gate(bundle: KernelBundle) -> str:
    """Compare the smallest source twist with the slope, exactly.

    a_n > mu rules out all maps to line bundles contradicting stability;
    a_n = mu still rules out those contradicting semistability; a_n < mu is a
    violation only when the presentation dualizes to a minimal resolution.
    """
    mu = invariants(bundle).mu
    a_min = bundle.twists_a[-1]
    if a_min > mu:
        return "pass_strict"
    if a_min == mu:
        return "pass"
    return "fail"


def _verify_witness(pres, element: ModuleElement, degree: int,
                    threshold: Fraction) -> bool:
    if element.is_zero() or not element.is_homogeneous():
        return False
    if element.degree() != degree or not Fraction(degree) < threshold:
        return False
    image = apply_columns(pres.columns, pres.target_module(), element)
    return image.is_zero()


def _scan_exterior(pres, pres_p, q: int, mu: Fraction, mode: str, engine: str,
                   caps: Caps) -> PowerCheck:
    """Check one exterior rank on its presentation pres.

    pres_p, the same presentation mod PRIMARY_TEST_PRIME, gives the `linalg`
    scan its first pass.  It is sound for two reasons.  The degree-k matrix
    of pres_p is that of pres reduced mod p, and rank mod p never exceeds
    rank over QQ, so dim K_p,k >= dim K_k.  The kernel K of a graded map of
    free modules is torsion-free, so a linear form maps K_k injectively into
    K_{k+1}, and K_top = 0 forces K_k = 0 for every k <= top.  Hence
    K_p,top = 0 proves that no section exists up to top, and the first k
    with K_p,k != 0 bounds alpha from below: the QQ scan starts there, and
    alpha and its witness are still found over QQ.

    D = dim K_p,top bounds that first k from below.  K_p is a submodule of a
    free module over F_p[x_0..x_N], a domain, so a nonzero s in K_p,top-j
    gives C(N+j, N) independent sections m*s in K_p,top, one per monomial m
    of degree j: no section lies below top - j when C(N+j, N) > D.  The same
    injection mod p makes dim K_p,k non-decreasing in k.  So the first k is
    found by one walk down from top, which stops at the first degree with no
    section or where the bound rules one out; when D <= N it ends at top
    with no further elimination.
    """
    threshold = -q * mu
    semi_top = ceil(threshold) - 1
    top = floor(threshold) if mode == "stability_evidence" else semi_top
    low = -max(pres.source_twists)
    if low > top:
        return PowerCheck(q, None, threshold, ">", top, low)
    start = low
    if engine == "linalg" and pres_p is not None:
        dim_p = pres_p.kernel_dims(engine, caps, top)
        sections = dim_p(top)
        if not sections:
            return PowerCheck(q, None, threshold, ">", top, low,
                              PRIMARY_TEST_PRIME)
        N = pres.ring.nvars - 1
        start = top
        while start > low and comb(N + top - start + 1, N) <= sections \
                and dim_p(start - 1):
            start -= 1
    dim = pres.kernel_dims(engine, caps, top)
    alpha = next((k for k in range(start, top + 1) if dim(k)), None)
    if alpha is None:
        return PowerCheck(q, None, threshold, ">", top, low)
    relation = "<" if alpha < threshold else "="
    return PowerCheck(q, alpha, threshold, relation, top, low)


def _check_choices(engine: str, mode: str):
    if mode not in MODES:
        raise StabilityError(f"unknown mode {mode!r}")
    if engine not in ENGINES:
        raise StabilityError(f"unknown engine {engine!r}")


def hoppe_check(bundle: KernelBundle, engine: str = "linalg",
                mode: str = "stability_evidence",
                caps: Caps = NO_CAPS) -> StabilityReport:
    """Decide semistability; in stability_evidence mode also gather the
    boundary data that can prove stability.

    The loop runs q = 1 .. rank-2 (with a lone q = 1 for rank <= 3) when the
    slope gate passes, since the gate covers rank-1 quotients and hence the
    top exterior rank; when the gate fails, the loop extends to rank-1 and a
    found section is returned as an explicit verified witness.  Each
    exterior presentation is built once and serves every engine and the
    witness check.  The `linalg` engine takes its first pass on the bundle's
    `modular_twin` mod PRIMARY_TEST_PRIME (see `_scan_exterior`); `gb` has
    none.  Every engine takes the "<" witness from one
    `kernel_sections_linalg` call at alpha (the first vector of the
    canonical kernel basis), so all three report the same witness, and
    `_verify_witness` checks it exactly.
    """
    _check_choices(engine, mode)
    require_valid(bundle)
    caps = caps.start()
    inv = invariants(bundle)
    mu = inv.mu
    r = inv.rank
    gate = numeric_slope_gate(bundle)
    trace = [f"slope gate: a_n = {bundle.twists_a[-1]} vs mu = {mu} -> {gate}"]
    if gate == "fail":
        q_list = list(range(1, r))
        trace.append(
            "gate failed: scanning every exterior rank (including rank-1) "
            "for an explicit destabilizing section; the no-constant-entries "
            "contract stands in for minimality of the dual resolution")
    else:
        q_list = list(range(1, max(1, r - 2) + 1))
        if r >= 3:
            trace.append(
                f"q = {r - 1} is covered by the slope gate (maps to line "
                "bundles cannot destabilize)")
    if r == 2:
        q_list = [1]
        trace.append("rank 2: sections of E itself decide both semistability "
                     "and stability")
    elif r == 3 and gate != "fail":
        trace.append("rank 3: sections of E plus the slope gate decide "
                     "semistability")

    report = StabilityReport(verdict="semistable", stability=None, rank=r,
                             mu=mu, gate=gate, mode=mode, engine=engine,
                             criteria_trace=trace)

    bundle_p = None if engine == "gb" else modular_twin(bundle, PRIMARY_TEST_PRIME)
    engines = ("gb", "linalg") if engine == "both" else (engine,)
    for q in q_list:
        pres = exterior_power_matrix(bundle, q)
        pres_p = None if bundle_p is None else exterior_power_matrix(bundle_p, q)
        scans = [_scan_exterior(pres, pres_p, q, mu, mode, e, caps)
                 for e in engines]
        first, check = scans[0], scans[-1]
        if (first.alpha, first.relation) != (check.alpha, check.relation):
            raise InternalCheckError(
                f"engine mismatch at q={q}: gb found ({first.alpha}, "
                f"{first.relation}), linalg found ({check.alpha}, "
                f"{check.relation})")
        report.per_power.append(check)
        if check.relation == "<":
            # under gb an empty kernel here is an engine disagreement, which
            # the verification below reports
            source = pres.source_module()
            _, vectors = kernel_sections_linalg(
                pres.columns, source, pres.target_module(), check.alpha, caps)
            element = vectors[0] if vectors else ModuleElement(source, {})
            witness = Witness(q, check.alpha, element)
            witness.verified = _verify_witness(pres, element, check.alpha,
                                               check.threshold)
            if not witness.verified:
                raise InternalCheckError(
                    f"witness at q={q}, degree {check.alpha} failed verification")
            report.verdict = "unstable"
            report.stability = None
            report.witness = witness
            trace.append(
                f"q = {q}: section of (wedge^{q} E)({check.alpha}) with "
                f"{check.alpha} < {check.threshold}; unstable")
            return report

    if gate == "fail":
        trace.append(
            "gate failed but no exterior-power section violates the "
            "thresholds: the dualized presentation is not minimal; the "
            "exhaustive exterior checks prove semistability")

    # stability grading
    if mode == "semistability":
        report.stability = "undetermined"
        trace.append("stability not assessed in semistability mode")
        return report

    equalities = [c.q for c in report.per_power if c.relation == "="]
    if r == 2:
        if equalities:
            report.stability = "not_stable"
            trace.append("rank 2: a section at the boundary degree shows the "
                         "bundle is strictly semistable")
        else:
            report.stability = "proven_stable"
            trace.append("rank 2: no sections at or below -mu; stable")
        return report

    if not equalities and gate == "pass_strict":
        report.stability = "proven_stable"
        trace.append("all exterior ranks strict and slope gate strict: stable")
    else:
        report.stability = "undetermined"
        if equalities:
            trace.append(
                f"sections at the boundary for q in {equalities}: stability "
                "undetermined (the boundary criterion is sufficient only)")
        if gate != "pass_strict":
            trace.append("slope gate not strict: stability undetermined")
    return report


# ---------------------------------------------------------------------------
# Combinatorial and numerical criteria.
# ---------------------------------------------------------------------------

class BrennerResult(Record):
    """verdict is "stable", "semistable" or "inconclusive"; bound the
    right-hand side -sum(d_i)/(n-1); violations the (indices, d_J, lhs) with
    lhs > bound."""

    __slots__ = ("verdict", "bound", "violations", "has_equality")
    __hash__ = None

    def __init__(self, verdict: str, bound: Fraction, violations: list,
                 has_equality: bool):
        self.verdict = verdict
        self.bound = bound
        self.violations = violations
        self.has_equality = has_equality


BRENNER_GENERATOR_CAP = 25   # the subset enumeration is exponential


def brenner_monomial(spec: SyzygyBundleSpec, caps: Caps = NO_CAPS) -> BrennerResult:
    """Subset criterion for monomial families.

    For every subset J of at least two generators compare
    (deg gcd(J) - sum_J d_i) / (|J| - 1) with -sum_I d_i / (n - 1): all below
    gives semistable, strictly below gives stable, any excess is inconclusive
    (the criterion is sufficient only).  The family must be irrelevant-primary,
    which for monomials means that none is constant and every variable has a
    pure power among them.
    """
    caps = caps.start()
    gens = spec.generators
    n = len(gens)
    if n > BRENNER_GENERATOR_CAP:
        raise StabilityError(f"{n} generators exceed the subset enumeration "
                             f"cap {BRENNER_GENERATOR_CAP}")
    for g in gens:
        if not g.is_monomial():
            raise StabilityError("the monomial criterion needs monomial generators")
    supports = [[k for k, e in enumerate(mono) if e] for g in gens for mono in g.terms]
    powers = {s[0] for s in supports if len(s) == 1}
    if not all(supports) or len(powers) < spec.ring.nvars:
        raise StabilityError("the monomial family must be irrelevant-primary")
    degrees = spec.degrees
    bound = Fraction(-sum(degrees), n - 1)
    violations = []
    has_equality = False
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            caps.check_time()
            d_j = mono_deg(monomial_family_gcd([gens[i] for i in subset]))
            lhs = Fraction(d_j - sum(degrees[i] for i in subset), size - 1)
            if lhs > bound:
                violations.append((subset, d_j, lhs))
            elif lhs == bound and size < n:
                # the full subset always lands exactly on the bound (a primary
                # family has trivial gcd) and corresponds to the bundle itself,
                # not a proper subsheaf, so it never obstructs strictness
                has_equality = True
    if violations:
        verdict = "inconclusive"
    elif has_equality:
        verdict = "semistable"
    else:
        verdict = "stable"
    return BrennerResult(verdict, bound, violations, has_equality)


class NumericCriterionResult(Record):
    __slots__ = ("verdict", "detail")
    __hash__ = None

    def __init__(self, verdict: str, detail: str):
        self.verdict = verdict
        self.detail = detail


def bohnhorst_spindler(bundle: KernelBundle) -> NumericCriterionResult:
    """Twist criterion for rank-N bundles on P^N in characteristic 0.

    Applicable when b_j > a_j for j = 1..m with both lists sorted; then the
    bundle is semistable (stable) iff a_n >= (>) mu, and unstable otherwise.
    """
    if bundle.ring.field.char != 0:
        return NumericCriterionResult(
            "not_applicable", "requires characteristic 0")
    if bundle.rank != bundle.N:
        return NumericCriterionResult(
            "not_applicable",
            f"rank {bundle.rank} differs from the dimension {bundle.N}")
    for j in range(bundle.m):
        if not bundle.twists_b[j] > bundle.twists_a[j]:
            return NumericCriterionResult(
                "not_applicable",
                f"interlacing fails: b_{j + 1} = {bundle.twists_b[j]} is not "
                f"greater than a_{j + 1} = {bundle.twists_a[j]}")
    mu = invariants(bundle).mu
    a_min = bundle.twists_a[-1]
    if a_min > mu:
        return NumericCriterionResult("stable", f"a_n = {a_min} > mu = {mu}")
    if a_min == mu:
        return NumericCriterionResult(
            "semistable", f"a_n = {a_min} = mu (semistable, not stable)")
    return NumericCriterionResult("unstable", f"a_n = {a_min} < mu = {mu}")


def parameter_criterion(N: int, degrees) -> NumericCriterionResult:
    """Degree test for syzygy bundles of N+1 homogeneous parameters on P^N:
    sum of the N smallest degrees at least (N-1) times the largest gives
    semistable, strictly larger gives stable.
    """
    degrees = sorted(degrees)
    if len(degrees) != N + 1:
        raise StabilityError(
            f"need exactly N+1 = {N + 1} degrees, got {len(degrees)}")
    lhs = sum(degrees[:-1])
    rhs = (N - 1) * degrees[-1]
    if lhs > rhs:
        return NumericCriterionResult("stable", f"{lhs} > {rhs}")
    if lhs == rhs:
        return NumericCriterionResult("semistable", f"{lhs} = {rhs}")
    return NumericCriterionResult("inconclusive", f"{lhs} < {rhs}")


# ---------------------------------------------------------------------------
# Self-duality upgrade and the orchestrating driver.
# ---------------------------------------------------------------------------

def selfdual_upgrade(bundle: KernelBundle, report: StabilityReport,
                     caps: Caps = NO_CAPS) -> StabilityReport:
    """Upgrade a semistable-undetermined verdict to stable via self-duality.

    For a degree-0 normalized bundle of rank 4 or 6: if the only boundary
    sections sit at exterior ranks 2 and rank-2, the bundle carries a
    certified nondegenerate pairing (so it is isomorphic to its dual), and
    h^0(E (x) E) = 1 (simple), then a slope-0 stable subsheaf could only have
    rank 2, would be self-dual itself, and would induce a non-scalar
    endomorphism; hence none exists and the bundle is stable.
    """
    trace = list(report.criteria_trace)

    def unchanged(reason):
        trace.append(f"self-duality upgrade not applied: {reason}")
        return report.replace(criteria_trace=trace)

    if report.verdict != "semistable" or report.stability != "undetermined":
        return unchanged("only semistable bundles with undetermined stability "
                         "are eligible")
    if report.mode != "stability_evidence":
        return unchanged("boundary data requires stability_evidence mode")
    if bundle.ring.field.char != 0:
        return unchanged("requires characteristic 0")
    r = report.rank
    if r not in (4, 6):
        return unchanged(f"rank {r} is outside the decided cases (4 and 6)")
    mu = report.mu
    if mu.denominator != 1:
        return unchanged(f"slope {mu} admits no degree-0 normalizing twist")
    if report.gate != "pass_strict":
        return unchanged("the slope gate is not strict, so a corank-1 "
                         "boundary subsheaf is not excluded")
    allowed = {2, r - 2}
    equalities = {c.q for c in report.per_power if c.relation == "="}
    if not equalities <= allowed:
        return unchanged(
            f"boundary sections at q = {sorted(equalities - allowed)} are not "
            "of the self-dual pairing type")
    bundle0 = twist(bundle, -int(mu))
    ok, h0 = tannaka.selfdual_certify(bundle0, caps)
    if h0 != 1:
        return unchanged(f"h0(E0 (x) E0) = {h0} != 1: not simple")
    if not ok:
        return unchanged("the section of E0 (x) E0 is a degenerate pairing")
    trace.append(
        "self-duality upgrade: certified nondegenerate pairing (E0 = E0*), "
        "h0(E0 (x) E0) = 1, boundary sections only at q in "
        f"{sorted(equalities)}; stable")
    return report.replace(stability="proven_via_selfduality",
                          criteria_trace=trace)


class Analysis(Record):
    __slots__ = ("bundle", "report", "criteria", "pullback")
    __hash__ = None

    def __init__(self, bundle: KernelBundle, report: StabilityReport,
                 criteria: Optional[dict] = None,
                 pullback: Optional[Analysis] = None):
        self.bundle = bundle
        self.report = report
        self.criteria = {} if criteria is None else criteria
        self.pullback = pullback


def _check_criteria_consistency(report: StabilityReport, criteria: dict):
    """A criterion contradicting the exterior-power verdict on a bundle is
    a bug: InternalCheckError."""
    for name, res in criteria.items():
        verdict = res.verdict
        if verdict in ("stable", "semistable") and report.verdict == "unstable":
            problem = (f"{name} says {verdict} but the exterior-power driver "
                       "says unstable")
        elif verdict == "unstable" and report.verdict == "semistable":
            problem = (f"{name} says unstable but the exterior-power driver "
                       "says semistable")
        elif verdict == "stable" and report.stability == "not_stable":
            problem = (f"{name} says stable but the driver proved strict "
                       "semistability")
        else:
            continue
        raise InternalCheckError(problem)


def _criteria(bundle: KernelBundle, spec: Optional[SyzygyBundleSpec],
              caps: Caps) -> dict:
    """The auxiliary criteria that apply."""
    criteria = {}
    bs = bohnhorst_spindler(bundle)
    if bs.verdict != "not_applicable":
        criteria["bohnhorst_spindler"] = bs
    if spec is None:
        return criteria
    if all(g.is_monomial() for g in spec.generators):
        try:
            criteria["brenner_monomial"] = brenner_monomial(spec, caps)
        except StabilityError:
            pass
    if len(spec.generators) == bundle.N + 1:
        criteria["parameter_criterion"] = parameter_criterion(
            bundle.N, spec.degrees)
    return criteria


def analyze_bundle(bundle: KernelBundle, *, engine: str = "linalg",
                   mode: str = "stability_evidence",
                   upgrade_selfdual: bool = True,
                   via_pullback: Optional[int] = None,
                   spec: Optional[SyzygyBundleSpec] = None,
                   caps: Caps = NO_CAPS) -> Analysis:
    """Full driver: slope gate + exterior loop, auxiliary criteria, the
    self-duality upgrade, and stability descent along coordinate-power
    pullbacks (stability of the pullback implies stability downstairs).

    The presentation must be surjective (its maximal minors irrelevant-
    primary), else it is no bundle and BundleError is raised before any
    scan, but after the engine, mode and pullback exponent are checked.
    The caps' timeout bounds the whole call."""
    _check_choices(engine, mode)
    if via_pullback is not None and via_pullback < 1:
        raise StabilityError(f"pullback exponent must be >= 1, got {via_pullback}")
    caps = caps.start()
    require_valid(bundle, check_surjectivity=True, caps=caps)
    return _analyze(bundle, engine, mode, upgrade_selfdual, via_pullback,
                    spec, caps)


def _analyze(bundle: KernelBundle, engine: str, mode: str,
             upgrade_selfdual: bool, via_pullback: Optional[int],
             spec: Optional[SyzygyBundleSpec], caps: Caps) -> Analysis:
    report = hoppe_check(bundle, engine, mode, caps)
    criteria = _criteria(bundle, spec, caps)
    analysis = Analysis(bundle=bundle, report=report, criteria=criteria)
    _check_criteria_consistency(report, criteria)
    for name, res in criteria.items():
        report.criteria_trace.append(f"{name}: {res.verdict}")
    if report.is_semistable and report.stability == "undetermined" and \
            any(res.verdict == "stable" for res in criteria.values()):
        report.stability = "proven_stable"
        report.criteria_trace.append("stability from an auxiliary criterion")

    if upgrade_selfdual and report.is_semistable \
            and report.stability == "undetermined":
        analysis.report = report = selfdual_upgrade(bundle, report, caps)

    if via_pullback and report.is_semistable \
            and report.stability == "undetermined":
        # the pullback along a finite surjective map of a bundle is a bundle
        pb = _analyze(pullback_powers(bundle, via_pullback), engine, mode,
                      upgrade_selfdual, None, None, caps)
        analysis.pullback = pb
        if pb.report.is_stable_proven:
            report.stability = pb.report.stability
            report.criteria_trace.append(
                f"stability descends from the coordinate-power pullback "
                f"(k = {via_pullback}): a destabilizing subsheaf would pull "
                f"back to one upstairs ({pb.report.stability})")
        elif pb.report.is_semistable:
            report.criteria_trace.append(
                f"pullback (k = {via_pullback}) is semistable but its "
                "stability is also undetermined")
        elif (char := bundle.ring.field.char) == 0 or via_pullback % char:
            # x_i -> x_i^k is separable unless p divides k, and pulling back
            # along a finite separable map keeps semistability
            # (Huybrechts-Lehn, Lemma 3.2.2)
            raise InternalCheckError(
                f"the pullback (k = {via_pullback}) of a semistable bundle "
                f"is unstable over {bundle.ring.field}")
        else:
            # x_i -> x_i^k is inseparable when p divides k
            report.criteria_trace.append(
                f"pullback (k = {via_pullback}) is unstable; this gives no "
                "information downstairs")
    return analysis
