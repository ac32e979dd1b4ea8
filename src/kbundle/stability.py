"""The semistability decision engine.

The driver applies Hoppe's criterion: E is semistable iff for every exterior
rank q below the rank and every integer k strictly below -q*mu(E) the twisted
exterior power (wedge^q E)(k) has no nonzero global section.  Each rank is
one walk (`_scan_exterior`) through first passes that bracket its sections:
on a syzygy bundle, for q >= n - N - 1, the Koszul complex of its generators
(`_koszul_bounds`); then a count on `bundle.modular_twin`.  What they leave
open is read off the kernel presentation of the exterior power degree by
degree, through `PowerPresentation.kernel_dims`: the Groebner engine
(rank-nullity on the leading terms of the image) or the linear-algebra
engine (exact elimination).  A numeric slope gate handles line-bundle
quotients, which covers the top exterior rank.

All slope comparisons are exact rational arithmetic.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
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
    free_module_dims,
    kernel_dim_linalg,
    kernel_sections_linalg,
)
from .powers import ENGINES, exterior_power_matrix
from . import tannaka


class StabilityError(AlgebraError):
    pass


MODES = ("semistability", "stability_evidence")


class PowerCheck(Record):
    """Outcome of one exterior rank q.

    relation "<" means a section strictly below the threshold -q*mu exists
    (witnessed), "=" means the first section sits exactly at the threshold,
    ">" means no section up to window_top (the scanned boundary).  prime
    names the counter that decided the rank: the prime whose elimination
    proved a ">", KOSZUL when the Koszul complex decided it, None when the
    engine did over the bundle's field (or the window is empty).
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


def _window(q: int, mu: Fraction, mode: str) -> tuple:
    """(threshold, top) of exterior rank q: Hoppe's threshold -q*mu and the
    largest twist whose sections the mode reads."""
    threshold = -q * mu
    if mode == "stability_evidence":
        return threshold, floor(threshold)
    return threshold, ceil(threshold) - 1


KOSZUL = "koszul"


def _koszul_bounds(bundle: KernelBundle, span, caps: Caps = NO_CAPS):
    """q -> (k -> (lo, hi)), lo <= h^0((wedge^q E)(k)) <= hi, for a syzygy
    bundle E = Syz(f_1, ..., f_n)(c) on P^N whose bundle test returned the
    _LeadingSpan span; the rank's counter is None for q < n - N - 1.  The
    whole result is None unless the presentation is one row without a zero
    entry and span proved it surjective, i.e. I = (f) m-primary.

    Write d_i = deg f_i, D = sum d_i, S = k[x_0..x_N] and K = K(f; S) for
    the Koszul complex, K_j = (+)_{|A|=j} S(-sum_A d_i).  H^0 is left exact
    on 0 -> wedge^q E -> wedge^q F -> wedge^(q-1) F (c), F = (+) O(c - d_i),
    so h^0((wedge^q E)(k)) = dim Z_q in degree e = k + q*c: the cycles of
    K_q, that is B_q + H_q.  I has depth N + 1, so H_j(f; S) = 0 for
    j > n - N - 1 (depth sensitivity; Eisenbud, Commutative Algebra,
    Thm 17.4).  For q >= n - N - 1 the tail K_n -> ... -> K_(q+1) -> B_q
    is then exact, and dim (B_q)_e is the alternating sum
    sum_{j>q} (-1)^(j-q-1) dim (K_j)_e.  H_q = 0 for q >= n - N.  At
    q = n - N - 1, H_q = Ext^(N+1)(S/I, S)(-D) (Koszul self-duality), and
    graded duality for the Artinian S/I gives dim (H_q)_e =
    HF(S/I, t), t = D - N - 1 - e.  That term is first bracketed over the
    bundle's field: I_t is spanned by the x^a * f_i, so
    HF(S/I, t) >= dim S_t - sum_i dim S_(t - d_i); and
    HF(S/I, t) <= dim S_t - span.size(t) (modgb.is_irrelevant_primary).
    Where the bracket leaves open whether h^0 vanishes (lo = 0 < hi), the
    only question the walk of _scan_exterior asks of it, the term is made
    exact: E's degree-(t - c) piece, x^a e_i -> x^a * f_i, is the Macaulay
    matrix of I_t, so dim I_t = sum_i dim S_(t - d_i) - h^0(E(t - c)), one
    kernel_dim_linalg count over E's field under caps, once per degree per
    call; but only when those columns are no more than the degree-k piece
    of wedge^q F has, sum_{|A|=q} dim S_(e - sum_A d_i), which a scan of
    the rank would eliminate instead.  Otherwise the bracket stands.
    """
    if bundle.m != 1 or span is None or \
            any(f.is_zero() for f in bundle.matrix[0]):
        return None
    N, n, c = bundle.N, bundle.n, bundle.twists_b[0]
    d = [c - a for a in bundle.twists_a]
    # by_size[j][s]: the number of j-subsets A with sum_A d_i = s
    by_size = [Counter({0: 1})] + [Counter() for _ in range(n)]
    for di in d:
        for j in range(n, 0, -1):
            for s, count in by_size[j - 1].items():
                by_size[j][s + di] += count
    forms = free_module_dims({0: 1}, N + 1)         # t -> dim S_t
    products = free_module_dims(Counter(d), N + 1)  # t -> #{x^a * f_i of degree t}
    socle = sum(d) - N - 1
    h0 = cache(lambda t: kernel_dim_linalg(  # t -> h^0(E(t)), built when read
        bundle.columns(), bundle.source_module(), bundle.target_module(), t, caps))

    def counter(q: int):
        if q < n - N - 1:
            return None
        terms = Counter()
        for j in range(q + 1, n + 1):
            for s, count in by_size[j].items():
                terms[s] += (-1) ** (j - q - 1) * count
        boundaries = free_module_dims(terms, N + 1)
        sources = free_module_dims(by_size[q], N + 1)   # e -> dim (wedge^q F)_k

        def bounds(k: int) -> tuple:
            e = k + q * c
            b = boundaries(e)
            if q > n - N - 1:
                return b, b
            t = socle - e
            lo, hi = max(0, forms(t) - products(t)), forms(t) - span.size(t)
            if b == lo == 0 < hi and products(t) <= sources(e):
                lo = hi = forms(t) - products(t) + h0(t - c)
            return b + lo, b + hi

        return bounds

    return counter


def _scan_exterior(bundle: KernelBundle, twin, q: int, mu: Fraction, mode: str,
                   engine: str, caps: Caps, koszul=None) -> tuple:
    """Check exterior rank q: its PowerCheck, and the rank's presentation
    when the engine scanned it (else None).

    The first section alpha is sought in the window [low, top], low =
    -(the largest twist of wedge^q F), first by an ordered list of passes
    k -> (lo, hi), lo <= h^0((wedge^q E)(k)) <= hi: koszul, the rank's
    bracket from _koszul_bounds, when it has one; then, under every engine
    but `gb`, the `linalg` count on the presentation over twin(), the
    bundle mod PRIMARY_TEST_PRIME when it has one, with lo = 0.  That count
    is an upper bound: the degree-k matrix mod p is the one over QQ reduced
    mod p, and rank mod p never exceeds rank over QQ.  The kernel K of a
    graded map of free modules over a domain is torsion-free, so a nonzero
    s in K_(top-j) gives C(N+j, N) independent sections m*s in K_top, one
    per monomial m of degree j.  Hence h^0 does not decrease in k,
    hi(top) = 0 proves ">", and no section lies below top - j when
    C(N+j, N) > hi(top).  So each pass walks down from top to the first k
    where hi(k - 1) = 0, where that bound rules out k - 1, or where the
    previous pass stopped: no section lies below k, and lo(k) > 0 makes k
    alpha.  Otherwise the next pass starts at k; what no pass pins, the
    engine scans upward from there on the rank's presentation over the
    bundle's field.  A pass is built only when the walk reaches it, and
    the mod-p one eliminates each degree once; with hi(top) <= N it reads
    top alone.  The PowerCheck names the pass that decided as its prime:
    None for the engine or an empty window.
    """
    threshold, top = _window(q, mu, mode)
    low = -sum(bundle.twists_a[:q])
    N = bundle.N

    def passes():
        if koszul:
            yield KOSZUL, koszul
        if engine != "gb" and (bundle_p := twin()) is not None:
            dim_p = cache(exterior_power_matrix(bundle_p, q).kernel_dims(
                "linalg", caps, top))
            yield PRIMARY_TEST_PRIME, lambda k: (0, dim_p(k))

    alpha, prime, pres, start = None, None, None, low
    if low <= top:
        for prime, bounds in passes():
            sections = bounds(top)[1]
            if not sections:
                break
            k = top
            while k > start and comb(N + top - k + 1, N) <= sections \
                    and bounds(k - 1)[1]:
                k -= 1
            if bounds(k)[0]:
                alpha = k
                break
            start = k
        else:   # no pass pinned alpha: the engine reads [start, top]
            prime, pres = None, exterior_power_matrix(bundle, q)
            dim = pres.kernel_dims(engine, caps, top)
            alpha = next((k for k in range(start, top + 1) if dim(k)), None)
    relation = ">" if alpha is None else "<" if alpha < threshold else "="
    return PowerCheck(q, alpha, threshold, relation, top, low, prime), pres


def hoppe_check(bundle: KernelBundle, engine: str = "linalg",
                mode: str = "stability_evidence",
                caps: Caps = NO_CAPS) -> StabilityReport:
    """Decide semistability; in stability_evidence mode also gather the
    boundary data that can prove stability.

    The loop runs q = 1 .. rank-2 (with a lone q = 1 for rank <= 3) when the
    slope gate passes, since the gate covers rank-1 quotients and hence the
    top exterior rank; when the gate fails, the loop extends to rank-1 and a
    found section is returned as an explicit verified witness.  Each rank
    is one `_scan_exterior` walk: its first passes, then the engine on the
    rank's presentation, which is built only when no pass decides the rank
    (or for the witness of a "<") and serves both.  `linalg` and `both`
    take the mod PRIMARY_TEST_PRIME pass on the bundle's `modular_twin`,
    reduced once per call, when the first rank reaches it; `gb` has none.
    `both` re-counts with `gb` only the degrees read over the bundle's
    field, the ranks reported with prime None: a mod-p ">" or a Koszul rank
    is already a proof.  Every engine takes the "<" witness from one
    `kernel_sections_linalg` call at alpha (the first vector of the
    canonical kernel basis), so all three report the same witness, and
    `_verify_witness` checks it exactly.

    The verdict holds only for a bundle, so the presentation's shape and
    surjectivity (its maximal minors irrelevant-primary) are checked first,
    under the caps, and BundleError is raised before any exterior
    presentation is built.

    On a syzygy bundle (one row, no zero entry) that test proved the ideal
    I of the entries m-primary.  Every rank q >= n - N - 1 then takes the
    bracket of its Koszul complex (`_koszul_bounds`) as its first pass,
    under every engine.  At q = n - N - 1 the Hilbert-function term is
    bracketed by the bundle test's own leading-term span and, where that
    leaves a section open, read exactly off one `linalg` count of h^0 of E
    when its piece is no larger than the exterior one.  A rank the
    bracket decides names the counter KOSZUL and runs no Buchberger; where
    it leaves alpha open, the next pass starts where it stopped.
    """
    if mode not in MODES:
        raise StabilityError(f"unknown mode {mode!r}")
    if engine not in ENGINES:
        raise StabilityError(f"unknown engine {engine!r}")
    caps = caps.start()
    checked = require_valid(bundle, check_surjectivity=True, caps=caps)
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

    koszul = _koszul_bounds(bundle, checked.span, caps)
    twin = cache(partial(modular_twin, bundle, PRIMARY_TEST_PRIME))
    for q in q_list:
        caps.check_time()   # a rank read off the degrees alone checks none
        check, pres = _scan_exterior(bundle, twin, q, mu, mode, engine, caps,
                                     koszul and koszul(q))
        report.per_power.append(check)
        if check.relation == "<":
            # an empty kernel (gb) or a wrong alpha (a pass) fails the check
            pres = pres or exterior_power_matrix(bundle, q)
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
    mu, a_min = invariants(bundle).mu, bundle.twists_a[-1]
    verdict, detail = {
        "pass_strict": ("stable", f"a_n = {a_min} > mu = {mu}"),
        "pass": ("semistable", f"a_n = {a_min} = mu (semistable, not stable)"),
        "fail": ("unstable", f"a_n = {a_min} < mu = {mu}"),
    }[numeric_slope_gate(bundle)]
    return NumericCriterionResult(verdict, detail)


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
    primary), else it is no bundle and `hoppe_check` raises BundleError
    before any scan, but after the engine, mode and pullback exponent are
    checked.  The caps' timeout bounds the whole call."""
    if via_pullback is not None and via_pullback < 1:
        raise StabilityError(f"pullback exponent must be >= 1, got {via_pullback}")
    return _analyze(bundle, engine, mode, upgrade_selfdual, via_pullback,
                    spec, caps.start())


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
