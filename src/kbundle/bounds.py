"""Effective restriction-degree bounds and tight/solid-closure thresholds.

Restriction bounds return the smallest hypersurface degree k at which the
cited theorem guarantees the restricted bundle keeps its (semi)stability;
closure thresholds turn semistability of a syzygy bundle into the degree
bound sum(d_i)/(n-1) past which every form lies in the ideal closure, with
Frobenius-power membership tests below the bound.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb
from typing import Optional

from .algebra import AlgebraError, Poly, Record, substitute_powers
from .modgb import Caps, NO_CAPS, ideal_groebner, ideal_membership, is_irrelevant_primary


class BoundsError(AlgebraError):
    pass


THEOREMS = ("flenner", "langer", "langer_strong")
CERTIFICATES = ("semistable", "stable")


class RestrictionBound(Record):
    __slots__ = ("theorem", "N", "rank", "delta", "c", "k_min", "conclusion")

    def __init__(self, theorem: str, N: int, rank: int, delta: Fraction,
                 c: int, k_min: int, conclusion: str):
        self.theorem = theorem
        self.N = N
        self.rank = rank
        self.delta = delta
        self.c = c
        self.k_min = k_min
        self.conclusion = conclusion

    def predicate(self, k: int) -> bool:
        return _restriction_predicate(self.theorem, self.N, self.rank,
                                      self.delta, self.c, k)


def _restriction_predicate(theorem: str, N: int, rank: int, delta, c: int,
                           k: int) -> bool:
    if k < 1:
        return False
    if theorem == "flenner":
        lhs = Fraction(comb(k + N, N) - c * k - 1, k)
        return lhs > max(Fraction(rank * rank - 1, 4), Fraction(1))
    if theorem == "langer":
        return Fraction(k) > Fraction(rank - 1, rank) * delta + \
            Fraction(1, rank * (rank - 1))
    if theorem == "langer_strong":
        first = Fraction(k) > Fraction(1, 2) * max(
            Fraction(delta), Fraction(N ** 5 - 2 * N ** 3 + 2 * N + 1))
        second = Fraction(comb(k + N, N) - 1, k) > \
            max(Fraction(rank * rank - 1, 4), Fraction(1)) + 1
        return first and second
    raise BoundsError(f"unknown restriction theorem {theorem!r}")


_CONCLUSIONS = {
    "flenner": ("restriction to a general complete intersection of {c} "
                "hypersurfaces of degree k >= {k} stays semistable "
                "(characteristic 0)"),
    "langer": ("restriction to any smooth divisor of degree k >= {k} with "
               "torsion-free restriction stays stable"),
    "langer_strong": ("restriction to the general hypersurface of degree "
                      "k >= {k} is strongly semistable (positive "
                      "characteristic)"),
}


def restriction_bound(theorem: str, N: int, rank: int, delta, c: int = 1, *,
                      field_char: int = 0,
                      certificate: Optional[str] = None) -> RestrictionBound:
    """Smallest degree satisfying the chosen theorem's inequality.

    Hypotheses are enforced: flenner needs characteristic 0 and a semistable
    input with 1 <= c <= N-1; langer needs a stable input of rank >= 2;
    langer_strong needs positive characteristic and a semistable input.

    Each inequality is monotone in k: once it holds it holds for every
    larger k.  langer, and the first inequality of langer_strong, compare k
    with a constant.  C(k+N, N) = (k+1)...(k+N)/N! is a polynomial in k with
    nonnegative coefficients and constant term 1, so (C(k+N, N) - 1)/k, the
    left side of langer_strong's second inequality and, less c, of
    flenner's, is a polynomial with nonnegative coefficients, non-decreasing
    for k >= 1; for N >= 2 its term k^(N-1)/N! makes it unbounded.  So
    doubling k finds a degree that satisfies the inequality, bisection below
    it finds the first one, and minimality means k_min - 1 fails it.
    """
    if theorem not in THEOREMS:
        raise BoundsError(f"unknown restriction theorem {theorem!r}")
    if N < 2:
        raise BoundsError(f"restriction bounds need N >= 2, got N={N}")
    delta = Fraction(delta)
    if theorem == "flenner":
        if field_char != 0:
            raise BoundsError("flenner requires characteristic 0")
        if certificate not in CERTIFICATES:
            raise BoundsError("flenner requires a semistability certificate")
        if not 1 <= c <= N - 1:
            raise BoundsError(f"flenner needs 1 <= c <= N-1, got c={c}")
    elif theorem == "langer":
        if certificate != "stable":
            raise BoundsError("langer requires a stability certificate")
        if rank < 2:
            raise BoundsError("langer needs rank >= 2")
    else:
        if field_char == 0:
            raise BoundsError("langer_strong requires positive characteristic")
        if certificate not in CERTIFICATES:
            raise BoundsError("langer_strong requires a semistability certificate")
        if rank < 2:
            raise BoundsError("langer_strong needs rank >= 2")

    def holds(k):
        return _restriction_predicate(theorem, N, rank, delta, c, k)

    k = 1
    while not holds(k):
        k *= 2
    low = k // 2 + 1
    while low < k:
        mid = (low + k) // 2
        if holds(mid):
            k = mid
        else:
            low = mid + 1
    return RestrictionBound(theorem, N, rank, delta, c, k,
                            _CONCLUSIONS[theorem].format(c=c, k=k))


# ---------------------------------------------------------------------------
# Closure thresholds and membership.
# ---------------------------------------------------------------------------

def genus_plane_curve(degree: int) -> int:
    """Genus of a smooth plane curve: (d-1)(d-2)/2.  Convenience helper."""
    if degree < 1:
        raise BoundsError("plane curve degree must be positive")
    return (degree - 1) * (degree - 2) // 2


class ClosureQuery(Record):
    """An irrelevant-primary homogeneous ideal plus the curve-side data.

    In characteristic 0 the caller must hold a semistability certificate for
    the syzygy bundle ("semistable" or "stable"); in characteristic p a
    strong-semistability justification in strong_flag (general hypersurface,
    elliptic curve, or user-asserted).
    """

    __slots__ = ("generators", "certificate", "strong_flag", "genus",
                 "plane_curve_degree", "candidate", "frobenius_exponent")
    __hash__ = None

    def __init__(self, generators: tuple, certificate: Optional[str] = None,
                 strong_flag: Optional[str] = None,
                 genus: Optional[int] = None,
                 plane_curve_degree: Optional[int] = None,
                 candidate: Optional[Poly] = None,
                 frobenius_exponent: Optional[int] = None):
        if any(f.is_zero() for f in generators):
            raise BoundsError("ideal generators must be nonzero")
        if genus is not None and genus < 0:
            raise BoundsError(f"genus must be >= 0, got {genus}")
        if plane_curve_degree is not None and plane_curve_degree < 1:
            raise BoundsError("plane curve degree must be >= 1, got "
                              f"{plane_curve_degree}")
        if frobenius_exponent is not None and frobenius_exponent < 1:
            raise BoundsError("Frobenius exponent must be >= 1, got "
                              f"{frobenius_exponent}")
        if genus is not None and plane_curve_degree is not None:
            raise BoundsError("give the genus or the plane curve degree, "
                              "not both")
        self.generators = generators
        self.certificate = certificate
        self.strong_flag = strong_flag
        self.genus = genus
        self.plane_curve_degree = plane_curve_degree
        self.candidate = candidate
        self.frobenius_exponent = frobenius_exponent

    @property
    def ring(self):
        return self.generators[0].ring

    @property
    def char(self) -> int:
        return self.ring.field.char

    @property
    def degrees(self) -> tuple:
        return tuple(f.homogeneous_degree() for f in self.generators)

    def resolved_genus(self) -> Optional[int]:
        if self.genus is not None:
            return self.genus
        if self.plane_curve_degree is not None:
            return genus_plane_curve(self.plane_curve_degree)
        return None


class ClosureReport(Record):
    """m_min: every form of degree >= m_min lies in the closure."""

    __slots__ = ("tau", "m_min", "char", "trace")
    __hash__ = None

    def __init__(self, tau: Fraction, m_min: int, char: int,
                 trace: Optional[list] = None):
        self.tau = tau
        self.m_min = m_min
        self.char = char
        self.trace = [] if trace is None else trace


def closure_threshold(query: ClosureQuery, caps: Caps = NO_CAPS,
                      primary_proven: bool = False) -> ClosureReport:
    """Inclusion threshold tau = sum(d_i)/(n-1): every homogeneous form of
    degree at least tau lies in the (tight/solid) closure; below it,
    membership falls to the Frobenius tests.

    primary_proven: the caller has already proven the generators
    irrelevant-primary (the stability analysis of their syzygy bundle does),
    so the test is not run again."""
    caps = caps.start()
    gens = list(query.generators)
    if len(gens) < 2:
        raise BoundsError("need at least two ideal generators")
    if not primary_proven and not is_irrelevant_primary(gens, caps):
        raise BoundsError("the ideal is not irrelevant-primary")
    trace = []
    if query.char == 0:
        if query.certificate not in CERTIFICATES:
            raise BoundsError(
                "characteristic 0 needs a semistability certificate for the "
                "syzygy bundle (run the stability checker first)")
        trace.append(f"certificate: syzygy bundle {query.certificate} "
                     "(solid closure bound, characteristic 0)")
    else:
        if not query.strong_flag:
            raise BoundsError(
                "positive characteristic needs a strong-semistability "
                "justification flag")
        trace.append(f"strong semistability justification: {query.strong_flag} "
                     "(tight closure bound)")
    degrees = query.degrees
    tau = Fraction(sum(degrees), len(degrees) - 1)
    m_min = ceil(tau)
    trace.append(f"tau = {tau}; R_m lies in the closure for every m >= {m_min}")
    return ClosureReport(tau, m_min, query.char, trace)


class MembershipReport(Record):
    __slots__ = ("member", "decisive", "regime", "via", "trace")
    __hash__ = None

    def __init__(self, member: bool, decisive: bool, regime: str, via: str,
                 trace: Optional[list] = None):
        self.member = member
        self.decisive = decisive
        self.regime = regime
        self.via = via
        self.trace = [] if trace is None else trace


def frobenius_membership(query: ClosureQuery, caps: Caps = NO_CAPS,
                         closure: Optional[ClosureReport] = None) -> MembershipReport:
    """Frobenius-power membership test f^q in (f_1^q, ..., f_n^q), q = p^e.

    A positive answer always certifies closure membership (Frobenius closure
    sits inside tight closure).  The report states which prime/exponent regime
    the data satisfies: p above 4(g-1)(n-1)^3, or q above 6g, makes the test
    decide tight closure; otherwise it is labeled necessary-condition only.
    closure is closure_threshold(query) when the caller already has it.
    """
    caps = caps.start()
    p = query.char
    if p == 0:
        raise BoundsError("Frobenius membership requires positive characteristic")
    f = query.candidate
    if f is None or f.is_zero() or not f.is_homogeneous():
        raise BoundsError("need a nonzero homogeneous candidate element")
    e = 1 if query.frobenius_exponent is None else query.frobenius_exponent
    qpow = p ** e
    if closure is None:
        closure = closure_threshold(query, caps)
    trace = list(closure.trace)
    m = f.homogeneous_degree()
    if m >= closure.tau:
        trace.append(f"deg f = {m} >= tau = {closure.tau}: in the closure by "
                     "the inclusion bound, no Groebner work needed")
        return MembershipReport(True, True, "inclusion-bound", "threshold", trace)
    n = len(query.generators)
    g = query.resolved_genus()
    if g is None:
        raise BoundsError("genus (or plane curve degree) required below the "
                          "threshold in positive characteristic")
    # over F_p Frobenius is additive and fixes every coefficient, so
    # f^q is f with each exponent vector scaled by q
    frob_gens = [substitute_powers(gen, qpow) for gen in query.generators]
    gb = ideal_groebner(frob_gens, caps)
    member = ideal_membership(substitute_powers(f, qpow), gb, caps)
    bound_a = 4 * (g - 1) * (n - 1) ** 3
    if p > bound_a:
        regime = f"p = {p} > 4(g-1)(n-1)^3 = {bound_a}: decides tight closure"
        decisive = True
    elif qpow > 6 * g:
        regime = f"q = {qpow} > 6g = {6 * g}: decides tight closure"
        decisive = True
    else:
        regime = (f"p = {p} <= 4(g-1)(n-1)^3 = {bound_a} and q = {qpow} <= "
                  f"6g = {6 * g}: necessary-condition only")
        decisive = False
    trace.append(regime)
    trace.append(f"f^{qpow} in (f_1^{qpow}, ..., f_n^{qpow}): {member}")
    if member and not decisive:
        # Frobenius closure membership certifies closure membership outright
        decisive = True
        trace.append("positive answer certifies membership via Frobenius closure")
    return MembershipReport(member, decisive, regime, "frobenius-power", trace)

