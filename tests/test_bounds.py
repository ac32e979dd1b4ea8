import itertools
import random
from fractions import Fraction

import pytest

from kbundle.algebra import FieldSpec, make_ring, parse_many, parse_polynomial
from kbundle.modgb import Caps, ideal_groebner, ideal_membership
from kbundle import bounds
from kbundle.bounds import (
    BoundsError,
    ClosureQuery,
    closure_threshold,
    frobenius_membership,
    genus_plane_curve,
    restriction_bound,
)

from sample_bundles import P


def test_flenner_example():
    # N=2, c=1, r=4: the inequality reduces to (k+1)/2 > 15/4, so k_min = 7
    b = restriction_bound("flenner", 2, 4, 0, c=1, certificate="semistable")
    assert b.k_min == 7
    assert b.predicate(7) and not b.predicate(6)


def test_langer_five_quartics():
    # r=4, delta=80: k > 60 + 1/12 forces k_min = 61
    b = restriction_bound("langer", 2, 4, 80, certificate="stable")
    assert b.k_min == 61
    assert b.predicate(61) and not b.predicate(60)


def test_langer_cotangent():
    b = restriction_bound("langer", 2, 2, 3, certificate="stable")
    assert b.k_min == 3


def test_langer_strong_requires_positive_characteristic():
    with pytest.raises(BoundsError):
        restriction_bound("langer_strong", 2, 4, 80, certificate="semistable")
    b = restriction_bound("langer_strong", 2, 4, 80, field_char=7,
                          certificate="semistable")
    assert b.predicate(b.k_min) and not b.predicate(b.k_min - 1)


def test_hypothesis_enforcement():
    # restriction_bound(theorem, N, rank, ...) refuses each unmet hypothesis
    for theorem, rank, options, message in [
        ("bogus", 4, {}, "unknown restriction theorem 'bogus'"),
        ("flenner", 4, {"field_char": 5, "certificate": "semistable"},
         "flenner requires characteristic 0"),
        ("flenner", 4, {}, "flenner requires a semistability certificate"),
        ("flenner", 4, {"c": 2, "certificate": "semistable"},
         "flenner needs 1 <= c <= N-1, got c=2"),
        ("langer", 4, {"certificate": "semistable"},
         "langer requires a stability certificate"),
        ("langer", 1, {"certificate": "stable"}, "langer needs rank >= 2"),
        ("langer_strong", 4, {"field_char": 5},
         "langer_strong requires a semistability certificate"),
        ("langer_strong", 1, {"field_char": 5, "certificate": "semistable"},
         "langer_strong needs rank >= 2"),
    ]:
        with pytest.raises(BoundsError) as info:
            restriction_bound(theorem, 2, rank, 80, **options)
        assert str(info.value) == message


def test_boundary_reevaluation_randomized():
    rng = random.Random(61803)
    for _ in range(100):
        theorem = rng.choice(["flenner", "langer", "langer_strong"])
        N = rng.randint(2, 4)
        r = rng.randint(2, 6)
        delta = Fraction(rng.randint(0, 120))
        if theorem == "flenner":
            b = restriction_bound(theorem, N, r, delta, c=rng.randint(1, N - 1),
                                  certificate="semistable")
        elif theorem == "langer":
            b = restriction_bound(theorem, N, r, delta, certificate="stable")
        else:
            b = restriction_bound(theorem, N, r, delta, field_char=5,
                                  certificate="semistable")
        assert b.predicate(b.k_min)
        assert not b.predicate(b.k_min - 1)


def test_restriction_bound_needs_n_at_least_two():
    # on P^1, (C(k+1, 1) - 1)/k = 1 never exceeds langer_strong's bound
    with pytest.raises(BoundsError, match="need N >= 2, got N=1"):
        restriction_bound("langer_strong", 1, 2, 0, field_char=5,
                          certificate="semistable")


@pytest.mark.parametrize("theorem", ["flenner", "langer", "langer_strong"])
def test_restriction_bound_matches_the_linear_scan(theorem):
    char = 5 if theorem == "langer_strong" else 0
    for N in (2, 3, 4):
        cs = range(1, N) if theorem == "flenner" else (1,)
        for rank, delta, c in itertools.product(
                (2, 3, 5), (0, Fraction(7, 3), 40, 1000), cs):
            b = restriction_bound(theorem, N, rank, delta, c, field_char=char,
                                  certificate="stable")
            scan = next(k for k in itertools.count(1) if b.predicate(k))
            assert b.k_min == scan


def test_restriction_bound_search_is_logarithmic(monkeypatch):
    # k > (1/2) * 3*10^7 + 1/2: the first degree is 15000001, which a scan
    # from k = 1 reaches only after 1.5*10^7 evaluations
    real, calls = bounds._restriction_predicate, []

    def counting(*args):
        calls.append(args)
        assert len(calls) <= 100, "the search evaluates too many degrees"
        return real(*args)

    monkeypatch.setattr(bounds, "_restriction_predicate", counting)
    b = restriction_bound("langer", 2, 2, 3 * 10 ** 7, certificate="stable")
    assert b.k_min == 15000001
    assert b.predicate(15000001) and not b.predicate(15000000)


FIVE_QUADRICS = ["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"]


def quadrics_query(**kw):
    gens = parse_many(FIVE_QUADRICS, make_ring(3))
    return ClosureQuery(generators=gens, **kw)


def test_closure_threshold_five_quadrics():
    rep = closure_threshold(quadrics_query(certificate="semistable"))
    assert rep.tau == Fraction(5, 2)
    assert rep.m_min == 3


def test_closure_threshold_integral_boundary_included():
    ring = make_ring(3)
    gens = parse_many(["X^2", "Y^2", "Z^2"], ring)
    rep = closure_threshold(ClosureQuery(generators=gens, certificate="semistable"))
    assert rep.tau == 3
    assert rep.m_min == 3


def test_closure_threshold_requires_certificate():
    with pytest.raises(BoundsError):
        closure_threshold(quadrics_query())


def test_closure_threshold_requires_primary():
    ring = make_ring(3)
    gens = parse_many(["X^2", "X*Y"], ring)
    with pytest.raises(BoundsError):
        closure_threshold(ClosureQuery(generators=gens, certificate="semistable"))


def test_closure_threshold_needs_two_generators():
    query = ClosureQuery(generators=(P("X^2"),), certificate="semistable")
    with pytest.raises(BoundsError, match="need at least two ideal generators"):
        closure_threshold(query)


def test_closure_threshold_over_fp_needs_a_strong_flag():
    query = ClosureQuery(generators=parse_many(["X^2", "Y^2", "Z^2"], ring7()))
    with pytest.raises(BoundsError, match="positive characteristic needs a "
                       "strong-semistability justification flag"):
        closure_threshold(query)


def test_closure_threshold_permutation_and_scaling():
    ring = make_ring(3)
    base = closure_threshold(ClosureQuery(
        generators=parse_many(["X^2", "Y^3", "Z^2"], ring),
        certificate="semistable")).tau
    perm = closure_threshold(ClosureQuery(
        generators=parse_many(["Z^2", "X^2", "Y^3"], ring),
        certificate="semistable")).tau
    assert base == perm
    doubled = closure_threshold(ClosureQuery(
        generators=parse_many(["X^4", "Y^6", "Z^4"], ring),
        certificate="semistable")).tau
    assert doubled == 2 * base


def ring7():
    return make_ring(3, FieldSpec(7))


def fp_query(gens, candidate=None, e=1, genus=None, plane_degree=None):
    ring = ring7()
    return ClosureQuery(
        generators=parse_many(gens, ring),
        strong_flag="user-asserted strong semistability",
        genus=genus,
        plane_curve_degree=plane_degree,
        candidate=parse_polynomial(candidate, ring) if candidate else None,
        frobenius_exponent=e,
    )


def test_frobenius_membership_ideal_element():
    # f = X^2 * Y lies in the ideal, so every Frobenius power stays inside
    q = fp_query(["X^2", "Y^2", "Z^2"], candidate="X^2*Y", genus=3)
    rep = frobenius_membership(q)
    assert rep.member


def test_frobenius_short_circuit_above_threshold():
    q = fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y*Z", genus=3)
    rep = frobenius_membership(q)
    assert rep.member and rep.decisive
    assert rep.via == "threshold"


def test_frobenius_non_member_below_threshold():
    q = fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y", genus=0)
    rep = frobenius_membership(q)
    assert not rep.member
    # q = 7 > 6g = 0: the test decides tight closure
    assert rep.decisive


def test_frobenius_regime_labels():
    # small prime, positive genus, e=1: q = 7 <= 6g and p <= 4(g-1)(n-1)^3
    q = fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y", genus=3)
    rep = frobenius_membership(q)
    assert not rep.decisive
    assert "necessary-condition" in rep.regime
    # raising the exponent past 6g makes it decisive: 7^2 = 49 > 18
    q2 = fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y", e=2, genus=3)
    rep2 = frobenius_membership(q2)
    assert rep2.decisive


def test_frobenius_monotone_in_generators():
    small = fp_query(["X^2", "Y^2", "Z^4"], candidate="Z^3", genus=3)
    large = fp_query(["X^2", "Y^2", "Z^4", "Z^3"], candidate="Z^3", genus=3)
    rep_small = frobenius_membership(small)
    rep_large = frobenius_membership(large)
    assert rep_large.member
    assert (not rep_small.member) or rep_large.member


def test_genus_helper():
    assert genus_plane_curve(1) == 0
    assert genus_plane_curve(3) == 1
    assert genus_plane_curve(4) == 3
    q = fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y", plane_degree=4)
    assert q.resolved_genus() == 3


def test_plane_curve_degree_must_be_positive():
    with pytest.raises(BoundsError, match="^plane curve degree must be positive$"):
        genus_plane_curve(0)


@pytest.mark.parametrize("degree", [0, -1])
def test_plane_curve_degree_below_one_is_refused_when_not_needed(degree):
    # X*Y*Z has degree tau = 3, so the inclusion bound answers without the
    # genus; the query is refused when it is built, as a negative genus is
    with pytest.raises(BoundsError, match=f"^plane curve degree must be >= 1, "
                       f"got {degree}$"):
        fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y*Z", plane_degree=degree)
    assert frobenius_membership(fp_query(
        ["X^2", "Y^2", "Z^2"], candidate="X*Y*Z", plane_degree=1)).regime \
        == "inclusion-bound"


def test_genus_and_plane_curve_degree_are_not_both_taken():
    # a smooth plane quintic has genus 6, so genus 3 contradicts degree 5
    with pytest.raises(BoundsError, match="^give the genus or the plane curve "
                       "degree, not both$"):
        fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y", genus=3, plane_degree=5)
    assert fp_query(["X^2", "Y^2", "Z^2"], plane_degree=5).resolved_genus() == 6


def test_frobenius_below_threshold_needs_a_genus():
    q = fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y")
    with pytest.raises(BoundsError, match=r"genus \(or plane curve degree\) "
                       "required below the threshold"):
        frobenius_membership(q)


def test_frobenius_exponent_zero_rejected():
    with pytest.raises(BoundsError, match="^Frobenius exponent must be >= 1, "
                       "got 0$"):
        fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y", e=0, genus=3)


@pytest.mark.parametrize("e", [0, -1])
def test_frobenius_exponent_below_one_is_refused_when_not_needed(e):
    # over QQ the Frobenius test never runs, and over F_7 X*Y*Z has degree
    # tau = 3, so the inclusion bound answers before the exponent is read;
    # the query is refused when it is built all the same
    message = f"^Frobenius exponent must be >= 1, got {e}$"
    ring = make_ring(3)
    with pytest.raises(BoundsError, match=message):
        ClosureQuery(generators=parse_many(["X^2", "Y^2", "Z^2"], ring),
                     candidate=parse_polynomial("X*Y*Z", ring),
                     frobenius_exponent=e)
    with pytest.raises(BoundsError, match=message):
        fp_query(["X^2", "Y^2", "Z^2"], candidate="X*Y*Z", e=e)
    assert frobenius_membership(fp_query(
        ["X^2", "Y^2", "Z^2"], candidate="X*Y*Z", e=1)).regime \
        == "inclusion-bound"


def test_frobenius_requires_positive_characteristic():
    ring = make_ring(3)
    q = ClosureQuery(generators=parse_many(["X^2", "Y^2", "Z^2"], ring),
                     certificate="semistable", candidate=P("X*Y"))
    with pytest.raises(BoundsError):
        frobenius_membership(q)


def power_by_multiplication(f, n):
    out = f.ring.one()
    for _ in range(n):
        out = out * f
    return out


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("candidate", ["X*Y + Z^2", "X*Y", "X^2 - 3*Y*Z"])
def test_frobenius_membership_matches_repeated_multiplication(candidate, e):
    # over F_p, f^(p^e) is f with its exponents scaled by p^e
    gens = ["X^2 + Y^2", "Y^2 + Z^2", "X*Z"]
    query = fp_query(gens, candidate=candidate, e=e, genus=3)
    qpow = 7 ** e
    gb = ideal_groebner([power_by_multiplication(g, qpow)
                         for g in query.generators])
    expected = ideal_membership(
        power_by_multiplication(query.candidate, qpow), gb)
    assert frobenius_membership(query).member == expected


def test_frobenius_high_exponent_decides_under_the_cap():
    query = fp_query(["X^2 + Y^2", "Y^2 + Z^2", "X*Z"],
                     candidate="X*Y + Z^2", e=6, genus=3)
    rep = frobenius_membership(query, Caps(timeout_seconds=5))
    assert rep.decisive and not rep.member
    assert rep.regime == "q = 117649 > 6g = 18: decides tight closure"
