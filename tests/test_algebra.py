import random

import pytest
from fractions import Fraction

from kbundle.algebra import (
    AlgebraError,
    CoefficientError,
    FieldSpec,
    Poly,
    PolyParseError,
    make_ring,
    mono_gcd,
    monomial_family_gcd,
    monomials_of_degree,
    parse_polynomial,
    substitute_powers,
)

from sample_bundles import P, RING_QQ3, random_homogeneous


def test_parse_difference_of_squares():
    p = P("X^2 - Y^2")
    assert len(p.terms) == 2
    assert p.degree() == 2
    assert p.is_homogeneous()


def test_parse_zero():
    assert P("0").is_zero()
    assert P("0").degree() is None


def test_parse_named_monomial():
    p = P("X*Y^2*Z^2")
    assert p.is_monomial()
    assert p.degree() == 5
    assert p.terms == {(1, 2, 2): Fraction(1)}


def test_parse_rational_coefficients():
    p = P("1/2*X^2 + 3*Y*Z")
    assert p.terms[(2, 0, 0)] == Fraction(1, 2)
    assert p.terms[(0, 1, 1)] == Fraction(3)


def test_parse_error_position_and_unknown_variable():
    with pytest.raises(PolyParseError) as err:
        P("X^2 + W")
    assert "W" in str(err.value)
    with pytest.raises(PolyParseError):
        P("X^")
    with pytest.raises(PolyParseError):
        P("X Y")  # juxtaposition is not allowed


def test_coefficient_not_representable_mod_2():
    ring = make_ring(3, FieldSpec(2))
    with pytest.raises(CoefficientError):
        parse_polynomial("1/2*X", ring)


def test_prime_field_normalization():
    ring = make_ring(3, FieldSpec(7))
    p = parse_polynomial("10*X - 3*Y", ring)
    assert p.terms[(1, 0, 0)] == 3
    assert p.terms[(0, 1, 0)] == 4


def test_fieldspec_rejects_composite_characteristic():
    with pytest.raises(AlgebraError):
        FieldSpec(6)


def test_monomial_gcd_examples():
    assert mono_gcd((3, 0, 0), (1, 2, 2)) == (1, 0, 0)
    g = monomial_family_gcd([P("X^3"), P("X*Y^2*Z^2")])
    assert g == (1, 0, 0) and sum(g) == 1
    assert monomial_family_gcd([P("Y^3"), P("Z^3")]) == (0, 0, 0)


def test_product_difference_of_squares():
    assert P("X - Y") * P("X + Y") == P("X^2 - Y^2")


def test_substitute_powers_examples():
    assert substitute_powers(P("X^2 - Y^2"), 2) == P("X^4 - Y^4")
    p = P("X*Y + 2*Z^2")
    assert substitute_powers(p, 1) == p
    q = substitute_powers(P("X*Y"), 3)
    assert q == P("X^3*Y^3")
    assert q.degree() == 6


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(40):
        d = rng.randint(1, 3)
        p = random_homogeneous(RING_QQ3, d, rng)
        q = random_homogeneous(RING_QQ3, d, rng)
        r = random_homogeneous(RING_QQ3, rng.randint(1, 3), rng)
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()
        assert (p * q) * r == p * (q * r)


def test_homogeneous_degree_additivity():
    rng = random.Random(7)
    for _ in range(25):
        p = random_homogeneous(RING_QQ3, rng.randint(1, 3), rng)
        q = random_homogeneous(RING_QQ3, rng.randint(1, 3), rng)
        prod = p * q
        if not prod.is_zero():
            assert prod.degree() == p.degree() + q.degree()


def test_substitute_powers_multiplicative():
    rng = random.Random(99)
    for _ in range(20):
        p = random_homogeneous(RING_QQ3, rng.randint(1, 3), rng)
        q = random_homogeneous(RING_QQ3, rng.randint(1, 3), rng)
        k = rng.randint(1, 3)
        assert substitute_powers(p * q, k) == substitute_powers(p, k) * substitute_powers(q, k)


def test_parse_print_roundtrip():
    rng = random.Random(5150)
    samples = ["X^2 - Y^2", "0", "X*Y^2*Z^2", "1/2*X + 2/3*Y", "-X + Z^4"]
    for text in samples:
        p = P(text)
        assert parse_polynomial(str(p), RING_QQ3) == p
    for _ in range(30):
        p = random_homogeneous(RING_QQ3, rng.randint(0, 4), rng, allow_zero=True)
        assert parse_polynomial(str(p), RING_QQ3) == p
    ring7 = make_ring(3, FieldSpec(7))
    for _ in range(15):
        p = random_homogeneous(ring7, rng.randint(0, 3), rng, allow_zero=True)
        assert parse_polynomial(str(p), ring7) == p


def test_monomials_of_degree_counts_and_order():
    monos = list(monomials_of_degree(3, 2))
    assert len(monos) == 6
    assert monos[0] == (2, 0, 0)
    assert len(set(monos)) == 6
    assert all(sum(m) == 2 for m in monos)


def test_degrevlex_order():
    key = RING_QQ3.mono_key
    # X^2*Y > X*Z^2 in degrevlex, and X > Y > Z
    assert key((2, 1, 0)) > key((1, 0, 2))
    assert key((1, 0, 0)) > key((0, 1, 0)) > key((0, 0, 1))


def test_alias_ring_names():
    ring4 = make_ring(4)
    assert ring4.variables == ("X0", "X1", "X2", "X3")
    p = parse_polynomial("X0^2 - X3^2", ring4)
    assert p.degree() == 2


def test_evaluate_exact():
    p = P("X^2 - Y*Z")
    assert p.evaluate((Fraction(2), Fraction(1), Fraction(3))) == Fraction(1)
