import random

import pytest
from fractions import Fraction

from kbundle.algebra import (
    AlgebraError,
    CoefficientError,
    FieldSpec,
    Poly,
    PolyParseError,
    is_prime,
    make_ring,
    mono_gcd,
    mono_key,
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


@pytest.mark.parametrize("text, message, position", [
    ("X^2 Y", "unexpected trailing input", 5),
    ("2X", "unexpected trailing input", 2),
    ("X^-1", "expected integer exponent after '^'", 3),
    ("1/0*X", "zero denominator", 3),
    ("", "expected a coefficient or a variable", 1),
    ("+", "expected a coefficient or a variable", 2),
    ("-X+ -Y", "expected a coefficient or a variable", 5),
    ("X - (Y)", "unexpected character '('", 5),
    ("x", "unknown variable 'x'", 1),
    ("2/", "expected denominator after '/'", 3),
    ("2/X", "expected denominator after '/'", 3),
    # digits are ASCII: a superscript or Arabic-Indic digit is no number
    ("X^\u00b2", "unexpected character '\u00b2'", 3),
    ("\u0663*X", "unexpected character '\u0663'", 1),
    ("2\u0663*X", "unexpected character '\u0663'", 2),
    # an unexpected character anywhere wins over an earlier syntax error
    ("X^ + Y + (", "unexpected character '('", 10),
    ("1/0*X + \u00b2", "unexpected character '\u00b2'", 9),
])
def test_parse_errors_name_the_first_fault_and_its_position(text, message, position):
    with pytest.raises(PolyParseError) as err:
        P(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position - 1


def test_coefficient_not_representable_mod_2():
    ring = make_ring(3, FieldSpec(2))
    with pytest.raises(CoefficientError):
        parse_polynomial("1/2*X", ring)


def test_coefficient_not_representable_names_the_number():
    ring = make_ring(3, FieldSpec(32003))
    with pytest.raises(CoefficientError) as err:
        parse_polynomial("1/32003*X", ring)
    assert str(err.value) == "coefficient 1/32003 is not representable in F_32003"
    # the number is reduced first: 32003/64006 is 1/2
    assert parse_polynomial("32003/64006*X", ring) == parse_polynomial("1/2*X", ring)
    with pytest.raises(CoefficientError) as err:
        parse_polynomial("2*3/64006*X", ring)
    assert str(err.value) == "coefficient 3/64006 is not representable in F_32003"


def test_prime_field_normalization():
    ring = make_ring(3, FieldSpec(7))
    p = parse_polynomial("10*X - 3*Y", ring)
    assert p.terms[(1, 0, 0)] == 3
    assert p.terms[(0, 1, 0)] == 4


def test_fieldspec_rejects_composite_characteristic():
    with pytest.raises(AlgebraError):
        FieldSpec(6)


def strong_probable_prime(n, a):
    """n passes the Miller-Rabin round of base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, s))


@pytest.mark.parametrize("n, prime", [
    (0, False), (1, False),
    (1763, False),          # 41 * 43: no factor <= 37, so a round refuses it
    (1681, False),          # 41^2, n - 1 = 2^4 * 105: the squaring loop runs
    (3215031751, False),    # strong pseudoprime to bases 2, 3, 5 and 7
    (32003, True), (1000003, True), (2 ** 61 - 1, True),
    (998244353, True),      # 119 * 2^23 + 1: the squaring loop ends early
])
def test_is_prime(n, prime):
    assert is_prime(n) == prime
    if n == 3215031751:
        assert all(strong_probable_prime(n, a) for a in (2, 3, 5, 7))
    if n > 37:
        assert all(n % p for p in range(2, 38))


def test_monomial_gcd_examples():
    assert mono_gcd((3, 0, 0), (1, 2, 2)) == (1, 0, 0)
    g = monomial_family_gcd([P("X^3"), P("X*Y^2*Z^2")])
    assert g == (1, 0, 0) and sum(g) == 1
    assert monomial_family_gcd([P("Y^3"), P("Z^3")]) == (0, 0, 0)


@pytest.mark.parametrize("refused, message", [
    (lambda: substitute_powers(P("X*Y"), 0),
     "power substitution needs k >= 1, got 0"),
    (lambda: monomial_family_gcd([P("X^2"), P("X + Y")]),
     "gcd of monomial family requires monomials"),
])
def test_monomial_helpers_refuse_bad_input(refused, message):
    with pytest.raises(AlgebraError) as info:
        refused()
    assert str(info.value) == message


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


def written_term(rng, ring, coeff, mono) -> str:
    """A product of factors for coeff * x^mono: the coefficient split into
    numeric factors (some rational), variables repeated or with exponents,
    the factors shuffled and spaced at random."""
    numerator, denominator = coeff.numerator, coeff.denominator
    k = rng.randint(1, 3)
    numbers = [f"{abs(numerator) * k}/{denominator}", f"1/{k}"]
    if rng.random() < 0.5:
        numbers = [f"{abs(numerator) * k * 2}/{4 * denominator}", f"2/{k}"]
    factors = numbers[:]
    for name, e in zip(ring.variables, mono):
        while e:
            step = rng.randint(1, e)
            factors.append(name if step == 1 and rng.random() < 0.5
                           else f"{name}^{step}")
            e -= step
    if rng.random() < 0.3:
        factors.append(f"{rng.choice(ring.variables)}^0")
    rng.shuffle(factors)
    return rng.choice(["*", " * ", "*  "]).join(factors)


@pytest.mark.parametrize("char", [0, 7, 32003])
def test_parse_matches_poly_arithmetic(char):
    """Seeded random polynomials written with rational literals, numeric
    products, repeated variables, spaces and cancelling terms parse to the
    Poly that arithmetic builds, and parse(str(p)) == p."""
    ring = make_ring(3, FieldSpec(char))
    fld = ring.field
    rng = random.Random(2026 + char)
    for _ in range(60):
        pieces, want = [], ring.zero()
        for _ in range(rng.randint(1, 6)):
            coeff = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 6))
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            term = Poly(ring, {mono: fld.from_fraction(coeff)})
            text = written_term(rng, ring, coeff, mono)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, text))
            want = want + term
            if rng.random() < 0.2:      # a term and its negative
                pieces.append(("+" if sign == "-" else "-", text))
                want = want - term
        sign, text = pieces[0]
        out = ("-" if sign == "-" else rng.choice(["", "+", " + "])) + text
        for sign, text in pieces[1:]:
            out += rng.choice([f" {sign} ", sign, f"{sign}  "]) + text
        p = parse_polynomial(out, ring)
        assert p == want, out
        assert parse_polynomial(str(p), ring) == p
    assert parse_polynomial("X - X", ring).is_zero()
    assert parse_polynomial("2*3/4*X*X^2", ring) == parse_polynomial("3/2*X^3", ring)


def test_monomials_of_degree_counts_and_order():
    monos = list(monomials_of_degree(3, 2))
    assert len(monos) == 6
    assert monos[0] == (2, 0, 0)
    assert len(set(monos)) == 6
    assert all(sum(m) == 2 for m in monos)


def test_degrevlex_order():
    # X^2*Y > X*Z^2 in degrevlex, and X > Y > Z
    assert mono_key((2, 1, 0)) > mono_key((1, 0, 2))
    assert mono_key((1, 0, 0)) > mono_key((0, 1, 0)) > mono_key((0, 0, 1))


def test_alias_ring_names():
    ring4 = make_ring(4)
    assert ring4.variables == ("X0", "X1", "X2", "X3")
    p = parse_polynomial("X0^2 - X3^2", ring4)
    assert p.degree() == 2


def test_evaluate_exact():
    p = P("X^2 - Y*Z")
    assert p.evaluate((Fraction(2), Fraction(1), Fraction(3))) == Fraction(1)
