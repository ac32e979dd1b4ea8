"""Exact coefficient fields, sparse multivariate polynomials, the monomial
order, and the polynomial-expression parser.

Coefficients are plain Python numbers: `fractions.Fraction` (or int) over the
rationals, canonical ints in [0, p) over F_p.  Every sum of term dicts goes
through `add_scaled`; everything else is `*` or `pow`, reduced `% p` when
p != 0.  Nothing in this package touches floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, prod
from operator import add
from typing import Iterator


class AlgebraError(ValueError):
    """Base class for exact-algebra input errors."""


class RingMismatchError(AlgebraError):
    pass


class CoefficientError(AlgebraError):
    """Coefficient not representable in the requested field (e.g. 1/2 in F_2)."""


class PolyParseError(AlgebraError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position + 1})")
        self.position = position


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Record:
    """Base of the value records: equality, hashing, repr and `replace` over
    the fields a subclass names in `__slots__`, which its `__init__` takes by
    the same names.  A mutable record sets `__hash__ = None`; fields whose
    names start with "_" stay out of the repr.  Plain methods instead of
    `dataclasses`, whose generated code costs most of the package's import.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, built by `__init__`."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return type(self)(**values)


class FieldSpec(Record):
    """The rationals (char == 0) or the prime field Z/char.

    Elements are plain Fractions resp. ints in [0, char); the methods below
    only make them.  Arithmetic on them is Python's, with `add_scaled` for
    sums of term dicts.
    """

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char < 0:
            raise AlgebraError(f"invalid characteristic {char}")
        if char > 0 and not is_prime(char):
            raise AlgebraError(f"characteristic {char} is not prime")
        self.char = char

    def one(self):
        return 1 if self.char else Fraction(1)

    def from_int(self, n: int):
        return n % self.char if self.char else Fraction(n)

    def from_fraction(self, x):
        """The image of a rational x (a Fraction or an int) in the field."""
        if self.char == 0:
            return Fraction(x)
        num, den = x.numerator, x.denominator
        if den % self.char == 0:
            raise CoefficientError(
                f"coefficient {x} is not representable in F_{self.char}")
        return num * pow(den, -1, self.char) % self.char

    def __str__(self):
        return "QQ" if self.char == 0 else f"F_{self.char}"


QQ = FieldSpec(0)


def add_scaled(dst: dict, c, src: dict, p: int) -> dict:
    """dst += c * src in place on term dicts of plain field elements, reduced
    mod p when p != 0, dropping zeros; c == 1 skips the products."""
    unit = c == 1
    for t, s in src.items():
        x = s if unit else c * s
        old = dst.get(t)
        if old is not None:
            x += old
        if p:
            x %= p
        if x:
            dst[t] = x
        else:
            dst.pop(t, None)
    return dst


# ---------------------------------------------------------------------------
# Monomials are bare exponent tuples; these helpers are the whole interface.
# ---------------------------------------------------------------------------

def mono_deg(m: tuple) -> int:
    return sum(m)


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_gcd(a: tuple, b: tuple) -> tuple:
    return tuple(min(x, y) for x, y in zip(a, b))


def monomials_of_degree(nvars: int, degree: int) -> Iterator[tuple]:
    """All exponent tuples of the given total degree, in descending-lex order."""
    if degree < 0:
        return
    if nvars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - e):
            yield (e,) + rest


def mono_key(m: tuple) -> tuple:
    """Sort key of degrevlex, larger key == larger monomial.  It is the one
    order, as no answer depends on it: a homogeneous submodule's leading
    terms have the same Hilbert function under every order."""
    return sum(m), tuple([-e for e in reversed(m)])


def default_variables(nvars: int) -> tuple:
    """X,Y,Z for three variables, X0..XN otherwise."""
    if nvars == 3:
        return ("X", "Y", "Z")
    return tuple(f"X{i}" for i in range(nvars))


class PolyRing(Record):
    """A polynomial ring: variable names and exact field."""

    __slots__ = ("variables", "field")

    def __init__(self, variables: tuple, field: FieldSpec = QQ):
        if len(variables) == 0:
            raise AlgebraError("ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise AlgebraError("duplicate variable names")
        self.variables = variables
        self.field = field

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: self.field.one()})

    def __str__(self):
        return f"{self.field}[{','.join(self.variables)}]"


def make_ring(nvars: int = 3, field: FieldSpec = QQ, variables=None) -> PolyRing:
    names = tuple(variables) if variables is not None else default_variables(nvars)
    return PolyRing(names, field)


class Poly:
    """Sparse polynomial: map from exponent tuple to nonzero field scalar.

    Immutable by convention; every operation returns a fresh value.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return bool(self.terms) and not any(map(sum, self.terms))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def degree(self):
        """Total degree; None for the zero polynomial (which carries no degree)."""
        if not self.terms:
            return None
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def homogeneous_degree(self):
        """Degree of a homogeneous polynomial; None if zero; error if mixed."""
        degs = set(map(sum, self.terms))
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError("polynomial is not homogeneous")
        return degs.pop()

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: mono_key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands live in different rings: {self.ring} vs {other.ring}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.ring, add_scaled(dict(self.terms), 1, other.terms,
                                          self.ring.field.char))

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.ring, add_scaled(dict(self.terms), -1, other.terms,
                                          self.ring.field.char))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.field.char
        out: dict = {}
        for m1, c1 in self.terms.items():
            add_scaled(out, c1, {mono_mul(m1, m2): c2
                                 for m2, c2 in other.terms.items()}, p)
        return Poly(self.ring, out)

    def scale(self, c) -> "Poly":
        p = self.ring.field.char
        return Poly(self.ring, {m: v * c % p if p else v * c
                                for m, v in self.terms.items()})

    def evaluate(self, point):
        """Exact evaluation at a tuple of field scalars."""
        if len(point) != self.ring.nvars:
            raise AlgebraError("evaluation point has wrong length")
        p = self.ring.field.char
        total = sum(c * prod(map(pow, point, m)) for m, c in self.terms.items())
        return total % p if p else total

    # -- equality / printing -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        char = self.ring.field.char
        names = self.ring.variables
        pieces = []
        for m, c in self.sorted_terms():
            factors = [n if e == 1 else f"{n}^{e}"
                       for n, e in zip(names, m) if e > 0]
            negative = char == 0 and c < 0
            mag = -c if negative else c
            if factors and mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("-" if negative else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self})"


def substitute_powers(p: Poly, k: int) -> Poly:
    """Substitute every variable by its k-th power (exponent vectors scale by k)."""
    if k < 1:
        raise AlgebraError(f"power substitution needs k >= 1, got {k}")
    if k == 1:
        return p
    return Poly(p.ring, {tuple(e * k for e in m): c for m, c in p.terms.items()})


def reduce_poly_mod_p(p: Poly, ring_p: PolyRing) -> Poly:
    """Image of a rational polynomial in ring_p, the same ring over F_p.
    Raises CoefficientError when p divides a denominator and
    RingMismatchError unless the polynomial is over QQ."""
    if p.ring.field.char:
        raise RingMismatchError(f"reduction mod p needs QQ, not {p.ring.field}")
    fld = ring_p.field
    terms = {}
    for mono, c in p.terms.items():
        v = fld.from_fraction(c)
        if v:
            terms[mono] = v
    return Poly(ring_p, terms)


def monomial_family_gcd(polys) -> tuple:
    """Componentwise-min exponent vector of a family of monomials."""
    monos = []
    for p in polys:
        if not p.is_monomial():
            raise AlgebraError("gcd of monomial family requires monomials")
        monos.append(next(iter(p.terms)))
    g = monos[0]
    for m in monos[1:]:
        g = mono_gcd(g, m)
    return g


# ---------------------------------------------------------------------------
# Parser.  Grammar (whitespace insignificant, juxtaposition not allowed):
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := atom ('*' atom)*
#   atom   := NUMBER ['/' NUMBER] | VARIABLE ['^' NUMBER]
# A NUMBER is ASCII digits; a VARIABLE starts with a letter or '_' and goes
# on with letters, digits and '_'.
# ---------------------------------------------------------------------------

# One token per match, after whitespace: a number with its denominator if
# one follows, a word with its exponent if one follows, or one other
# character.  lastindex tells them apart.  A word that starts with neither a
# letter nor '_', and a character that is no operator, are unexpected.
_TOKEN = re.compile(
    r"\s*(?:([0-9]+)(?:\s*/\s*([0-9]+))?|(\w+)(?:\s*\^\s*([0-9]+))?|(\S))")
_NUMBER, _FRACTION, _WORD, _POWER, _OTHER = 1, 2, 3, 4, 5
_START, _ATOM, _AFTER_ATOM = 0, 1, 2   # where a sign, an atom, an operator may come


def _starts_word(text: str) -> bool:
    return text[:1].isalpha() or text[:1] == "_"


def _start(match) -> int:
    """Where the token of a match begins, after its leading whitespace."""
    return match.end() - len(match[0].lstrip())


def _unexpected(match):
    """The error for a token that starts with an unexpected character, else
    None."""
    kind = match.lastindex
    token = match[0].lstrip()
    if (kind == _OTHER and token not in "+-*/^"
            or _WORD <= kind <= _POWER and not _starts_word(token)):
        return PolyParseError(f"unexpected character {token[0]!r}", _start(match))
    return None


def parse_polynomial(text: str, ring: PolyRing) -> Poly:
    """Parse an expression into the canonical sparse polynomial.

    One pass over the tokens.  A term's coefficient is kept as integers
    num/den and becomes a field element once, where the term ends.  The
    error raised is the first unexpected character of the text if it has
    one, as if the whole text were tokenized before it is parsed, else the
    first syntax or coefficient error.  Parsing, printing, then re-parsing
    is a fixed point on canonical forms.
    """
    p = ring.field.char
    index = {name: i for i, name in enumerate(ring.variables) if _starts_word(name)}
    nvars = ring.nvars
    tokens = _TOKEN.finditer(text)
    terms: dict = {}
    state, last = _START, None
    sign, num, den, exps = 1, 1, 1, [0] * nvars

    def fail(error):
        """Raise the text's first unexpected character, else error: every
        token consumed before a failure is an expected one."""
        for match in _TOKEN.finditer(text):
            unexpected = _unexpected(match)
            if unexpected is not None:
                raise unexpected
        raise error

    def end_term():
        mono = tuple(exps)
        if p:
            c = sign * num * (1 if den == 1 else pow(den, -1, p)) % p
        else:
            c = Fraction(sign * num) if den == 1 else Fraction(sign * num, den)
        old = terms.get(mono)
        if old is not None:
            c = (old + c) % p if p else old + c
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)

    for match in tokens:
        kind = match.lastindex
        if state != _AFTER_ATOM and kind <= _FRACTION:
            atom = int(match[1])
            num *= atom
            if kind == _FRACTION:
                d = int(match[2])
                if d == 0:
                    fail(PolyParseError("zero denominator", match.start(2)))
                if p and d % p == 0:
                    # num/den stays prime to p: the atom enters reduced
                    g = gcd(atom, d)
                    if d // g % p == 0:
                        fail(CoefficientError(f"coefficient {Fraction(atom, d)} "
                                              f"is not representable in F_{p}"))
                    num //= g
                    d //= g
                den *= d
            state, last = _AFTER_ATOM, kind
            continue
        if state != _AFTER_ATOM and kind <= _POWER:
            variable = index.get(match[3])
            if variable is not None:
                exps[variable] += 1 if kind == _WORD else int(match[4])
                state, last = _AFTER_ATOM, kind
                continue
            if _starts_word(match[3]):
                fail(PolyParseError(f"unknown variable {match[3]!r}", match.start(3)))
        elif kind == _OTHER:
            op = match[5]
            if state == _AFTER_ATOM:
                if op == "*":
                    state = _ATOM
                    continue
                if op == "+" or op == "-":
                    end_term()
                    sign, num, den, exps = -1 if op == "-" else 1, 1, 1, [0] * nvars
                    state = _ATOM
                    continue
                if op == "/" and last == _NUMBER or op == "^" and last == _WORD:
                    # what follows the operator is no number
                    after = next(tokens, None)
                    fail(PolyParseError(
                        "expected denominator after '/'" if op == "/" else
                        "expected integer exponent after '^'",
                        _start(after) if after else len(text)))
            elif state == _START and (op == "+" or op == "-"):
                sign = -1 if op == "-" else 1
                state = _ATOM
                continue
        fail(PolyParseError("unexpected trailing input" if state == _AFTER_ATOM else
                            "expected a coefficient or a variable", _start(match)))
    if state != _AFTER_ATOM:
        raise PolyParseError("expected a coefficient or a variable", len(text))
    end_term()
    return Poly(ring, terms)


def parse_many(texts, ring: PolyRing):
    return tuple(parse_polynomial(t, ring) for t in texts)
