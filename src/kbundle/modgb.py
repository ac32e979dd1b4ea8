"""Graded free modules over the polynomial ring, Buchberger's algorithm,
graded-piece dimensions by two independent engines, and ideal-theoretic
tests.

One Buchberger driver, with one Gebauer-Moeller pair rule, serves ideals,
images of graded maps and the graph module, whose basis elements that lead
in the source block are a Groebner basis of the kernel (syzygies by
elimination).

Grading convention: a sheaf twist a corresponds to module generator degree -a,
so global sections of the kernel sheaf twisted by k are exactly the degree-k
piece of the kernel module.  Only this module speaks generator degrees; the
bundle layer converts at the boundary.

The module order is position-over-term: basis vectors compared by generator
index ascending (e_0 largest), ties broken by degrevlex (algebra.mono_key).

Buchberger, tail reduction and ideal membership share one reduction loop for
both fields.  It runs on integer coefficients: fraction-free over QQ, residues
mod p.  Its normal forms are exact up to a nonzero scalar, which is all any
caller needs; the reduced basis is made monic at the end.  The loop keeps its
pending terms in one of two accumulators: a heap, or, for a homogeneous input
whose degree has not many more terms than the input, a list over every term
of that degree swept once from the top (_normal_form_terms has the rule and
its measured reason).

The loop runs on terms packed into single ints (_TermCodec), encoded where
terms enter a run and decoded where its results leave.  The encoding T =
base(component) + L(monomial) is linear in the exponents, so multiplying by
x^q adds L(q), and comparing ints is the module term order.  The heap holds
-T, the work dicts, the degree layouts and the reduction memos are keyed by
T, a reducer's shifted tail and an S-element are int shifts, and
divisibility and lcms in the pair criteria are bit operations on the
exponent digits.  Every field is TERM_FIELD_BITS wide; a degree that would
not fit raises ResourceCapError naming the stage, so a value never wraps
into the next field.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .algebra import (
    AlgebraError,
    CoefficientError,
    FieldSpec,
    Poly,
    PolyRing,
    Record,
    add_scaled,
    mono_deg,
    mono_key,
    monomials_of_degree,
    reduce_poly_mod_p,
)


class GradingError(AlgebraError):
    """Matrix entry degree inconsistent with the source/target grading."""


class ResourceCapError(RuntimeError):
    """A configured resource cap was exceeded; the result is indeterminate."""


class InternalCheckError(RuntimeError):
    """Two supposedly-equivalent computations disagreed; never a verdict."""


class Caps(Record):
    """Resource guards.  Exceeding any cap aborts, never returns a wrong answer."""

    __slots__ = ("max_degree", "max_pairs", "timeout_seconds", "_deadline")

    def __init__(self, max_degree: Optional[int] = None,
                 max_pairs: Optional[int] = None,
                 timeout_seconds: Optional[float] = None,
                 _deadline: Optional[float] = None):
        self.max_degree = max_degree
        self.max_pairs = max_pairs
        self.timeout_seconds = timeout_seconds
        self._deadline = _deadline

    def start(self) -> "Caps":
        """A copy whose timeout runs from now; an armed Caps is returned as
        it is, so the calls it is passed to share its deadline."""
        if self.timeout_seconds is None or self._deadline is not None:
            return self
        return self.replace(_deadline=time.monotonic() + self.timeout_seconds)

    def check_time(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ResourceCapError("timeout exceeded")

    def check_degree(self, d: int):
        if self.max_degree is not None and d > self.max_degree:
            raise ResourceCapError(
                f"degree cap exceeded ({d} > {self.max_degree})")

    def check_pairs(self, n: int):
        if self.max_pairs is not None and n > self.max_pairs:
            raise ResourceCapError(
                f"pair cap exceeded ({n} > {self.max_pairs})")


NO_CAPS = Caps()


class GradedFreeModule(Record):
    """Free module with one integer degree per basis vector."""

    __slots__ = ("ring", "generator_degrees")

    def __init__(self, ring: PolyRing, generator_degrees: tuple):
        self.ring = ring
        self.generator_degrees = generator_degrees

    @property
    def rank(self) -> int:
        return len(self.generator_degrees)

    def term_key(self):
        return lambda t: (-t[0], mono_key(t[1]))


class ModuleElement:
    """Homogeneous-friendly element of a graded free module.

    Stored flat as {(component index, monomial): coefficient}.
    """

    __slots__ = ("module", "terms")

    def __init__(self, module: GradedFreeModule, terms: dict):
        self.module = module
        self.terms = {t: c for t, c in terms.items() if c}

    @classmethod
    def from_components(cls, module: GradedFreeModule, components: dict) -> "ModuleElement":
        terms = {}
        for i, poly in components.items():
            for m, c in poly.terms.items():
                terms[(i, m)] = c
        return cls(module, terms)

    def components(self) -> dict:
        """Sparse map component index -> Poly."""
        ring = self.module.ring
        out: dict = {}
        for (i, m), c in self.terms.items():
            out.setdefault(i, {})[m] = c
        return {i: Poly(ring, d) for i, d in out.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def term_degree(self, t) -> int:
        return mono_deg(t[1]) + self.module.generator_degrees[t[0]]

    def is_homogeneous(self) -> bool:
        degs = {self.term_degree(t) for t in self.terms}
        return len(degs) <= 1

    def degree(self):
        """Module degree of a homogeneous element; None for zero."""
        degs = {self.term_degree(t) for t in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError("module element is not homogeneous")
        return degs.pop()

    def leading(self):
        if not self.terms:
            raise AlgebraError("zero element has no leading term")
        t = max(self.terms, key=self.module.term_key())
        return t, self.terms[t]

    def monic(self) -> "ModuleElement":
        """The multiple with leading coefficient one (a Fraction over QQ,
        also where the terms are ints)."""
        if not self.terms:
            return self
        _, lc = self.leading()
        p = self.module.ring.field.char
        c = pow(lc, -1, p) if p else Fraction(1, lc)
        return ModuleElement(self.module, {t: v * c % p if p else v * c
                                           for t, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, ModuleElement) and self.module == other.module
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.module, frozenset(self.terms.items())))

    def __str__(self):
        comps = self.components()
        if not comps:
            return "0"
        return "(" + ", ".join(
            str(comps.get(i, self.module.ring.zero()))
            for i in range(self.module.rank)) + ")"

    def __repr__(self):
        return f"ModuleElement{self}"


# ---------------------------------------------------------------------------
# Buchberger; syzygies as the source block of the graph module.
# ---------------------------------------------------------------------------

def _integerize(d: dict) -> dict:
    """d scaled in place by a positive integer so that every coefficient is
    an integer (a no-op on residues mod p).  The reduction loop runs on
    integers only, so this runs where terms enter it."""
    dens = [c.denominator for c in d.values() if type(c) is not int]
    if dens:
        scale = lcm(*dens)
        for t, c in d.items():
            d[t] = c.numerator * (scale // c.denominator)
    return d


TERM_FIELD_BITS = 64


class _TermCodec:
    """The terms (component, monomial) of one module as ints T = base(comp)
    + L(mono), with L linear in the exponents and T ordered as the terms.

    Each field is TERM_FIELD_BITS = k bits wide, W = 2^k, n variables:
    L = deg * W^n - sum e_i W^i.  The exponents are the digits of a base-W
    number below the top field, which holds the degree, so for one degree
    comparing L compares the exponent vectors from the last variable,
    negated: degrevlex.  base(comp) = (rank - 1 - comp) * 2^span lies above
    every L, so component 0 is largest (position over term).  As L is
    linear, T + L(q) is the term times x^q, and within a component a
    quotient of terms is a difference of ints.

    The word of a term is its plain digits P = sum e_i W^i, read off T at
    one subtraction.  Each field keeps its top bit clear, so a divides b iff
    P(b) - P(a) sets no top bit: the lowest field where b falls short
    borrows into its own top bit.  The lcm of two words takes per field the
    larger digit, chosen by the same top bits.  Every degree, the top
    field's included, must stay below W / 2: a larger one raises
    ResourceCapError naming the stage, never wraps into a neighbouring field
    or component.  The bound is on the module degree D, set so that the
    monomials of degree D in every component fit; reductions and S-elements
    of homogeneous elements keep D.
    """

    def __init__(self, module: GradedFreeModule, stage: str):
        ring = module.ring
        k, n = TERM_FIELD_BITS, ring.nvars
        self.stage = stage
        self.p = ring.field.char
        self.rank = module.rank
        self.degrees = module.generator_degrees
        self.max_degree = (1 << (k - 1)) - 1 + min(self.degrees, default=0)
        self.top = k * n              # the degree field starts here
        self.digits = [k * i for i in range(n)]
        self.weights = [(1 << self.top) - (1 << s) for s in self.digits]
        self.span = self.top + k
        self.base = [(self.rank - 1 - c) << self.span for c in range(self.rank)]
        self.field = (1 << k) - 1
        self.guard = sum(1 << (s + k - 1) for s in self.digits)
        self.ones = sum(1 << s for s in self.digits)
        self.sizes: dict = {}       # module degree -> number of its terms
        self.layouts: dict = {}     # module degree -> (its terms, term -> index)

    def check_degree(self, d: int):
        """d is a module degree."""
        if d > self.max_degree:
            raise ResourceCapError(
                f"{self.stage}: degree {d} does not fit the "
                f"{TERM_FIELD_BITS}-bit term fields (at most {self.max_degree})")

    def encode(self, comp: int, mono: tuple) -> int:
        self.check_degree(sum(mono) + self.degrees[comp])
        return self.base[comp] + sum(map(mul, mono, self.weights))

    def encode_terms(self, terms: dict) -> dict:
        return {self.encode(c, m): v for (c, m), v in terms.items()}

    def from_word(self, comp: int, word: int, d: int) -> int:
        """The term of the word in component comp, of module degree d."""
        self.check_degree(d)
        return self.base[comp] + ((d - self.degrees[comp]) << self.top) - word

    def comp(self, t: int) -> int:
        return self.rank - 1 - (t >> self.span)

    def word(self, t: int) -> int:
        ell = t & ((1 << self.span) - 1)
        return (-(-ell >> self.top) << self.top) - ell

    def degree(self, word: int) -> int:
        """The monomial degree of a word (an lcm's too): its digit sum, which
        is field n - 1 of word * (1 + W + ... + W^(n-1)) and fits it."""
        return word * self.ones >> (self.top - TERM_FIELD_BITS) & self.field

    def divides(self, a: int, b: int) -> bool:
        """The term a divides the term b."""
        return (a >> self.span == b >> self.span
                and not (self.word(b) - self.word(a)) & self.guard)

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two words."""
        ge = ((a | self.guard) - b & self.guard) >> (TERM_FIELD_BITS - 1)
        return b ^ (a ^ b) & ((ge << TERM_FIELD_BITS) - ge)

    def layout_size(self, d: int) -> int:
        """The number of terms of module degree d, counted, not built."""
        size = self.sizes.get(d)
        if size is None:
            size = self.sizes[d] = free_module_dims(
                Counter(self.degrees), len(self.digits))(d)
        return size

    def layout(self, d: int) -> tuple:
        """(terms, index): every term of module degree d in descending order,
        and term -> its position there; built once per degree.  Within a
        component the terms of monomial degree e descend as their words
        ascend, and combinations_with_replacement of the digit powers from
        the last variable's down yields the words of degree e descending."""
        hit = self.layouts.get(d)
        if hit is None:
            self.check_degree(d)
            powers = [1 << s for s in reversed(self.digits)]
            terms: list = []
            for comp, g in enumerate(self.degrees):
                if d >= g:
                    head = self.base[comp] + ((d - g) << self.top)
                    words = list(map(sum, combinations_with_replacement(powers, d - g)))
                    terms.extend([head - w for w in reversed(words)])
            hit = self.layouts[d] = (terms, dict(zip(terms, range(len(terms)))))
        return hit

    def decode(self, t: int) -> tuple:
        word, mask = self.word(t), self.field
        return self.comp(t), tuple(word >> s & mask for s in self.digits)

    def decode_terms(self, terms: dict) -> dict:
        return {self.decode(t): c for t, c in terms.items()}


class _Reducers:
    """Reducer entries (from _reducer_entry) by component, answering how a
    term reduces: by the first entry whose leading monomial divides it.

    Entries are only ever appended, so a remembered reduction stays the one
    by the first divisor, and a term that had none is next checked against
    the new entries only.  Terms recur across the normal forms of one
    Buchberger run; the memo spares them the scan of the basis and the
    shift of the reducer's tail.  The heap accumulator remembers the
    shifted tail as terms (memo), the dense one as positions in its degree's
    layout (by_index), each in a memo of its own.
    """

    def __init__(self, codec: _TermCodec, entries=()):
        self.codec = codec
        self.by_comp: dict = {}
        self.memo: dict = {}        # term -> reduction, or the count of entries seen
        self.by_index: dict = {}    # the same, with the tail as layout positions
        for entry in entries:
            self.add(entry)

    def add(self, entry: dict):
        self.by_comp.setdefault(entry["ltcomp"], []).append(entry)

    def reduction(self, t: int, index: Optional[dict] = None):
        """(entry, shifted) for the first entry whose leading term divides
        the term t: shifted lists the terms of x^q * entry["tail"] for
        x^q = t / lt(entry), in the order of entry["tailcoeffs"], or with
        index (a _TermCodec.layout's) their positions in the layout.  None if
        no entry divides t.  Callers read a remembered reduction first."""
        memo = self.memo if index is None else self.by_index
        hit = memo.get(t, 0)
        codec = self.codec
        entries = self.by_comp.get(codec.comp(t), ())
        word, guard = codec.word(t), codec.guard
        for k in range(hit, len(entries)):
            entry = entries[k]
            if not (word - entry["ltword"]) & guard:
                shift = t - entry["lt"]
                if index is None:
                    hit = (entry, [u + shift for u in entry["tail"]])
                else:
                    hit = (entry, [index[u + shift] for u in entry["tail"]])
                memo[t] = hit
                return hit
        memo[t] = len(entries)
        return None


# The rule that picks the dense accumulator (_normal_form_terms).
DENSE_FLOOR = 16
DENSE_RATIO = 20


def _normal_form_terms(terms: dict, reducers: _Reducers, caps: Caps,
                       degree: Optional[int] = None) -> dict:
    """Normal form up to a nonzero scalar on a term dict with integer
    coefficients (_integerize) keyed by the reducers' codec.  degree, when
    given, is the module degree of every term: the caller knows the input
    is homogeneous.

    One integer loop serves both fields.  Reducers come from _reducer_entry.
    Over QQ it is fraction-free: the current term c and the reducer's leading
    coefficient l are cross-multiplied by their gcd cofactors, so every
    coefficient stays an integer and the result is a positive multiple of the
    normal form.  Mod p the same step runs on residues: reducers are monic, so
    nothing is rescaled and the result is the exact normal form.  Residues
    are lazy: a reducer's tail coefficient r enters as c * (p - r) (over QQ,
    p = 0, as -c * r), without a reduction mod p or the removal of a term
    that cancels; a coefficient is reduced mod p when the loop reaches its
    term or it leaves in the result, where a zero one is dropped.  Every
    term a reduction adds is smaller than the one it cancels, so the loop
    takes the terms largest-first and each reduction cancels the current
    maximum; it terminates degreewise.

    The terms wait in one of two accumulators, with the same steps in the
    same order, so both give the same normal form.  The heap one keeps the
    terms in a dict and their negations in a heap: a term enters the heap
    when it enters the dict and stays in the dict until it is popped.
    Terms in a component where no reducer leads never reduce, so they skip
    the heap and join the result at the end.  The dense one
    (_dense_normal_form) keeps a list over the layout of the input's degree
    (_TermCodec.layout) and sweeps it once from the top, with no logarithmic
    heap step per term.  It pays one step per layout slot, so it serves a
    homogeneous input of at least DENSE_FLOOR terms whose layout has at most
    DENSE_RATIO times as many; every other input, an inhomogeneous one
    included, takes the heap.  Measured on the benchmark's workloads: the
    maximal-minor ideals of the surjectivity test send about half of their
    normal forms to the dense sweep, and that workload runs about 16% more
    jobs per second, while with every normal form dense the Frobenius power
    of closure/squares/fp7 sweeps a 4950-term degree-98 layout per normal
    form and the paper workload runs about 15% fewer.  The rule reads only
    the input's size and a per-degree count (_TermCodec.layout_size), so a
    heap call builds no layout.
    """
    codec = reducers.codec
    if (degree is not None and len(terms) >= DENSE_FLOOR
            and codec.layout_size(degree) <= DENSE_RATIO * len(terms)):
        return _dense_normal_form(terms, reducers, caps, *codec.layout(degree))
    p, span = codec.p, codec.span
    live = {codec.rank - 1 - c for c in reducers.by_comp}
    every = len(live) == codec.rank
    memo = reducers.memo
    work = dict(terms)
    heap = [-t for t in work if every or t >> span in live]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    done: dict = {}
    while heap:
        t = -pop(heap)
        c = work.pop(t)
        if p:
            c %= p
        if not c:
            continue                # cancelled since it was queued
        reduction = memo.get(t)
        if type(reduction) is not tuple:
            reduction = reducers.reduction(t)
            if reduction is None:
                done[t] = c
                continue
        caps.check_time()
        reducer, shifted = reduction
        lead = reducer["ltcoeff"]
        cc = c
        if lead != 1:
            g = gcd(c, lead)
            cc //= g
            ll = lead // g
            if ll != 1:
                for d in (work, done):
                    for tt in d:
                        d[tt] *= ll
        for tt, rc in zip(shifted, reducer["tailcoeffs"]):
            old = work.get(tt)
            if old is None:
                work[tt] = cc * (p - rc)
                if every or tt >> span in live:
                    push(heap, -tt)
            else:
                work[tt] = old + cc * (p - rc)
    for t, c in work.items():
        if p:
            c %= p
        if c:
            done[t] = c
    return done


def _dense_normal_form(terms: dict, reducers: _Reducers, caps: Caps,
                       layout: list, index: dict) -> dict:
    """_normal_form_terms with the dense accumulator: acc[i] holds the
    coefficient of layout[i], the terms of the input's degree in descending
    order, and one sweep from the top takes them largest-first.  A
    reduction adds the reducer's tail at the layout positions of its shifted
    terms (_Reducers.by_index), all below the current one."""
    p = reducers.codec.p
    memo = reducers.by_index
    acc = [0] * len(layout)
    for t, c in terms.items():
        acc[index[t]] = c
    done: dict = {}
    for i, c in enumerate(acc):
        if not c:
            continue
        if p:
            c %= p
            if not c:
                continue            # cancelled mod p
        t = layout[i]
        reduction = memo.get(t)
        if type(reduction) is not tuple:
            reduction = reducers.reduction(t, index)
            if reduction is None:
                done[t] = c
                continue
        caps.check_time()
        reducer, shifted = reduction
        lead = reducer["ltcoeff"]
        cc = c
        if lead != 1:
            g = gcd(c, lead)
            cc //= g
            ll = lead // g
            if ll != 1:
                acc[i + 1:] = [x * ll for x in acc[i + 1:]]
                for tt in done:
                    done[tt] *= ll
        for j, rc in zip(shifted, reducer["tailcoeffs"]):
            acc[j] += cc * (p - rc)
    return done


def _reducer_entry(terms: dict, codec: _TermCodec) -> dict:
    """Normalize a nonzero term dict with integer coefficients keyed by the
    codec into a reducer for _normal_form_terms: over QQ the primitive
    integer vector with positive leading coefficient, mod p the monic one."""
    p = codec.p
    lt = max(terms)
    terms = dict(terms)
    if p:
        inv = pow(terms[lt], -1, p)
    else:
        g = gcd(*terms.values())
        if terms[lt] < 0:
            g = -g
    for t, c in terms.items():
        terms[t] = c * inv % p if p else c // g
    tail = [t for t in terms if t != lt]
    return {"terms": terms, "lt": lt, "ltword": codec.word(lt),
            "ltcomp": codec.comp(lt), "ltcoeff": terms[lt],
            "tail": tail, "tailcoeffs": [terms[t] for t in tail]}


def _gebauer_moller(codec: _TermCodec, lts: list, pending: dict, h: tuple,
                    product: bool) -> list:
    """Gebauer-Moeller update (Gebauer & Moeller 1988) for a basis with
    leading terms lts, (component, word) pairs (_TermCodec words), gaining
    the leading term h = (c, hw).  Pairs lie within one component, where
    the criteria below hold for module elements as for polynomials.

    Chain criterion: an old pair (i, j) of component c is deleted from
    pending when hw divides its lcm L and both lcm(lts[i], hw) and
    lcm(lts[j], hw) differ from L; its S-element then combines those of
    (i, new) and (j, new), whose lcms properly divide L.  New pairs (i, new),
    lts[i] in component c: a pair whose lcm is properly divisible by another
    new pair's lcm is dropped the same way; of the pairs with equal lcm the
    first is kept, or, with product set (rank one), none when one of them is
    coprime, since a coprime pair of polynomials reduces to zero (product
    criterion; it fails for vectors).  Equal-lcm pairs differ by an old pair
    that the chain criterion never deletes with h.  Returns the kept new
    pairs as (i, lcm word).
    """
    c, hw = h
    guard, lcm = codec.guard, codec.lcm
    new = {i: lcm(w, hw) for i, (comp, w) in enumerate(lts) if comp == c}
    for (i, j), big in list(pending.items()):
        if (i in new and not (big - hw) & guard
                and new[i] != big and new[j] != big):
            del pending[(i, j)]
    # coprime iff the lcm is the product, as the word sum
    coprime = {lc for i, lc in new.items() if product and lc == lts[i][1] + hw}
    # words order as monomials do under a lex order, so divisors come first
    minimal: list = []
    for lc in sorted(set(new.values())):
        if all((lc - o) & guard for o in minimal):
            minimal.append(lc)
    minimal = set(minimal)
    kept: dict = {}
    for i, lc in new.items():
        if lc in minimal and lc not in kept and lc not in coprime:
            kept[lc] = i
    return [(i, lc) for lc, i in kept.items()]


def _gb_core(gens, module: GradedFreeModule, caps: Caps,
             top: Optional[int] = None, expected=None,
             cover: Optional[set] = None) -> tuple:
    """Shared Buchberger driver on homogeneous elements; returns the run's
    _LeadingSpan, whose _TermCodec keys the basis, and the basis as reducer
    entries, in the order the run found them; callers decode only the terms
    they read.  Every update goes through _gebauer_moller, with the product
    criterion at rank one only.

    With top set, the run is truncated at degree top (degree-by-degree
    Buchberger, Kreuzer & Robbiano, Computational Commutative Algebra 2,
    4.5): inputs of degree above top are left out, and pairs whose lcm
    degree exceeds top are never queued.  Everything is homogeneous, so a
    normal form of degree d uses only basis elements of degree <= d, an
    S-pair of degree d yields an element of degree d, and a pair built on an
    element of degree d has degree >= d.  Pairs leave the heap in degree
    order, so the truncated run is the prefix of the full run that ends
    after its last pair of degree <= top (the pair criteria decide a pair
    from pairs of no larger degree; leaving out inputs above top shifts
    basis indices monotonely, so ties pop in the same order).  Its basis is
    a Groebner basis in degrees <= top: the full run's elements of degree
    <= top, in the same order.

    With expected, d -> the degree-d dimension of the submodule the gens
    span, the run is Hilbert-driven (Traverso, J. Symb. Comp. 22, 1996).
    Before it pops a pair of degree d it counts the degree-d terms divisible
    by a leading term of the basis (_LeadingSpan).  Basis multiples with
    these distinct leading terms are independent, so once the count reaches
    expected(d) they span the degree-d piece, every element of it reduces to
    zero, and the rest of the degree-d pairs are dropped unprocessed.  A
    wrong expected can only drop pairs that would have added elements: the
    basis still lies in the submodule but need not be a Groebner basis.

    With cover, a set of variable indices (ideal mode), the run adds each
    variable of which a new leading monomial is a pure power, and stops
    once the set holds every variable.
    """
    caps = caps.start()
    codec = _TermCodec(module, "buchberger")
    p = codec.p
    basis: list = []
    lts: list = []              # (component, word) per basis element
    reducers = _Reducers(codec)
    heap: list = []
    pending: dict = {}          # (i, j) -> lcm word of the pairs still to process
    processed_pairs = 0
    nvars = module.ring.nvars
    span = _LeadingSpan(codec)

    def covered() -> bool:
        return cover is not None and len(cover) == nvars

    def add_element(terms, degree):
        # terms is homogeneous of module degree degree, and so is its
        # normal form
        nf = _normal_form_terms(terms, reducers, caps, degree)
        if not nf:
            return
        entry = _reducer_entry(nf, codec)
        comp = entry["ltcomp"]
        caps.check_degree(degree)
        span.add(entry["lt"], degree)
        if cover is not None:
            support = [k for k, e in enumerate(codec.decode(entry["lt"])[1]) if e]
            if len(support) == 1:
                cover.add(support[0])
        idx = len(basis)
        lead = (comp, entry["ltword"])
        for i, lcm in _gebauer_moller(codec, lts, pending, lead, module.rank == 1):
            deg = codec.degree(lcm) + module.generator_degrees[comp]
            if top is not None and deg > top:
                continue
            pending[(i, idx)] = lcm
            heapq.heappush(heap, (deg, i, idx))
        basis.append(entry)
        lts.append(lead)
        reducers.add(entry)

    for gen in gens:
        if not gen.is_homogeneous():
            raise AlgebraError("generators must be homogeneous")
        if gen.is_zero():
            continue
        degree = gen.term_degree(next(iter(gen.terms)))
        if top is not None and degree > top:
            continue
        if covered():
            break
        add_element(_integerize(codec.encode_terms(gen.terms)), degree)

    while heap and not covered():
        deg, i, j = heapq.heappop(heap)
        lcm = pending.pop((i, j), None)
        if lcm is None:
            continue                # deleted by the chain criterion
        if expected is not None and span.size(deg) >= expected(deg):
            continue                # the degree is complete
        processed_pairs += 1
        caps.check_pairs(processed_pairs)
        caps.check_degree(deg)
        caps.check_time()
        a, b = basis[i], basis[j]
        top_term = codec.from_word(a["ltcomp"], lcm, deg)
        # gcd cofactors of the leading coefficients (both 1 mod p)
        g = gcd(a["ltcoeff"], b["ltcoeff"])
        s = add_scaled({}, b["ltcoeff"] // g, _shifted(a, top_term), p)
        add_element(add_scaled(s, -(a["ltcoeff"] // g), _shifted(b, top_term), p),
                    deg)
    return span, basis


def _shifted(entry: dict, term: int) -> dict:
    """x^q * entry["terms"] for x^q = term / lt(entry)."""
    shift = term - entry["lt"]
    return {u + shift: c for u, c in entry["terms"].items()}


def _reduce_basis(codec: _TermCodec, basis, module: GradedFreeModule,
                  caps: Caps):
    """Minimalize and tail-reduce the entries of a _gb_core run into the
    canonical reduced basis."""
    ordered = sorted(basis, key=lambda e: e["lt"])
    kept = []
    for e in ordered:
        if any(codec.divides(k["lt"], e["lt"]) for k in kept):
            continue
        kept.append(e)
    reduced = [_normal_form_terms(e["terms"], _Reducers(
        codec, (k for k in kept if k is not e)), caps,
        codec.degree(e["ltword"]) + module.generator_degrees[e["ltcomp"]])
        for e in kept]
    reduced.sort(key=max, reverse=True)
    return tuple(ModuleElement(module, codec.decode_terms(nf)).monic()
                 for nf in reduced)


class GroebnerBasis(Record):
    """Groebner basis of a submodule: its leading terms generate the
    leading-term module.  buchberger's is the reduced one: monic,
    auto-reduced, unique per order."""

    __slots__ = ("module", "elements")

    def __init__(self, module: GradedFreeModule, elements: tuple):
        self.module = module
        self.elements = elements

    def __len__(self):
        return len(self.elements)


def buchberger(generators: Sequence[ModuleElement],
               caps: Caps = NO_CAPS) -> GroebnerBasis:
    """Canonical reduced Groebner basis of the submodule the generators span."""
    gens = [g for g in generators]
    if not gens:
        raise AlgebraError("buchberger needs at least one generator (may be zero)")
    module = gens[0].module
    for g in gens:
        if g.module != module:
            raise AlgebraError("generators live in different modules")
    caps = caps.start()
    span, basis = _gb_core(gens, module, caps)
    return GroebnerBasis(module, _reduce_basis(span.codec, basis, module, caps))


def ideal_groebner(polys: Sequence[Poly], caps: Caps = NO_CAPS) -> GroebnerBasis:
    """Groebner basis of an ideal, as the rank-one module in degree zero."""
    if not polys:
        raise AlgebraError("empty generating set")
    ring = polys[0].ring
    module = GradedFreeModule(ring, (0,))
    gens = [ModuleElement.from_components(module, {0: p}) for p in polys]
    return buchberger(gens, caps)


def has_degree(p: Poly, want: int) -> bool:
    """True iff p is nonzero and homogeneous of degree want: one pass over
    the term degrees."""
    return set(map(sum, p.terms)) == {want}


def _validate_columns(columns, source: GradedFreeModule, target: GradedFreeModule):
    for i, col in enumerate(columns):
        for j, p in col:
            if p.ring != source.ring:
                raise GradingError(f"entry ({j},{i}) lives in the wrong ring")
            if p.is_zero():
                continue
            want = source.generator_degrees[i] - target.generator_degrees[j]
            if not has_degree(p, want):
                raise GradingError(
                    f"entry ({j},{i}) must be homogeneous of degree {want}")


def syzygy_module_columns(columns, source: GradedFreeModule,
                          target: GradedFreeModule,
                          caps: Caps = NO_CAPS,
                          top: Optional[int] = None) -> GroebnerBasis:
    """Groebner basis of the kernel, from one Buchberger run on the graph
    module (Greuel & Pfister, A Singular Introduction to Commutative
    Algebra, 2.5): the target components, then the source ones, with column
    i plus e_i as input i.  Under position-over-term the target comes first,
    so a basis element that leads in the source block has no target part,
    and these elements are a Groebner basis of the graph module's
    intersection with the source block, the kernel.  They are returned
    monic, not reduced, by degree and then leading term.  With top set, the
    run is truncated (_gb_core), and the result is a Groebner basis of the
    kernel in degrees <= top: the full run's elements of degree <= top, in
    the same order.
    """
    _validate_columns(columns, source, target)
    m = target.rank
    graph = GradedFreeModule(source.ring, target.generator_degrees
                             + source.generator_degrees)
    unit = (0,) * source.ring.nvars
    inputs = []
    for i, col in enumerate(columns):
        terms = {(j, mono): c for j, entry in col for mono, c in entry.terms.items()}
        terms[(m + i, unit)] = source.ring.field.one()
        inputs.append(ModuleElement(graph, terms))
    span, basis = _gb_core(inputs, graph, caps, top)
    key = source.term_key()
    kernel = (ModuleElement(source, {(k - m, mono): c for (k, mono), c in
                                     span.codec.decode_terms(b["terms"]).items()})
              for b in basis if b["ltcomp"] >= m)
    return GroebnerBasis(source, tuple(sorted(
        (e.monic() for e in kernel),
        key=lambda e: (e.degree(), key(e.leading()[0])))))


def apply_columns(columns, target: GradedFreeModule, element: ModuleElement) -> ModuleElement:
    """Image of a source element under the map with the given sparse columns."""
    p = target.ring.field.char
    out: dict = {}
    for i, poly in element.components().items():
        for j, entry in columns[i]:
            add_scaled(out, 1, {(j, m): c for m, c in (entry * poly).terms.items()}, p)
    return ModuleElement(target, out)


# ---------------------------------------------------------------------------
# Graded piece dimensions: leading-term counting and exact linear algebra.
# ---------------------------------------------------------------------------

class _LeadingSpan:
    """Counts the degree-d monomial terms of a module divisible by one of
    the leading terms added: by Macaulay's basis theorem, the degree-d
    dimension of a submodule whose leading terms in degrees <= d are these.
    The set S_d of such terms, encoded by a _TermCodec of the module (a
    Buchberger run's own), is x * S_{d-1} joined with the leading terms of
    degree d; it is built upward from below the lowest one, and its sizes
    are remembered for queries below the degree reached.  A leading term
    added at that degree joins S_d, one added below it makes the count
    start over."""

    def __init__(self, codec: _TermCodec):
        self.codec = codec
        self.leads: dict = {}       # degree -> encoded leading terms
        self.deg, self.span, self.sizes = None, set(), {}  # S_deg, |S_e| (e < deg)

    def add(self, t: int, d: int):
        """The encoded leading term t, of module degree d, joins."""
        self.leads.setdefault(d, []).append(t)
        if d == self.deg:
            self.span.add(t)
        elif self.deg is not None and d < self.deg:
            self.deg = None

    def size(self, d: int) -> int:
        if self.deg is None:
            self.deg = min(self.leads, default=d) - 1
            self.span, self.sizes = set(), {}
        steps = self.codec.weights      # x_v * t is t + weights[v]
        while self.deg < d:
            self.sizes[self.deg] = len(self.span)
            self.deg += 1
            self.codec.check_degree(self.deg)
            self.span = {t + x for t in self.span for x in steps}
            self.span.update(self.leads.get(self.deg, ()))
        return len(self.span) if d == self.deg else self.sizes.get(d, 0)


def free_module_dims(degrees: dict, nvars: int):
    """d -> the degree-d dimension of the sum over e of c copies of R(-e),
    for degrees e -> c (a negative c subtracts, as in an alternating sum),
    R the polynomial ring in nvars variables."""
    return lambda d: sum(c * comb(d - e + nvars - 1, nvars - 1)
                         for e, c in degrees.items() if d >= e)


def graded_piece_dim(gb: GroebnerBasis, t: int) -> int:
    """Dimension of the degree-t piece of the submodule a Groebner basis
    spans, counted on its leading terms."""
    codec = _TermCodec(gb.module, "leading-term count")
    span = _LeadingSpan(codec)
    for e in gb.elements:
        span.add(codec.encode(*e.leading()[0]), e.degree())
    return span.size(t)


def kernel_dims_gb(columns, source: GradedFreeModule, target: GradedFreeModule,
                   caps: Caps, top: int):
    """k -> dimension of the degree-k kernel piece, for every k <= top: by
    rank-nullity, the degree-k monomial terms of the source minus the
    degree-k piece of the image the columns span in the target.  One
    Buchberger run on the columns, truncated at top (_gb_core), is a
    Groebner basis in degrees <= top; it is not reduced, since that keeps
    its leading terms, which count the image on the run's _LeadingSpan."""
    _validate_columns(columns, source, target)
    gens = [ModuleElement(target, {(j, mono): c for j, entry in col
                                   for mono, c in entry.terms.items()})
            for col in columns]
    image, _ = _gb_core(gens, target, caps, top)
    free = free_module_dims(Counter(source.generator_degrees), source.ring.nvars)

    def dim(k: int) -> int:
        if k > top:
            raise AlgebraError(f"degree {k} lies above the run's top {top}")
        return free(k) - image.size(k)

    return dim


def _echelon_kernel(vectors, p: int, caps: Caps, want_vectors: bool = False):
    """Kernel dimension (and optionally combination vectors) of sparse columns
    with plain field entries: Fractions or ints over QQ (p == 0), residues
    mod p.  The input dicts are never written to.

    Each vector is a dict keyed by comparable row keys.  Pivots are chosen at
    the maximal row key, which makes every reduction strictly decrease the
    current maximum and guarantees termination.  The columns are eliminated
    sparsest first (a stable sort by term count), as structured elimination
    does (LaMacchia & Odlyzko, CRYPTO 1990): fewer terms fill in, and the rank
    does not depend on the order.

    A returned combination is the unique relation of a dependent column with
    the independent columns before it, in the given order (coefficient one on
    itself), so it depends neither on the order of elimination, nor on the
    row keys, nor on how the rows are scaled.  These relations are the
    reduced echelon basis of the kernel in which each vector leads at its
    largest column index: the columns that lead are exactly the dependent
    ones, and each vector vanishes at the others' leads.  That basis is
    unique, so one final pass computes it from the kernel vectors the
    elimination found (tracked by original column index): reduce them to
    echelon form at their largest index, clear every lead from the vectors
    above it, and scale each to one at its lead.  They are returned in
    increasing order of the lead.

    A pivot is stored as (tail, combination, lc), its row without the lead
    entry.  Mod p the row is stored as it stands (no monic copy) and lc is
    -1/lead, so a row whose lead entry is c takes c * lc times the pivot.
    Over QQ the rows are integers (fraction-free): each column is scaled by
    the lcm of its denominators, a pivot is primitive with a positive lead
    entry lc, and a row whose lead entry is c becomes a*v - b*pivot, with
    (a, b) = (lc, c) / gcd(lc, c), divided by its content when a != 1.  The
    combination is tracked in the same integers, so the content is taken over
    both; the final pass undoes the column scales and returns Fractions.
    """
    caps = caps.start()
    pivots: dict = {}
    kernel = []
    kernel_dim = 0
    scales = {}
    for idx in sorted(range(len(vectors)), key=lambda i: len(vectors[i])):
        caps.check_time()
        vec = vectors[idx]
        if p:
            v = dict(vec)
        else:
            scale = lcm(*[x.denominator for x in vec.values()])
            v = {k: x.numerator * (scale // x.denominator) for k, x in vec.items()}
            scales[idx] = scale
        combo = {idx: 1} if want_vectors else None
        lead = _reduce_to_new_lead(v, combo, pivots, p)
        if lead is None:
            kernel_dim += 1
            if want_vectors:
                kernel.append(combo)
        else:
            pivots[lead] = _make_pivot(v, combo, lead, p)
    if not want_vectors:
        return kernel_dim, []
    return kernel_dim, _canonical_kernel(kernel, scales, p, caps)


def _reduce_to_new_lead(v: dict, combo, pivots: dict, p: int):
    """Reduce v (and its combination) by the pivots at its lead until the
    lead has no pivot; the lead, or None once v is zero."""
    while v:
        lead = max(v)
        hit = pivots.get(lead)
        if hit is None:
            return lead
        _clear(v, combo, v.pop(lead), hit, p)
    return None


def _clear(v: dict, combo, c, hit, p: int):
    """Add to v (and combo, None when not tracked) the multiple of the pivot
    hit = (tail, track, lc) that cancels the entry c just popped from v."""
    tail, track, lc = hit
    if p:
        a, c = 1, c * lc % p
    else:
        g = gcd(lc, c)
        a, c = lc // g, -c // g
        if a != 1:
            for k in v:
                v[k] *= a
            if combo:
                for k in combo:
                    combo[k] *= a
    add_scaled(v, c, tail, p)
    if combo is not None:
        add_scaled(combo, c, track, p)
    if a != 1:
        _divide_content(v, combo)


def _make_pivot(v: dict, combo, lead, p: int) -> tuple:
    """The pivot (tail, combo, lc) of a row v leading at lead; v becomes its
    tail."""
    if p:
        return v, combo, -pow(v.pop(lead), -1, p) % p
    _divide_content(v, combo, -1 if v[lead] < 0 else 1)
    return v, combo, v.pop(lead)


def _canonical_kernel(kernel: list, scales: dict, p: int, caps: Caps) -> list:
    """The reduced echelon basis of the span of kernel (relations keyed by
    column index, over the columns scaled by scales when p == 0), each vector
    one at its largest index, in increasing order of that index."""
    rows: dict = {}
    for combo in kernel:
        caps.check_time()
        if not p:
            combo = {k: x * scales[k] for k, x in combo.items()}
        lead = _reduce_to_new_lead(combo, None, rows, p)
        rows[lead] = _make_pivot(combo, None, lead, p)
    out = []
    for lead in sorted(rows):
        caps.check_time()
        tail, _, lc = rows[lead]
        if not p:
            tail[lead] = lc
        for k in [k for k in tail if k in rows and k != lead]:
            _clear(tail, None, tail.pop(k), rows[k], p)
        if p:
            inv = p - lc
            out.append({lead: 1, **{k: x * inv % p for k, x in tail.items()}})
        else:
            rows[lead] = _make_pivot(tail, None, lead, 0)
            lc = rows[lead][2]
            out.append({lead: Fraction(1),
                        **{k: Fraction(x, lc) for k, x in tail.items()}})
    return out


def _divide_content(v: dict, combo, sign: int = 1):
    """Divide an integer row and its combination (None when not tracked) by
    sign (+1 or -1) times their content."""
    g = gcd(*v.values(), *combo.values()) if combo else gcd(*v.values())
    g *= sign
    if g and g != 1:
        for k in v:
            v[k] //= g
        if combo:
            for k in combo:
                combo[k] //= g


def _monomial_vectors(nvars: int, d: int) -> list:
    """The monomial sections of degree d as vectors {((), mono): 1}."""
    return [{((), mono): 1} for mono in monomials_of_degree(nvars, d)]


def _section_kernel(columns, sections, p: int, caps: Caps,
                    want_vectors: bool = False):
    """Kernel of a presentation on given sections of its source.

    sections[i] lists sparse vectors {(beta, mono): c} in source summand i,
    beta an index tuple (() for monomial sections).  Each vector is mapped
    through column i to the target coordinates (j, beta, mono), the images
    are eliminated, and each kernel combination is lifted to
    {((i,) + beta, mono): c}.  Returns (kernel dimension, lifted vectors,
    empty unless want_vectors).

    A target coordinate is one int, block(j, beta) << span plus the exponents
    of mono as digits of w bits, span = w * nvars.  Every exponent of an
    image is at most the largest entry degree plus the largest section
    degree, which is below 2^w, so a sum of exponents never carries into the
    next digit: a product of monomials is one addition, and distinct
    coordinates are distinct ints.  So the image of a vector is a sum of
    shifts of its coordinates in block j, one per term of the entry in row j.
    A vector with several terms is packed into those coordinates once per
    block j: slots with equal twists list the same vectors, so the packing
    is kept by vector for the call.
    """
    terms = [[(j, em, ec) for j, entry in col for em, ec in entry.terms.items()]
             for col in columns]
    monos = {mono for vecs in sections for vec in vecs for _, mono in vec}
    if not monos:
        return 0, []
    top = max(map(sum, monos)) + max((sum(em) for col in terms for _, em, _ in col),
                                     default=0)
    w = top.bit_length()
    shifts = [w * v for v in range(len(next(iter(monos))))]
    span = w * len(shifts)

    def pack(mono):
        return sum(e << s for e, s in zip(mono, shifts))

    packed = {mono: pack(mono) for mono in monos}
    blocks: dict = {}
    packs: dict = {}            # (id(vec), j) -> [(coordinate of (j, beta, mono), c)]

    def pack_vector(vec, j):
        key = (id(vec), j)
        hit = packs.get(key)
        if hit is None:
            hit = packs[key] = [
                (blocks.setdefault((j, beta), len(blocks) << span) + packed[mono], c)
                for (beta, mono), c in vec.items()]
        return hit

    images = []
    labels = []
    for i, col in enumerate(terms):
        col = [(j, pack(em), ec) for j, em, ec in col]
        by_row: dict = {}       # j -> [(packed em, ec)]
        for j, pem, ec in col:
            by_row.setdefault(j, []).append((pem, ec))
        rows: dict = {}         # beta -> [(coordinate of (j, beta, em), ec)]
        for vec in sections[i]:
            if len(vec) == 1 and next(iter(vec.values())) == 1:
                # one unit term: a monomial section or a kernel vector scaled
                # to one at its lead
                (beta, mono), = vec
                row = rows.get(beta)
                if row is None:
                    row = rows[beta] = [
                        (blocks.setdefault((j, beta), len(blocks) << span) + pem, ec)
                        for j, pem, ec in col]
                m = packed[mono]
                out = {r + m: ec for r, ec in row}
            else:
                out = {}
                get = out.get
                for j, ents in by_row.items():
                    for r, c in pack_vector(vec, j):
                        unit = c == 1
                        for pem, ec in ents:
                            x = ec if unit else c * ec
                            old = get(r + pem)
                            out[r + pem] = x if old is None else old + x
                if p:
                    out = {r: y for r, x in out.items() if (y := x % p)}
                else:
                    out = {r: x for r, x in out.items() if x}
            images.append(out)
            labels.append((i, vec))
    dim, combos = _echelon_kernel(images, p, caps, want_vectors)
    lifted = []
    for combo in combos:
        out = {}
        get = out.get
        for idx, coeff in combo.items():
            i, vec = labels[idx]
            for (beta, mono), c in vec.items():
                key = ((i,) + beta, mono)
                x = coeff if c == 1 else coeff * c
                old = get(key)
                out[key] = x if old is None else old + x
        if p:
            out = {key: y for key, x in out.items() if (y := x % p)}
        else:
            out = {key: x for key, x in out.items() if x}
        lifted.append(out)
    return dim, lifted


def _monomial_sections(source: GradedFreeModule, t: int) -> list:
    """Per source summand, its monomial sections in module degree t."""
    nvars = source.ring.nvars
    return [_monomial_vectors(nvars, t - d) for d in source.generator_degrees]


def kernel_dim_linalg(columns, source: GradedFreeModule, target: GradedFreeModule,
                      t: int, caps: Caps = NO_CAPS) -> int:
    """Dimension of the degree-t kernel piece by exact elimination.

    This is the independent oracle for section dimensions: it never touches
    Groebner bases, only the scalar matrix of the degree-t component.
    """
    _validate_columns(columns, source, target)
    dim, _ = _section_kernel(columns, _monomial_sections(source, t),
                             source.ring.field.char, caps)
    return dim


def kernel_sections_linalg(columns, source: GradedFreeModule,
                           target: GradedFreeModule, t: int,
                           caps: Caps = NO_CAPS):
    """Degree-t kernel dimension together with explicit kernel elements."""
    _validate_columns(columns, source, target)
    dim, vectors = _section_kernel(columns, _monomial_sections(source, t),
                                   source.ring.field.char, caps, want_vectors=True)
    return dim, [ModuleElement(source, {(alpha[0], mono): c
                                        for (alpha, mono), c in v.items()})
                 for v in vectors]


# ---------------------------------------------------------------------------
# Ideal-theoretic tests.
# ---------------------------------------------------------------------------

def ideal_membership(f: Poly, gb: GroebnerBasis, caps: Caps = NO_CAPS) -> bool:
    """True iff the normal form of f against the ideal's basis vanishes; a
    nonzero scalar multiple of it answers that as well."""
    caps = caps.start()
    if gb.module.rank != 1:
        raise AlgebraError("ideal membership needs a rank-one module")
    codec = _TermCodec(gb.module, "ideal membership")
    reducers = _Reducers(codec, (_reducer_entry(_integerize(codec.encode_terms(e.terms)),
                                                codec)
                                 for e in gb.elements))
    terms = _integerize(codec.encode_terms({(0, m): c for m, c in f.terms.items()}))
    return not _normal_form_terms(terms, reducers, caps)


PRIMARY_TEST_PRIME = 32003


def _leading_terms_cover_variables(polys, caps: Caps,
                                   expected=None) -> Optional[_LeadingSpan]:
    """The run's _LeadingSpan when the leading-term ideal of the
    homogeneous, non-constant polys (zeros ignored) contains a pure power of
    every variable, else None.  The run (_gb_core) stops at the first cover:
    its elements lie in the ideal I, so their leading monomials lie in
    LT(I).  Without a cover it completes the basis, whose leading monomials
    generate LT(I), so a "no" is a proof too; not so with expected, which
    may drop pairs, and then only a "yes" is."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return None
    module = GradedFreeModule(polys[0].ring, (0,))
    covered: set = set()
    span, _ = _gb_core([ModuleElement.from_components(module, {0: p})
                        for p in polys],
                       module, caps, expected=expected, cover=covered)
    return span if len(covered) == module.ring.nvars else None


def is_irrelevant_primary(generators: Sequence[Poly], caps: Caps = NO_CAPS,
                          expected=None) -> Optional[_LeadingSpan]:
    """A true value iff the homogeneous ideal has radical equal to
    (X_0, ..., X_N): the _LeadingSpan of the run that proved the cover, or
    None.

    Zero-dimensionality test: the leading-term ideal must contain a pure
    power of every variable.  The unit ideal fails the test.  Every "yes"
    comes from a cover: Buchberger elements of I whose leading monomials
    hold a pure power of every variable.  These powers lie in LT(I), so
    R/LT(I), and with it R/I (same Hilbert function), is finite-dimensional:
    I is m-primary, m = (X_0, ..., X_N).

    expected, when given, is the Hilbert function d -> dim I_d that I has if
    it is m-primary (bundle.minor_ideal_dims reads it off the Eagon-Northcott
    resolution).  The first run is then Hilbert-driven (_gb_core): it drops
    the pairs of a degree whose piece its leading terms already fill.  A
    dropped pair can only lose elements, never add one outside I, so a wrong
    expected can cost a fallback but never a wrong "yes"; on a "yes" the
    prediction is exact and the dropped pairs are exactly those that reduce
    to zero.  Without a cover the test falls back to a plain run, which
    completes the basis, so its "no" is a proof.

    Over QQ the test first runs on the generators reduced mod
    PRIMARY_TEST_PRIME, and a "yes" there is a proof.  Scale the generators
    to be p-integral.  The degree-d piece I_d is the row space of the
    Macaulay matrix whose rows are the products x^a * f_i of degree d, and
    the reduction of that matrix mod p spans (I_p)_d, where I_p is generated
    by the reduced f_i.  A minor that is nonzero mod p is nonzero over QQ, so
    rank mod p <= rank over QQ.  Hence I_p containing m^d (all forms of
    degree d) forces I to contain m^d, and I is m-primary.  A "no" mod p
    proves nothing (the prime may kill a generator or a minor), so the test
    then runs over QQ, without expected.  The pass is skipped when the prime
    divides a denominator, since the generators have no image mod p.  Over
    F_p the plain run follows a driven one only when expected is given.
    It reduces an ideal's generators, not a bundle, so it is the one modular
    pass that keeps its own reduction instead of bundle.modular_twin.

    The span bounds the Hilbert function of R/I from above in every degree
    d, not only below the degree where the run stopped: each of its
    span.size(d) terms is x^a * lt(g) for an element g of the run, so the
    products x^a * g are that many independent elements of (I_p)_d (or of
    I_d), and dim (I_p)_d <= dim I_d by the Macaulay rank argument above.
    So HF(R/I, d) <= dim R_d - span.size(d).  The Koszul counter of
    stability.hoppe_check reads it there.
    """
    caps = caps.start()
    polys = [p for p in generators if not p.is_zero()]
    if not polys:
        return None
    for p in polys:
        if not p.is_homogeneous():
            raise AlgebraError("primary test requires homogeneous generators")
    if any(p.is_constant() for p in polys):
        return None                 # the unit ideal
    ring = polys[0].ring
    span = None
    if ring.field.char == 0:
        ring_p = PolyRing(ring.variables, FieldSpec(PRIMARY_TEST_PRIME))
        try:
            reduced = [reduce_poly_mod_p(p, ring_p) for p in polys]
        except CoefficientError:
            pass                    # the prime divides a denominator
        else:
            span = _leading_terms_cover_variables(reduced, caps, expected)
    elif expected is not None:
        span = _leading_terms_cover_variables(polys, caps, expected)
    return span or _leading_terms_cover_variables(polys, caps)
