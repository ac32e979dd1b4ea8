"""Kernel-bundle data model: validation, exact numeric invariants, twisting,
pullback along coordinate-power morphisms, and reduction mod p.

A kernel bundle on P^N is the kernel of a surjective map between splitting
bundles, recorded as twist lists a_1 >= ... >= a_n, b_1 >= ... >= b_m and an
m x n matrix whose (j,i) entry is zero or homogeneous of degree b_j - a_i.
Entry degrees are always dictated by the twist lists, never inferred from the
entries, so zero entries are meaningful.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from typing import Optional, Sequence

from .algebra import (AlgebraError, CoefficientError, FieldSpec, Poly,
                      PolyRing, Record, mono_mul, reduce_poly_mod_p,
                      substitute_powers)
from .modgb import (Caps, GradedFreeModule, NO_CAPS, free_module_dims,
                    has_degree, is_irrelevant_primary)


class BundleError(AlgebraError):
    pass


def module_from_twists(ring: PolyRing, twists: Sequence[int]) -> GradedFreeModule:
    """Sheaf twist a corresponds to module generator degree -a."""
    return GradedFreeModule(ring, tuple(-t for t in twists))


class KernelBundle(Record):
    """Presentation 0 -> E -> (+) O(a_i) -> (+) O(b_j) -> 0 on P^N; matrix
    holds m rows, each a tuple of n Poly entries."""

    __slots__ = ("ring", "twists_a", "twists_b", "matrix")

    def __init__(self, ring: PolyRing, twists_a: tuple, twists_b: tuple,
                 matrix: tuple):
        self.ring = ring
        self.twists_a = twists_a
        self.twists_b = twists_b
        self.matrix = matrix

    @property
    def N(self) -> int:
        return self.ring.nvars - 1

    @property
    def n(self) -> int:
        return len(self.twists_a)

    @property
    def m(self) -> int:
        return len(self.twists_b)

    @property
    def rank(self) -> int:
        return self.n - self.m

    def source_module(self) -> GradedFreeModule:
        return module_from_twists(self.ring, self.twists_a)

    def target_module(self) -> GradedFreeModule:
        return module_from_twists(self.ring, self.twists_b)

    def columns(self):
        """Sparse columns [(row index, nonzero entry), ...] per source index."""
        cols = []
        for i in range(self.n):
            col = [(j, self.matrix[j][i]) for j in range(self.m)
                   if not self.matrix[j][i].is_zero()]
            cols.append(col)
        return cols

    def describe(self) -> str:
        return (f"kernel bundle on P^{self.N}: a={list(self.twists_a)}, "
                f"b={list(self.twists_b)}, rank {self.rank}")


def make_kernel_bundle(ring: PolyRing, twists_a, twists_b, matrix) -> KernelBundle:
    """Assemble a bundle, sorting both twist lists (matrix permuted
    consistently) so equal presentations compare equal."""
    twists_a = list(twists_a)
    twists_b = list(twists_b)
    rows = [list(r) for r in matrix]
    if len(rows) != len(twists_b) or any(len(r) != len(twists_a) for r in rows):
        raise BundleError("matrix shape does not match the twist lists")
    col_perm = sorted(range(len(twists_a)), key=lambda i: (-twists_a[i], i))
    row_perm = sorted(range(len(twists_b)), key=lambda j: (-twists_b[j], j))
    twists_a = [twists_a[i] for i in col_perm]
    twists_b = [twists_b[j] for j in row_perm]
    rows = [[rows[j][i] for i in col_perm] for j in row_perm]
    return KernelBundle(ring, tuple(twists_a), tuple(twists_b),
                        tuple(tuple(r) for r in rows))


def from_syzygy(generators: Sequence[Poly], twist: int = 0) -> KernelBundle:
    """Kernel presentation of Syz(f_1..f_n)(c) over the ring of f_1:
    a_i = c - deg f_i, b = (c)."""
    if len(generators) < 2:
        raise BundleError("a syzygy bundle needs at least two generators")
    for f in generators:
        if f.is_zero() or not f.is_homogeneous():
            raise BundleError("syzygy generators must be nonzero homogeneous")
        if f.is_constant():
            raise BundleError("constant syzygy generator gives a split summand")
    a = [twist - f.homogeneous_degree() for f in generators]
    return make_kernel_bundle(generators[0].ring, a, (twist,), [list(generators)])


def syzygy_forms(bundle: KernelBundle) -> Optional[tuple]:
    """The forms f_i of a syzygy bundle Syz(f_1..f_n)(b_1), deg f_i = b_1 - a_i:
    the row of a one-row presentation without a zero entry, else None."""
    if bundle.m != 1 or any(f.is_zero() for f in bundle.matrix[0]):
        return None
    return bundle.matrix[0]


class ValidationProblem(Record):
    __slots__ = ("code", "location", "message")
    __hash__ = None

    def __init__(self, code: str, location: tuple, message: str):
        self.code = code
        self.location = location
        self.message = message

    def __str__(self):
        where = f" at {self.location}" if self.location else ""
        return f"{self.code}{where}: {self.message}"


class ValidationReport(Record):
    """span is the _LeadingSpan of the run that proved surjectivity (see
    modgb.is_irrelevant_primary), None unless it was proved."""

    __slots__ = ("problems", "surjective", "span")
    __hash__ = None

    def __init__(self, problems: list, surjective: bool | None = None,
                 span=None):
        self.problems = problems
        self.surjective = surjective
        self.span = span

    @property
    def ok(self) -> bool:
        return not self.problems


def maximal_minors(bundle: KernelBundle):
    """All m x m minors of the presenting matrix, one per column subset in
    the order of combinations(range(n), m); for m = 1 the entries themselves.

    Fraction-free: each row is scaled by the lcm of its denominators (mod p
    by one), cofactor expansion along the rows runs on integer coefficients,
    sharing the subminors of the lower rows, and each minor is divided once
    by the product of the row scales, since the determinant is linear in
    each row."""
    if bundle.m == 1:
        return list(bundle.matrix[0])
    ring = bundle.ring
    p = ring.field.char
    m = bundle.m
    rows = []
    scale = 1
    for row in bundle.matrix:
        dens = [c.denominator for e in row for c in e.terms.values()
                if isinstance(c, Fraction)]
        s = lcm(*dens) if dens else 1
        rows.append([{mono: c.numerator * (s // c.denominator)
                      for mono, c in e.terms.items()}
                     for e in row])
        scale *= s
    memo: dict = {}

    def det(cols):
        """The minor on cols and the last len(cols) rows."""
        hit = memo.get(cols)
        if hit is not None:
            return hit
        row = rows[m - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        out: dict = {}
        for k, c in enumerate(cols):
            if not row[c]:
                continue
            sub = det(cols[:k] + cols[k + 1:])
            sign = -1 if k % 2 else 1
            for m1, c1 in row[c].items():
                c1 *= sign
                for m2, c2 in sub.items():
                    key = mono_mul(m1, m2)
                    out[key] = out.get(key, 0) + c1 * c2
        if p:
            out = {mono: c % p for mono, c in out.items()}
        hit = memo[cols] = {mono: c for mono, c in out.items() if c}
        return hit

    return [Poly(ring, {mono: c if p else Fraction(c, scale)
                        for mono, c in det(cols).items()})
            for cols in combinations(range(bundle.n), m)]


def minor_ideal_dims(bundle: KernelBundle):
    """d -> dim I_d for the ideal I of maximal minors of a surjective map,
    read off the Eagon-Northcott complex; None unless n - m == N.

    A surjective map has I m-primary, of grade N + 1 = n - m + 1, the most a
    maximal-minor ideal can have, so the Eagon-Northcott complex (Eagon &
    Northcott, Proc. R. Soc. A 269, 1962) with F = (+) R(a_i) and
    G = (+) R(b_j),

        0 -> C_{n-m+1} -> ... -> C_1 -> R -> R/I -> 0,
        C_{k+1} = Lambda^{m+k} F (x) D_k(G*) (x) Lambda^m G*,

    is a graded free resolution of R/I.  Its terms depend only on the
    twists: C_{k+1} has one generator of degree sum(b) + sum(M) - sum(T) per
    (m+k)-subset T of the a's and size-k multiset M of the b's, and
    dim I_d = sum_k (-1)^k sum over C_{k+1}'s generators g of
    dim R_{d - deg g}.  For m = 1 it is the Koszul complex of the N+1
    entries."""
    n, m, N = bundle.n, bundle.m, bundle.N
    if n - m != N:
        return None
    a, b = bundle.twists_a, bundle.twists_b
    degrees: Counter = Counter()
    for k in range(n - m + 1):
        for T in combinations(a, m + k):
            for M in combinations_with_replacement(b, k):
                degrees[sum(b) + sum(M) - sum(T)] += (-1) ** k

    return free_module_dims(degrees, N + 1)


def validate(bundle: KernelBundle, check_surjectivity: bool = False,
             caps: Caps = NO_CAPS) -> ValidationReport:
    """Check the presentation invariants; optionally certify surjectivity.

    Surjectivity holds iff the ideal of all m x m minors has radical
    (X_0, ..., X_N), which is decided by the zero-dimensionality test,
    Hilbert-driven by minor_ideal_dims where n - m = N.  The report keeps
    the leading-term span of the run that proved it.
    """
    caps = caps.start()
    problems = []
    n, m = bundle.n, bundle.m
    if not (n > m >= 1):
        problems.append(ValidationProblem(
            "shape", (), f"need n > m >= 1, got n={n}, m={m}"))
    if bundle.N < 2:
        problems.append(ValidationProblem(
            "dimension", (), f"need projective dimension N >= 2, got {bundle.N}"))
    if list(bundle.twists_a) != sorted(bundle.twists_a, reverse=True):
        problems.append(ValidationProblem(
            "unsorted", (), "twists a must be non-increasing"))
    if list(bundle.twists_b) != sorted(bundle.twists_b, reverse=True):
        problems.append(ValidationProblem(
            "unsorted", (), "twists b must be non-increasing"))
    for j in range(m):
        for i in range(n):
            p = bundle.matrix[j][i]
            if p.ring != bundle.ring:
                problems.append(ValidationProblem(
                    "ring-mismatch", (j, i), "entry in a different ring"))
                continue
            if p.is_zero():
                continue
            want = bundle.twists_b[j] - bundle.twists_a[i]
            if not has_degree(p, want):
                problems.append(ValidationProblem(
                    "degree-mismatch", (j, i),
                    f"entry must be homogeneous of degree {want}"))
                continue
            if p.is_constant():
                problems.append(ValidationProblem(
                    "constant-entry", (j, i),
                    "nonzero constant entries are not allowed"))
    surjective = span = None
    if check_surjectivity and not problems:
        span = is_irrelevant_primary(
            [p for p in maximal_minors(bundle) if not p.is_zero()] or
            [bundle.ring.zero()], caps, expected=minor_ideal_dims(bundle))
        surjective = span is not None
        if not surjective:
            problems.append(ValidationProblem(
                "not-surjective", (),
                "the ideal of maximal minors is not irrelevant-primary"))
    return ValidationReport(problems, surjective, span)


def require_valid(bundle: KernelBundle, check_surjectivity: bool = False,
                  caps: Caps = NO_CAPS) -> ValidationReport:
    """validate's report, or BundleError naming its problems."""
    report = validate(bundle, check_surjectivity, caps)
    if not report.ok:
        raise BundleError("; ".join(str(p) for p in report.problems))
    return report


class Invariants(Record):
    """rank, c1, slope, c2 and discriminant, all exact."""

    __slots__ = ("rank", "c1", "mu", "c2", "delta")

    def __init__(self, rank: int, c1: int, mu: Fraction, c2: Fraction,
                 delta: Fraction):
        self.rank = rank
        self.c1 = c1
        self.mu = mu
        self.c2 = c2
        self.delta = delta


def invariants(bundle: KernelBundle) -> Invariants:
    """Chern data from multiplicativity of the Chern polynomial on the
    presenting sequence:

        c1 = sum(a) - sum(b)
        c2 = (sum(a)^2 - sum(a^2))/2 + (sum(b)^2 + sum(b^2))/2 - sum(a)*sum(b)
        delta = 2*rank*c2 - (rank-1)*c1^2
    """
    a, b = bundle.twists_a, bundle.twists_b
    r = bundle.rank
    if r < 1:
        raise BundleError(f"rank {r}: the slope needs rank >= 1")
    sa, sb = sum(a), sum(b)
    sa2 = sum(x * x for x in a)
    sb2 = sum(x * x for x in b)
    c1 = sa - sb
    c2 = Fraction(sa * sa - sa2, 2) + Fraction(sb * sb + sb2, 2) - sa * sb
    delta = 2 * r * c2 - (r - 1) * c1 * c1
    return Invariants(rank=r, c1=c1, mu=Fraction(c1, r), c2=c2, delta=delta)


def twist(bundle: KernelBundle, c: int) -> KernelBundle:
    """Tensor by O(c): all twists shift by c, the matrix is unchanged."""
    return KernelBundle(bundle.ring,
                        tuple(a + c for a in bundle.twists_a),
                        tuple(b + c for b in bundle.twists_b),
                        bundle.matrix)


def pullback_powers(bundle: KernelBundle, k: int) -> KernelBundle:
    """Pullback along X_i -> X_i^k: twists scale by k, entries substitute."""
    if k < 1:
        raise BundleError(f"pullback power must be >= 1, got {k}")
    rows = tuple(tuple(substitute_powers(p, k) for p in row)
                 for row in bundle.matrix)
    return KernelBundle(bundle.ring,
                        tuple(a * k for a in bundle.twists_a),
                        tuple(b * k for b in bundle.twists_b),
                        rows)


def reduce_bundle_mod_p(bundle: KernelBundle, prime: int) -> KernelBundle:
    """The presentation with every entry reduced by reduce_poly_mod_p."""
    ring_p = PolyRing(bundle.ring.variables, FieldSpec(prime))
    rows = tuple(tuple(reduce_poly_mod_p(p, ring_p) for p in row)
                 for row in bundle.matrix)
    return KernelBundle(ring_p, bundle.twists_a, bundle.twists_b, rows)


def modular_twin(bundle: KernelBundle, prime: int) -> Optional[KernelBundle]:
    """The bundle reduced mod prime, for every modular pass on a bundle;
    None over F_p or when prime divides a denominator."""
    try:
        return None if bundle.ring.field.char else reduce_bundle_mod_p(bundle, prime)
    except CoefficientError:
        return None
