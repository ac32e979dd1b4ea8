"""Named bundles and rings shared across the test suite."""

from fractions import Fraction
import random

from kbundle.algebra import FieldSpec, make_ring, parse_many, parse_polynomial
from kbundle.bundle import from_syzygy, make_kernel_bundle

RING_QQ3 = make_ring(3)


def P(text, ring=RING_QQ3):
    return parse_polynomial(text, ring)


def syzygy_bundle(gens, twist=0, ring=RING_QQ3):
    return from_syzygy(parse_many(gens, ring), twist)


def five_quadrics():
    """Syz(X^2-Y^2, X^2-Z^2, XY, XZ, YZ): rank 4, slope -5/2."""
    return syzygy_bundle(["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"])


def five_quartics(twist=0):
    """Syz(X^4-Y^4, X^4-Z^4, X^2Y^2, X^2Z^2, Y^2Z^2)(twist): rank 4."""
    return syzygy_bundle(
        ["X^4 - Y^4", "X^4 - Z^4", "X^2*Y^2", "X^2*Z^2", "Y^2*Z^2"], twist)


def dual_five_monomials():
    """Dual presentation of Syz(X^2, Y^2, XY, XZ, YZ): 0 -> S* -> O(3)^6 -> O(4)^2.

    The transposed resolution matrix has rows
    (X, -Y, -Y, 0, -Z, 0) and (0, 0, X, -Y, 0, Z).
    """
    ring = RING_QQ3
    row1 = ["X", "-Y", "-Y", "0", "-Z", "0"]
    row2 = ["0", "0", "X", "-Y", "0", "Z"]
    matrix = [[P(t, ring) for t in row1], [P(t, ring) for t in row2]]
    return make_kernel_bundle(ring, [3] * 6, [4, 4], matrix)


def monomial_cubes_family():
    """Syz(X^3, Y^3, Z^3, XY^2Z^2): rank 3, slope -14/3, not semistable."""
    return syzygy_bundle(["X^3", "Y^3", "Z^3", "X*Y^2*Z^2"])


def sl3_bundle():
    """Syz(X^3, Y^3, Z^3, XYZ)(4): stable of degree 0, rank 3."""
    return syzygy_bundle(["X^3", "Y^3", "Z^3", "X*Y*Z"], twist=4)


def rank2_degree0_bundle():
    """Syz(X^2, Y^2, Z^2)(3): stable rank-2 bundle of degree 0."""
    return syzygy_bundle(["X^2", "Y^2", "Z^2"], twist=3)


def rank6_bundle(twist=7):
    """The rank-6 pullback bundle with symplectic dual group (twist 7 -> degree 0)."""
    return syzygy_bundle(
        ["X^6 - Y^4*Z^2", "Y^6 - X^2*Z^4", "X^4*Y^2 - Z^6",
         "X^2*Y^4", "Y^2*Z^4", "X^4*Z^2", "X^2*Y^2*Z^2"], twist)


def double_rank2_bundle():
    """Block presentation of Syz(X^2,Y^2,Z^2)(3) + Syz(X^2,Y^2,Z^2)(3).

    Degree 0, rank 4, semistable, self-dual, but not simple; the self-duality
    upgrade must decline it.
    """
    ring = RING_QQ3
    z = ring.zero()
    f = [P("X^2"), P("Y^2"), P("Z^2")]
    row1 = f + [z, z, z]
    row2 = [z, z, z] + f
    return make_kernel_bundle(ring, [1] * 6, [3, 3], [row1, row2])


def random_homogeneous(ring, degree, rng, allow_zero=False, density=0.6):
    from kbundle.algebra import monomials_of_degree
    fld = ring.field
    terms = {}
    for mono in monomials_of_degree(ring.nvars, degree):
        if rng.random() < density:
            c = rng.randint(-3, 3)
            if c:
                terms[mono] = fld.from_int(c)
    if not terms and not allow_zero:
        mono = rng.choice(list(monomials_of_degree(ring.nvars, degree)))
        terms[mono] = fld.from_int(rng.choice([1, 2, -1]))
    from kbundle.algebra import Poly
    return Poly(ring, terms)


def random_kernel_bundle(rng, ring=RING_QQ3, max_n=4, max_m=2):
    """Random small graded presentation (need not be surjective)."""
    m = rng.randint(1, max_m)
    n = rng.randint(m + 2, max(m + 2, max_n))
    a = sorted((rng.randint(-1, 0) for _ in range(n)), reverse=True)
    top = max(a)
    b = sorted((top + rng.choice([1, 1, 2]) for _ in range(m)), reverse=True)
    rows = []
    for j in range(m):
        row = []
        for i in range(n):
            d = b[j] - a[i]
            if rng.random() < 0.15:
                row.append(ring.zero())
            else:
                row.append(random_homogeneous(ring, d, rng, density=0.5))
        rows.append(row)
    return make_kernel_bundle(ring, a, b, rows)


def random_primary_monomial_forms(rng, max_extra=3, max_degree=4):
    """Monomial family on P^2 containing pure powers, hence irrelevant-primary."""
    ring = RING_QQ3
    from kbundle.algebra import Poly
    powers = [rng.randint(1, max_degree) for _ in range(3)]
    monos = [tuple(p if k == v else 0 for k in range(3))
             for v, p in enumerate(powers)]
    for _ in range(rng.randint(0, max_extra)):
        e = [rng.randint(0, max_degree - 1) for _ in range(3)]
        if sum(e) == 0:
            continue
        monos.append(tuple(e))
    seen = []
    for mo in monos:
        if mo not in seen:
            seen.append(mo)
    gens = tuple(Poly(ring, {mo: ring.field.one()}) for mo in seen)
    if len(gens) < 3:
        return random_primary_monomial_forms(rng, max_extra, max_degree)
    return gens


def interlaced_bundle(rng, ring=RING_QQ3, m=1, low=-2):
    """Random presentation with n - m = N, shaped like criterion 07: twists
    a in low..0, b_j = a_j + 1 or 2, dense random entries where b_j > a_i
    and zero elsewhere (need not be surjective)."""
    n = ring.nvars - 1 + m
    a = sorted((rng.randint(low, 0) for _ in range(n)), reverse=True)
    b = sorted((a[j] + rng.randint(1, 2) for j in range(m)), reverse=True)
    rows = [[random_homogeneous(ring, bj - ai, rng, density=0.7) if bj > ai
             else ring.zero() for ai in a] for bj in b]
    return make_kernel_bundle(ring, a, b, rows)
