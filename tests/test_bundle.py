import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from kbundle.algebra import (FieldSpec, Poly, RingMismatchError, make_ring,
                             parse_polynomial, reduce_poly_mod_p)
from kbundle.bundle import (
    BundleError,
    KernelBundle,
    from_syzygy,
    invariants,
    make_kernel_bundle,
    maximal_minors,
    minor_ideal_dims,
    modular_twin,
    pullback_powers,
    reduce_bundle_mod_p,
    require_valid,
    twist,
    validate,
)
from kbundle.modgb import (PRIMARY_TEST_PRIME, graded_piece_dim, ideal_groebner,
                           is_irrelevant_primary)

from sample_bundles import (
    P,
    RING_QQ3,
    dual_five_monomials,
    five_quadrics,
    five_quartics,
    interlaced_bundle,
    random_homogeneous,
    random_kernel_bundle,
    syzygy_bundle,
)


def test_cotangent_presentation():
    b = syzygy_bundle(["X", "Y", "Z"])
    assert b.twists_a == (-1, -1, -1)
    assert b.twists_b == (0,)
    assert b.rank == 2


def test_five_quadrics_presentation():
    b = five_quadrics()
    assert b.twists_a == (-2,) * 5
    assert b.twists_b == (0,)
    assert validate(b, check_surjectivity=True).ok


def test_twisted_quartics_presentation():
    b = five_quartics(twist=5)
    assert b.twists_a == (1,) * 5
    assert b.twists_b == (5,)


def test_from_syzygy_sorts_twists():
    b = syzygy_bundle(["X*Y*Z", "X^2", "Y^3"])  # degrees 3, 2, 3
    assert b.twists_a == (-2, -3, -3)
    assert b.matrix[0][0] == P("X^2")


def test_from_syzygy_rejects_constant():
    with pytest.raises(BundleError):
        from_syzygy((P("X"), P("2")))


@pytest.mark.parametrize("gens, message", [
    (["X^2"], "a syzygy bundle needs at least two generators"),
    (["X^2", "Y^2 + Z"], "syzygy generators must be nonzero homogeneous"),
    (["X^2", "0"], "syzygy generators must be nonzero homogeneous"),
])
def test_from_syzygy_refuses_bad_generators(gens, message):
    with pytest.raises(BundleError) as info:
        syzygy_bundle(gens)
    assert str(info.value) == message


@pytest.mark.parametrize("twists_a, twists_b", [([-1, -1], [0]), ([-1], [0, 0])])
def test_kernel_bundle_matrix_must_fit_the_twists(twists_a, twists_b):
    with pytest.raises(BundleError) as info:
        make_kernel_bundle(RING_QQ3, twists_a, twists_b, [[P("X")]])
    assert str(info.value) == "matrix shape does not match the twist lists"


def test_validate_degree_mismatch_location():
    bad = make_kernel_bundle(RING_QQ3, [-1, -1, -2], [0],
                             [[P("X"), P("Y^2"), P("Z^2")]])
    report = validate(bad)
    assert not report.ok
    assert any(p.code == "degree-mismatch" and p.location == (0, 1)
               for p in report.problems)


def test_validate_constant_entry():
    bad = make_kernel_bundle(RING_QQ3, [0, -1, -1], [0],
                             [[P("1"), P("Y"), P("Z")]])
    report = validate(bad)
    assert any(p.code == "constant-entry" for p in report.problems)


def test_validate_unsorted():
    bad = KernelBundle(RING_QQ3, (-2, -1, -1), (0,),
                       ((P("X^2"), P("Y"), P("Z")),))
    report = validate(bad)
    assert any(p.code == "unsorted" for p in report.problems)


def test_validate_unsorted_b_twists():
    bad = KernelBundle(RING_QQ3, (-1, -1, -1), (0, 1),
                       ((P("X"), P("Y"), P("Z")),
                        (P("X^2"), P("Y^2"), P("Z^2"))))
    assert [str(p) for p in validate(bad).problems] == [
        "unsorted: twists b must be non-increasing"]


def test_validate_entry_from_another_ring():
    z7 = parse_polynomial("Z", make_ring(3, FieldSpec(7)))
    bad = KernelBundle(RING_QQ3, (-1, -1, -1), (0,), ((P("X"), P("Y"), z7),))
    assert [str(p) for p in validate(bad).problems] == [
        "ring-mismatch at (0, 2): entry in a different ring"]


def test_validate_shape():
    bad = make_kernel_bundle(RING_QQ3, [-1], [0], [[P("X")]])
    assert any(p.code == "shape" for p in validate(bad).problems)


def test_surjectivity_of_dual_five_monomials():
    b = dual_five_monomials()
    report = validate(b, check_surjectivity=True)
    assert report.ok and report.surjective


def test_minors_of_single_row_are_entries():
    b = five_quadrics()
    minors = maximal_minors(b)
    assert len(minors) == 5
    assert P("X*Y") in minors
    # the entries themselves, not recomputed copies
    assert all(f is e for f, e in zip(minors, b.matrix[0]))
    # zero entries keep their place
    b = KernelBundle(RING_QQ3, (-1, -1, -2, -2), (0,),
                     ((P("X"), P("0"), P("1/2*Y^2"), P("0")),))
    assert maximal_minors(b) == [P("X"), P("0"), P("1/2*Y^2"), P("0")]


def cofactor_minors(bundle):
    """The maximal minors by cofactor expansion on the Poly entries, as
    bundle.maximal_minors computed them before it went fraction-free."""
    def det(rows, cols):
        if len(rows) == 1:
            return bundle.matrix[rows[0]][cols[0]]
        total = bundle.ring.zero()
        for k, c in enumerate(cols):
            e = bundle.matrix[rows[0]][c]
            if e.is_zero():
                continue
            term = e * det(rows[1:], cols[:k] + cols[k + 1:])
            total = total + (term if k % 2 == 0 else -term)
        return total
    rows = tuple(range(bundle.m))
    return [det(rows, cols) for cols in combinations(range(bundle.n), bundle.m)]


def random_presentation(rng, ring, rational):
    """m = 1..3 rows, n = m+1..m+3 columns, entries of degree 0..2 (zero
    at random), over QQ with rational coefficients when rational is set."""
    m = rng.randint(1, 3)
    n = rng.randint(m + 1, m + 3)
    a = sorted((rng.randint(-1, 0) for _ in range(n)), reverse=True)
    b = sorted((rng.randint(1, 2) for _ in range(m)), reverse=True)
    rows = []
    for bj in b:
        row = []
        for ai in a:
            f = (ring.zero() if rng.random() < 0.2 else
                 random_homogeneous(ring, bj - ai, rng, density=0.5))
            if rational:
                f = Poly(ring, {mono: c * Fraction(rng.randint(-5, 5) or 1,
                                                   rng.randint(1, 9))
                                for mono, c in f.terms.items()})
            row.append(f)
        rows.append(row)
    return KernelBundle(ring, tuple(a), tuple(b), tuple(map(tuple, rows)))


@pytest.mark.parametrize("char", [0, 7])
def test_maximal_minors_match_cofactor_expansion(char):
    ring = make_ring(3, FieldSpec(char))
    rng = random.Random(41 + char)
    rows = set()
    for _ in range(25):
        bundle = random_presentation(rng, ring, rational=char == 0)
        rows.add(bundle.m)
        minors = maximal_minors(bundle)
        assert minors == cofactor_minors(bundle)
        for f in minors:
            assert all(type(c) is (int if char else Fraction)
                       for c in f.terms.values())
    assert rows == {1, 2, 3}


def test_bundle_test_reads_the_minors_mod_p(monkeypatch):
    """validate's mod-p pass gets the QQ minors reduced mod
    PRIMARY_TEST_PRIME; where the prime divides a denominator of one, the
    pass is skipped and every run is over QQ."""
    import kbundle.modgb as modgb
    runs = []
    real = modgb._leading_terms_cover_variables

    def spy(polys, caps, expected=None):
        runs.append(polys)
        return real(polys, caps, expected)

    monkeypatch.setattr(modgb, "_leading_terms_cover_variables", spy)
    ring_p = make_ring(3, FieldSpec(PRIMARY_TEST_PRIME))
    rng = random.Random(314)
    rows = set()
    tested = 0
    while tested < 20:
        bundle = random_presentation(rng, RING_QQ3, rational=True)
        runs.clear()
        report = validate(bundle, check_surjectivity=True)
        if not runs:
            continue                # invalid, or a constant minor
        tested += 1
        rows.add(bundle.m)
        minors = [f for f in cofactor_minors(bundle) if not f.is_zero()]
        assert runs[0] == [reduce_poly_mod_p(f, ring_p) for f in minors]
        assert report.surjective == bool(is_irrelevant_primary(minors))
    assert rows == {1, 2, 3}
    bundle = KernelBundle(RING_QQ3, (-1, -1, -1, -1), (0, 0), (
        (P(f"1/{PRIMARY_TEST_PRIME}*X"), P("Y"), P("Z"), P("0")),
        (P("0"), P("X"), P("Y"), P("Z"))))
    runs.clear()
    assert validate(bundle, check_surjectivity=True).surjective
    assert runs and all(f.ring == RING_QQ3 for polys in runs for f in polys)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_minor_ideal_dims_match_the_basis(char, N, m):
    """On surjective presentations the Eagon-Northcott count is the Hilbert
    function of the minor ideal, up to three degrees past the first degree
    it fills."""
    ring = make_ring(N + 1, FieldSpec(char))
    rng = random.Random(f"{N}/{m}/{char}")
    found = 0
    while found < 2:
        bundle = interlaced_bundle(rng, ring, m, low=-1 if N == 2 else 0)
        minors = [f for f in maximal_minors(bundle) if not f.is_zero()]
        if not minors or not is_irrelevant_primary(minors):
            continue
        found += 1
        gb = ideal_groebner(minors)
        dims = minor_ideal_dims(bundle)
        d = 0
        while dims(d) < comb(d + N, N):
            assert graded_piece_dim(gb, d) == dims(d)
            d += 1
        for d in range(d, d + 4):
            assert graded_piece_dim(gb, d) == dims(d) == comb(d + N, N)


def test_minor_ideal_dims_of_one_row_is_complete_intersection():
    """m = 1: the Koszul complex, Hilbert series prod(1 - t^d_i) / (1 - t)^(N+1)
    for R/I."""
    rng = random.Random(7)
    for N in (2, 3):
        ring = make_ring(N + 1, FieldSpec(0))
        for _ in range(5):
            degrees = [rng.randint(1, 4) for _ in range(N + 1)]
            bundle = from_syzygy([random_homogeneous(ring, d, rng)
                                  for d in degrees])
            numerator = {0: 1}
            for d in degrees:
                for e, c in list(numerator.items()):
                    numerator[e + d] = numerator.get(e + d, 0) - c
            dims = minor_ideal_dims(bundle)
            for d in range(16):
                quotient = sum(c * comb(d - e + N, N)
                               for e, c in numerator.items() if d >= e)
                assert dims(d) == comb(d + N, N) - quotient


def test_minor_ideal_dims_need_n_minus_m_equal_N():
    assert minor_ideal_dims(five_quadrics()) is None
    assert minor_ideal_dims(syzygy_bundle(["X^2", "Y^2"])) is None
    assert minor_ideal_dims(syzygy_bundle(["X^2", "Y^2", "Z^2"])) is not None


def test_only_a_bundle_over_qq_is_reduced_mod_p():
    """Residues mod 7 are no rationals, so reducing them "mod 32003" would
    reduce nothing: the entries and the bundle of the F_7 bundle
    Syz(X^2, Y^2, 3*Z^2 + 5*X*Y)(3) are refused, and it has no modular
    twin.  The same bundle over QQ has one, unless the prime divides a
    denominator."""
    gens = ["X^2", "Y^2", "3*Z^2 + 5*X*Y"]
    bundle = syzygy_bundle(gens, 3, make_ring(3, FieldSpec(7)))
    ring_p = make_ring(3, FieldSpec(32003))
    for reduce in (lambda: reduce_poly_mod_p(bundle.matrix[0][0], ring_p),
                   lambda: reduce_bundle_mod_p(bundle, 32003)):
        with pytest.raises(RingMismatchError,
                           match="^reduction mod p needs QQ, not F_7$"):
            reduce()
    assert modular_twin(bundle, 32003) is None
    rational = syzygy_bundle(gens, 3)
    assert modular_twin(rational, 7) == reduce_bundle_mod_p(rational, 7)
    assert modular_twin(rational, 7).ring.field == FieldSpec(7)
    assert modular_twin(syzygy_bundle(["X^2", "Y^2", "1/7*Z^2"]), 7) is None


def test_invariants_five_quadrics():
    inv = invariants(five_quadrics())
    assert inv.rank == 4
    assert inv.c1 == -10
    assert inv.mu == Fraction(-5, 2)
    assert inv.c2 == 40
    assert inv.delta == 20


def test_invariants_five_quartics():
    inv = invariants(five_quartics())
    assert inv.delta == 80
    assert 20 ** 2 - 4 * (5 * 16) == 80


def test_invariants_cotangent():
    inv = invariants(syzygy_bundle(["X", "Y", "Z"]))
    assert (inv.rank, inv.c1) == (2, -3)
    assert inv.mu == Fraction(-3, 2)
    assert inv.delta == 3


def test_twist_identity_and_slope_shift():
    b = five_quartics()
    assert twist(b, 0) == b
    t5 = twist(b, 5)
    assert invariants(t5).mu == 0
    assert invariants(t5).delta == invariants(b).delta


def test_twist_delta_invariance_random():
    rng = random.Random(1312)
    for _ in range(15):
        b = random_kernel_bundle(rng)
        c = rng.randint(-4, 4)
        assert invariants(twist(b, c)).delta == invariants(b).delta
        assert invariants(twist(b, c)).mu == invariants(b).mu + c


def test_pullback_five_quadrics_gives_five_quartics():
    assert pullback_powers(five_quadrics(), 2) == five_quartics()


def test_pullback_power_below_one_is_refused():
    with pytest.raises(BundleError, match="pullback power must be >= 1, got 0"):
        pullback_powers(five_quadrics(), 0)


def test_pullback_identity_and_scaling():
    b = five_quadrics()
    assert pullback_powers(b, 1) == b
    rng = random.Random(88)
    for _ in range(10):
        r = random_kernel_bundle(rng)
        k = rng.randint(1, 3)
        pb = pullback_powers(r, k)
        assert invariants(pb).c1 == k * invariants(r).c1
        assert invariants(pb).rank == invariants(r).rank
        assert validate(pb).ok == validate(r).ok


def test_invariants_need_positive_rank():
    # one column over one row: rank 0 has no slope
    bundle = make_kernel_bundle(RING_QQ3, [0], [1], [[P("X")]])
    with pytest.raises(BundleError, match="rank 0"):
        invariants(bundle)


def test_invariants_permutation_independent():
    gens = ["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"]
    rng = random.Random(5)
    base = invariants(syzygy_bundle(gens))
    for _ in range(5):
        rng.shuffle(gens)
        assert invariants(syzygy_bundle(gens)) == base


def test_require_valid_raises():
    bad = make_kernel_bundle(RING_QQ3, [0, -1, -1], [0],
                             [[P("1"), P("Y"), P("Z")]])
    with pytest.raises(BundleError):
        require_valid(bad)
