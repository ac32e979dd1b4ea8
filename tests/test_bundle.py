import random
from fractions import Fraction

import pytest

from kbundle.bundle import (
    BundleError,
    KernelBundle,
    SyzygyBundleSpec,
    from_syzygy,
    invariants,
    make_kernel_bundle,
    maximal_minors,
    pullback_powers,
    require_valid,
    twist,
    validate,
)

from sample_bundles import (
    P,
    RING_QQ3,
    dual_five_monomials,
    five_quadrics,
    five_quartics,
    random_kernel_bundle,
    syzygy_bundle,
    syzygy_spec,
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
    spec = syzygy_spec(["X*Y*Z", "X^2", "Y^3"])  # degrees 3, 2, 3
    b = from_syzygy(spec)
    assert b.twists_a == (-2, -3, -3)
    assert b.matrix[0][0] == P("X^2")


def test_from_syzygy_rejects_constant():
    with pytest.raises(BundleError):
        from_syzygy(SyzygyBundleSpec(RING_QQ3, (P("X"), P("2")), 0))


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
