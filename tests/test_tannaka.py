import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from kbundle.algebra import CoefficientError, Poly, reduce_poly_mod_p
from kbundle.bundle import (
    SyzygyBundleSpec,
    from_syzygy,
    make_kernel_bundle,
    twist,
    validate,
)
from kbundle.modgb import (
    InternalCheckError,
    ModuleElement,
    _echelon_kernel,
    apply_columns,
    kernel_sections_linalg,
)
from kbundle.powers import symmetric_power_matrix, tensor_power_matrix
from kbundle.tannaka import (
    CELL_PRIME,
    DimCell,
    TannakaError,
    TannakaFingerprint,
    TensorSections,
    _pairing_products_rank,
    classify_group,
    fingerprint,
    reduce_bundle_mod_p,
    section_dim_power,
    section_dim_table,
    selfdual_certify,
    tensor_dim_cell,
)

from sample_bundles import (
    P,
    RING_QQ3,
    double_rank2_bundle,
    dual_five_monomials,
    five_quadrics,
    five_quartics,
    random_homogeneous,
    random_kernel_bundle,
    rank2_degree0_bundle,
    rank6_bundle,
    sl3_bundle,
    syzygy_bundle,
)


def test_engines_agree_on_small_cells():
    b = rank2_degree0_bundle()
    for q, k in ((1, 0), (1, 2), (2, 0), (2, 1)):
        linalg = section_dim_power(b, "tensor", q, k, "linalg")
        gb = section_dim_power(b, "tensor", q, k, "gb")
        staged = section_dim_power(b, "tensor", q, k, "staged")
        assert linalg == gb == staged
    d = dual_five_monomials()
    for k in (-3, -2, -1):
        assert section_dim_power(d, "tensor", 1, k, "linalg") == \
               section_dim_power(d, "tensor", 1, k, "staged")
    # the staged engine over F_p computes every default-method cell
    cells = {b: ((1, 0), (1, 2), (2, 0), (2, 1)),
             d: ((1, -3), (1, -2), (2, -6), (2, -5))}
    for prime in (5, 32003):
        for bundle, pairs in cells.items():
            reduced = reduce_bundle_mod_p(bundle, prime)
            for q, k in pairs:
                assert section_dim_power(reduced, "tensor", q, k, "staged") == \
                       section_dim_power(reduced, "tensor", q, k, "linalg")


def test_simplicity_of_normalized_quartics():
    b0 = five_quartics(twist=5)
    assert section_dim_power(b0, "tensor", 2, 0) == 1


def test_quartics_fourth_power_invariants():
    cell = tensor_dim_cell(TensorSections(five_quartics(twist=5)), 4, 0)
    assert cell.value == 3
    assert cell.certified


def test_sl3_third_power_invariant():
    cell = tensor_dim_cell(TensorSections(sl3_bundle()), 3, 0)
    assert cell.value == 1


def test_exact_method_matches_default():
    sections = TensorSections(five_quartics(twist=5))
    exact = tensor_dim_cell(sections, 4, 0, method="exact")
    cell = tensor_dim_cell(sections, 4, 0)
    assert (exact.lo, exact.hi) == (cell.lo, cell.hi) == (3, 3)
    assert exact.evidence == "exact-rational"
    assert cell.evidence == "F1000003 <= 3, pairing >= 3"
    assert tensor_dim_cell(sections, 4, 0, method="default") == cell


def test_cell_skips_a_default_prime_in_a_denominator():
    # Syz(X^3, Y^3, Z^3, XYZ/1000003)(4) is sl3_bundle() with a generator
    # rescaled; it has no image mod CELL_PRIME, so the cell is exact
    bundle = syzygy_bundle(["X^3", "Y^3", "Z^3", f"1/{CELL_PRIME}*X*Y*Z"],
                           twist=4)
    assert tensor_dim_cell(TensorSections(bundle), 3, 0) == \
        DimCell(1, 1, "exact-rational")


def test_cell_needs_a_usable_default_prime():
    # a denominator prime to CELL_PRIME keeps the modular pass; a multiple
    # of CELL_PRIME makes the prime unusable and the cell exact
    usable = syzygy_bundle(["X^3", "Y^3", "Z^3", "1/2*X*Y*Z"], twist=4)
    assert tensor_dim_cell(TensorSections(usable), 3, 0) == \
        DimCell(1, 1, f"F{CELL_PRIME} <= 1, determinant >= 1")
    unusable = syzygy_bundle(
        ["X^3", "Y^3", "Z^3", f"1/{2 * CELL_PRIME}*X*Y*Z"], twist=4)
    with pytest.raises(CoefficientError):
        reduce_bundle_mod_p(unusable, CELL_PRIME)
    sections = TensorSections(unusable)
    for q, k in ((2, 0), (3, 0), (3, -1)):
        assert tensor_dim_cell(sections, q, k) == \
            tensor_dim_cell(sections, q, k, method="exact")


def test_cell_with_lower_bound_above_the_fp_count_is_a_bug(monkeypatch):
    # a mod-p store counting no sections contradicts det E = O at q = rank
    real = TensorSections.dim
    monkeypatch.setattr(TensorSections, "dim", lambda self, q, t: (
        0 if self.ring.field.char else real(self, q, t)))
    with pytest.raises(InternalCheckError,
                       match=r"h0\(E\^\(x\)2\): determinant proves 1 "
                             "sections, but F1000003 gives 0"):
        tensor_dim_cell(TensorSections(rank2_degree0_bundle()), 2, 0)


def test_cell_without_lower_bound_is_open():
    # no lower-bound argument applies at twist k = 1: lo = 0 < hi
    sections = TensorSections(five_quartics(twist=5))
    cell = tensor_dim_cell(sections, 3, 1)
    assert (cell.lo, cell.hi) == (0, 15)
    assert not cell.certified
    assert tensor_dim_cell(sections, 3, 1, method="exact").value == 15


def test_lower_bounds_only_at_degree_zero_and_twist_zero():
    # below twist 0, or with c1 < 0, neither det E nor E (x) E gives a section
    assert tensor_dim_cell(TensorSections(sl3_bundle()), 3, -1) == \
        DimCell(0, 0, "F1000003 <= 0")
    assert tensor_dim_cell(TensorSections(five_quartics(twist=4)), 4) == \
        DimCell(0, 0, "F1000003 <= 0")


def random_degree0_syzygy_bundles(seed):
    """Syzygy bundles of random forms on P^2 twisted to degree 0: two of
    three quadrics (rank 2), one of three quadrics and a cubic (rank 3).  A
    draw whose forms share a zero presents no bundle and is drawn again."""
    rng = random.Random(seed)
    for degrees in ((2, 2, 2), (2, 2, 2), (2, 2, 2, 3)):
        twist0 = sum(degrees) // (len(degrees) - 1)
        while True:
            gens = tuple(random_homogeneous(RING_QQ3, d, rng) for d in degrees)
            bundle = from_syzygy(SyzygyBundleSpec(RING_QQ3, gens, twist0))
            if validate(bundle, check_surjectivity=True).ok:
                yield bundle
                break


def test_interval_contains_exact_value():
    bundles = [rank2_degree0_bundle(), five_quartics(twist=5), sl3_bundle(),
               rank6_bundle(), *random_degree0_syzygy_bundles(20261018)]
    for bundle in bundles:
        sections = TensorSections(bundle)
        exact = {q: tensor_dim_cell(sections, q, method="exact").value
                 for q in (3, 4)}
        for q in (3, 4):
            cell = tensor_dim_cell(sections, q)
            assert cell.lo <= exact[q] <= cell.hi, (bundle.rank, q, cell, exact)
        assert _pairing_products_rank(sections) <= exact[4]


def test_staged_square_matches_presentation():
    """The staged basis of (E (x) E)(t) against the full tensor-square
    presentation: the same dimension, every staged vector in its kernel (the
    pair (i1, i2) is source label i1 * n + i2), and independent vectors."""
    bundles = [five_quartics(twist=5), rank6_bundle(), rank2_degree0_bundle(),
               *islice(random_degree0_syzygy_bundles(20261018), 1, 3)]
    for bundle in bundles:
        pres = tensor_power_matrix(bundle, 2)
        columns, source, target = (pres.columns, pres.source_module(),
                                   pres.target_module())
        sections = TensorSections(bundle)
        for t in (-1, 0, 1):
            staged = sections.basis(2, t)
            dim, _ = kernel_sections_linalg(columns, source, target, t)
            assert len(staged) == dim, (bundle.rank, t)
            for vec in staged:
                element = ModuleElement(source, {
                    (i1 * bundle.n + i2, mono): c
                    for ((i1, i2), mono), c in vec.items()})
                assert apply_columns(columns, target, element).is_zero()
            assert _echelon_kernel(staged, 0, sections.caps)[0] == 0


# The one section of E0^(x)3 in degree 0 for E0 = sl3_bundle(), as
# (alpha, monomial, coefficient), frozen from the Fraction elimination that
# the fraction-free one replaced; E0^(x)2 has no section in degree 0.
SL3_CUBE_SECTION = [
    ((0, 1, 2), (1, 1, 1), 1),
    ((0, 1, 3), (0, 0, 3), -1),
    ((0, 2, 1), (1, 1, 1), -1),
    ((0, 2, 3), (0, 3, 0), 1),
    ((0, 3, 1), (0, 0, 3), 1),
    ((0, 3, 2), (0, 3, 0), -1),
    ((1, 0, 2), (1, 1, 1), -1),
    ((1, 0, 3), (0, 0, 3), 1),
    ((1, 2, 0), (1, 1, 1), 1),
    ((1, 2, 3), (3, 0, 0), -1),
    ((1, 3, 0), (0, 0, 3), -1),
    ((1, 3, 2), (3, 0, 0), 1),
    ((2, 0, 1), (1, 1, 1), 1),
    ((2, 0, 3), (0, 3, 0), -1),
    ((2, 1, 0), (1, 1, 1), -1),
    ((2, 1, 3), (3, 0, 0), 1),
    ((2, 3, 0), (0, 3, 0), 1),
    ((2, 3, 1), (3, 0, 0), -1),
    ((3, 0, 1), (0, 0, 3), -1),
    ((3, 0, 2), (0, 3, 0), 1),
    ((3, 1, 0), (0, 0, 3), 1),
    ((3, 1, 2), (3, 0, 0), -1),
    ((3, 2, 0), (0, 3, 0), -1),
    ((3, 2, 1), (3, 0, 0), 1),
]


def test_sl3_staged_bases_golden():
    """The staged bases of E0^(x)q in degree 0, q = 2 and 3, over QQ (as
    Fractions) and mod 1000003 (as residues): later levels are cut out of
    these lifted vectors, so their exact coefficients are pinned down."""
    golden = {(alpha, mono): c for alpha, mono, c in SL3_CUBE_SECTION}
    prime = 1000003
    for bundle, field in ((sl3_bundle(), Fraction),
                          (reduce_bundle_mod_p(sl3_bundle(), prime), int)):
        sections = TensorSections(bundle)
        assert sections.basis(2, 0) == []
        [section] = sections.basis(3, 0)
        assert all(type(c) is field for c in section.values())
        want = golden if field is Fraction else {
            key: c % prime for key, c in golden.items()}
        assert section == want


RANK6_STAGED_GOLDEN = Path(__file__).with_name("rank6_staged_golden.json")
RANK6_STAGED_CELLS = ((1, 3), (2, 2), (3, 1))


def rank6_staged_bases(sections) -> dict:
    """The staged bases of a store at RANK6_STAGED_CELLS, in JSON form:
    "q,t" -> one [[alpha, monomial, coefficient], ...] per basis vector, its
    terms sorted."""
    return {f"{q},{t}": [sorted([list(alpha), list(mono), c]
                                for (alpha, mono), c in vec.items())
                         for vec in sections.basis(q, t)]
            for q, t in RANK6_STAGED_CELLS}


def test_rank6_staged_bases_golden():
    """The staged bases of rank6_bundle() mod 1000003 in
    rank6_staged_golden.json (frozen from the elimination that kept pivots
    monic and columns in the given order), with residues as ints: each
    level is cut out of the lifted vectors below it, so the exact vectors,
    and their order, are pinned down.  Cells 3 and 4 of the store at twist
    0 are 0 and 3 (the Sp(6) moments)."""
    sections = TensorSections(reduce_bundle_mod_p(rank6_bundle(), 1000003))
    want = json.loads(RANK6_STAGED_GOLDEN.read_text())
    assert rank6_staged_bases(sections) == want
    for q, t in RANK6_STAGED_CELLS:
        assert all(type(c) is int for vec in sections.basis(q, t)
                   for c in vec.values())
    assert (sections.dim(3, 0), sections.dim(4, 0)) == (0, 3)


def test_pairing_bound_on_self_dual_bundles():
    assert _pairing_products_rank(TensorSections(five_quartics(twist=5))) == 3
    assert _pairing_products_rank(TensorSections(rank6_bundle())) == 3
    # the Pluecker relation w12*w34 - w13*w24 + w14*w23 = 0 on rank 2
    assert _pairing_products_rank(TensorSections(rank2_degree0_bundle())) == 2


def test_stable_degree_zero_bundle_has_no_sections():
    # dims[1] = 0 for every stable degree-0 bundle of rank >= 2
    for b0 in (rank2_degree0_bundle(), five_quartics(twist=5), sl3_bundle()):
        assert section_dim_power(b0, "tensor", 1, 0) == 0


def test_fingerprint_selfdual_quartics():
    fp = fingerprint(five_quartics(twist=5), "proven_via_selfduality", q_max=2)
    assert fp.selfdual
    assert fp.selfdual_reason == "h0((E(x)E)(0)) = 1 >= 1 (proof grade)"
    assert fp.pairing == "alternating"
    semistable = fingerprint(five_quartics(twist=5), "semistable", q_max=2)
    assert semistable.selfdual_reason.endswith("(evidence grade)")


def test_fingerprint_sl3_not_selfdual():
    fp = fingerprint(sl3_bundle(), "proven_stable", q_max=3)
    assert not fp.selfdual
    assert fp.selfdual_reason == "h0((E(x)E)(0)) = 0"
    assert fp.pairing is None


def test_fingerprint_rank2_selfdual():
    # Lambda^2 E0 = O puts the determinant pairing in E0 (x) E0
    fp = fingerprint(rank2_degree0_bundle(), "proven_stable", q_max=2)
    assert fp.selfdual
    assert fp.pairing == "alternating"


def test_fingerprint_twist_invariant():
    base = fingerprint(five_quartics(twist=5), "proven_stable")
    shifted = fingerprint(five_quartics(twist=2), "proven_stable")
    assert (base.normalizing_twist, shifted.normalizing_twist) == (0, 3)
    assert shifted.replace(normalizing_twist=0) == base


SYM2_ROWS = (("2*X^2", "Y^2", "Z^2", "0", "0", "0"),
             ("0", "X^2", "0", "2*Y^2", "Z^2", "0"),
             ("0", "0", "X^2", "0", "Y^2", "2*Z^2"))


def sym2_rank2_bundle():
    """Sym^2 Syz(X^2, Y^2, Z^2)(3), presented by its symmetric square matrix:
    rank 3, degree 0, dual group SO(3)."""
    return make_kernel_bundle(RING_QQ3, [2] * 6, [4] * 3,
                              [[P(f) for f in row] for row in SYM2_ROWS])


def test_pairing_type_of_the_only_section():
    """The stored section w of E0 (x) E0 is alternating on the Sp bundles
    and symmetric on Sym^2 of a rank-2 bundle (the SO(3) pairing)."""
    for bundle, pairing in ((five_quartics(twist=5), "alternating"),
                            (rank6_bundle(), "alternating"),
                            (sym2_rank2_bundle(), "symmetric")):
        fp = fingerprint(bundle, "proven_stable", q_max=2)
        assert (fp.dims[2].value, fp.pairing) == (1, pairing), bundle.describe()
    pres = symmetric_power_matrix(rank2_degree0_bundle(), 2)
    assert [dict(col) for col in sym2_rank2_bundle().columns()] == \
        [dict(col) for col in pres.columns]


def test_pairing_is_exactly_symmetric_or_alternating():
    """Whenever h0(E0 (x) E0) = 1, the slot swap maps the stored section w
    to exactly w or -w."""
    for bundle in random_degree0_syzygy_bundles(20261018):
        fp = fingerprint(bundle, "proven_stable", q_max=2)
        if fp.dims[2].value != 1:
            assert fp.pairing is None
            continue
        w = TensorSections(bundle).basis(2, 0)[0]
        swapped = {((i2, i1), mono): c for ((i1, i2), mono), c in w.items()}
        sign = {"symmetric": 1, "alternating": -1}[fp.pairing]
        assert swapped == {key: sign * c for key, c in w.items()}


def test_selfdual_certify_quartics():
    ok, h0 = selfdual_certify(five_quartics(twist=5))
    assert ok and h0 == 1


def test_selfdual_certify_rejects_unnormalized():
    with pytest.raises(TannakaError):
        selfdual_certify(five_quartics())


@pytest.mark.parametrize("refused, message", [
    (lambda: section_dim_table(five_quadrics(), "exterior", 1, [0], "fast"),
     "unknown engine 'fast'"),
    (lambda: section_dim_table(five_quadrics(), "exterior", 1, [0], "staged"),
     "the staged engine only computes tensor powers"),
    (lambda: tensor_dim_cell(TensorSections(five_quadrics()), 2, method="fast"),
     "unknown dimension method 'fast'; use 'default' or 'exact'"),
])
def test_library_calls_refuse_unknown_choices(refused, message):
    # the command line refuses these first; only a library call gets here
    with pytest.raises(TannakaError) as info:
        refused()
    assert str(info.value) == message


@pytest.mark.parametrize("refused, message", [
    (lambda: selfdual_certify(reduce_bundle_mod_p(five_quartics(twist=5), 7)),
     "certification runs over the rationals"),
    (lambda: fingerprint(reduce_bundle_mod_p(rank2_degree0_bundle(), 7),
                         "proven_stable"),
     "fingerprints are defined in characteristic 0"),
])
def test_fingerprint_layer_refuses_positive_characteristic(refused, message):
    with pytest.raises(TannakaError) as info:
        refused()
    assert str(info.value) == message


def test_selfdual_certify_double_bundle_not_simple():
    ok, h0 = selfdual_certify(double_rank2_bundle())
    assert h0 == 4


def test_selfdual_certify_without_a_pairing():
    # the standard SL(3) bundle is not self-dual: E0 (x) E0 has no section
    assert selfdual_certify(sl3_bundle()) == (False, 0)


def test_fingerprint_rank2():
    fp = fingerprint(rank2_degree0_bundle(), "proven_stable", q_max=4)
    assert fp.rank == 2
    assert fp.dims[1].value == 0
    assert fp.dims[2].value == 1
    assert fp.selfdual
    guess = classify_group(fp)
    assert (guess.group, guess.degree) == ("SL", 2)


def test_fingerprint_requires_integral_slope():
    with pytest.raises(TannakaError, match="admits no degree-0"):
        fingerprint(five_quadrics(), "proven_stable")


def test_selfdual_slope_obstruction():
    # mu = 5/2: no degree-0 twist, so the fingerprint refuses before any
    # self-duality question; the integral-slope quartics are self-dual
    with pytest.raises(TannakaError, match="admits no degree-0"):
        fingerprint(dual_five_monomials(), "proven_stable")
    assert fingerprint(five_quartics(twist=5), "proven_stable", q_max=2).selfdual


def test_classify_requires_proven_stability():
    fp = fingerprint(rank2_degree0_bundle(), "undetermined")
    with pytest.raises(TannakaError):
        classify_group(fp)


def synthetic_fp(rank, dims, pairing=None, stability="proven_stable"):
    """dims maps q to a value (a certified cell) or to an interval (lo, hi)."""
    cells = {q: DimCell(*(v if isinstance(v, tuple) else (v, v)), "synthetic")
             for q, v in dims.items()}
    return TannakaFingerprint(rank=rank, normalizing_twist=0, dims=cells,
                              pairing=pairing, stability=stability)


def test_classify_rule_table():
    alt, sym = "alternating", "symmetric"
    assert classify_group(synthetic_fp(4, {2: 1, 4: 3}, alt)).label() == "Sp(4)"
    assert classify_group(synthetic_fp(6, {2: 1, 4: 3}, alt)).label() == "Sp(6)"
    assert classify_group(synthetic_fp(3, {2: 0, 3: 1})).label() == "SL(3)"
    assert classify_group(synthetic_fp(2, {2: 1}, alt)).label() == "SL(2)"
    # SL(2) on Sym^3 is self-dual and alternating, with 4 invariants in
    # V^(x)4, not the 3 of Sp(4)
    assert classify_group(synthetic_fp(4, {2: 1, 4: 4}, alt)).group == "unknown"
    guess = classify_group(synthetic_fp(4, {2: 0, 4: 4}))
    assert guess.group == "unknown"
    assert "type-A" in guess.justification
    # SO(3) has one invariant in V (x) V and one in V^(x)3; from rank 6 on,
    # proper subgroups of SL(r) need not be self-dual
    for rank, dims, pairing, note in (
            (3, {2: 1, 3: 1}, sym, "but E0 is self-dual"),
            (6, {2: 0, 6: 1}, None, "but from rank 6 on")):
        guess = classify_group(synthetic_fp(rank, dims, pairing))
        assert guess.group == "unknown", (rank, dims)
        assert f"h0(E0^(x){rank}) = 1 [synthetic], {note}" in guess.justification
    # SO(6) has 3 invariants in V^(x)4, as Sp(6) has, but a symmetric pairing
    assert classify_group(synthetic_fp(6, {2: 1, 4: 3}, sym)).group == "unknown"


def test_classify_rejects_open_interval():
    guess = classify_group(synthetic_fp(3, {2: 0, 3: (0, 1)}))
    assert guess.group == "unknown"
    assert "dims[3] lies in [0, 1]" in guess.justification
    for rank in (4, 6):
        guess = classify_group(synthetic_fp(rank, {2: 1, 4: (2, 3)},
                                            "alternating"))
        assert guess.group == "unknown"
        assert "dims[4] lies in [2, 3]" in guess.justification


def test_fingerprint_quartics_full_pipeline():
    fp = fingerprint(five_quartics(twist=5), "proven_via_selfduality", q_max=4)
    assert fp.dims[2].value == 1
    assert fp.dims[4].value == 3
    assert fp.selfdual
    guess = classify_group(fp)
    assert guess.label() == "Sp(4)"


def test_reduce_poly_prime_unusable():
    p = Poly(RING_QQ3, {(1, 0, 0): Fraction(1, 5)})
    ring5 = reduce_bundle_mod_p(rank2_degree0_bundle(), 5).ring
    with pytest.raises(CoefficientError):
        reduce_poly_mod_p(p, ring5)
    bundle = syzygy_bundle(["1/5*X^2", "Y^2", "Z^2"])
    with pytest.raises(CoefficientError):
        reduce_bundle_mod_p(bundle, 5)


def test_section_dim_table_gb_reuses_basis():
    b = dual_five_monomials()
    table = section_dim_table(b, "exterior", 2, range(-7, -3), engine="gb")
    direct = {k: section_dim_power(b, "exterior", 2, k, "linalg")
              for k in range(-7, -3)}
    assert table == direct
    assert table[-7] == 0 and table[-6] == 0
    assert table[-5] > 0


def test_section_dim_table_gb_matches_linalg_randomized():
    """gb tables (rank-nullity on the image's leading terms) equal linalg
    tables for tensor, exterior and symmetric powers, q = 1..3, over QQ and
    F_7, on seeded random presentations and one with a zero column, at
    twists from two below the power's lowest generator degree to 5 - q
    above it."""
    rng = random.Random(1212)
    zero_column = make_kernel_bundle(RING_QQ3, [0, 0, -1, 0, 0], [1], [
        [P("X"), P("0"), P("Y^2"), P("Z"), P("X + Y")]])
    bundles = [zero_column] + [random_kernel_bundle(rng, max_n=5)
                               for _ in range(3)]
    for bundle in bundles:
        for char in (0, 7):
            b = bundle if char == 0 else reduce_bundle_mod_p(bundle, char)
            for kind, q in itertools.product(("tensor", "exterior", "symmetric"),
                                             (1, 2, 3)):
                if kind == "exterior" and q >= b.rank:
                    continue    # no presentation
                low = -q * max(b.twists_a)
                twists = range(low - 2, low + 6 - q)
                assert (section_dim_table(b, kind, q, twists, "gb")
                        == section_dim_table(b, kind, q, twists, "linalg")), \
                    (bundle.describe(), char, kind, q)


def test_section_dim_table_both_raises_on_mismatch(monkeypatch):
    import kbundle.powers as powers
    b = dual_five_monomials()
    assert section_dim_table(b, "exterior", 2, range(-6, -4), "both") == \
        {-6: 0, -5: section_dim_power(b, "exterior", 2, -5, "linalg")}
    # a gb engine that never finds a section disagrees with linalg at -5
    monkeypatch.setattr(powers, "kernel_dims_gb", lambda *args: lambda k: 0)
    with pytest.raises(InternalCheckError,
                       match=r"engine mismatch in section table: "
                             r"gb \{-6: 0, -5: 0\} vs linalg \{-6: 0, -5: [1-9]"):
        section_dim_table(b, "exterior", 2, range(-6, -4), "both")


def test_section_dim_table_both_runs_one_gb_count_and_linalg_per_twist(monkeypatch):
    """"both" builds its gb table on one truncated Buchberger run and its
    linalg table on one elimination per twist, counted where every engine
    is chosen (PowerPresentation.kernel_dims calls powers' bindings)."""
    import kbundle.powers as powers
    calls = Counter()
    for name in ("kernel_dims_gb", "kernel_dim_linalg"):
        real = getattr(powers, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(powers, name, counting)
    b = dual_five_monomials()
    table = section_dim_table(b, "exterior", 2, range(-7, -4), "both")
    assert calls == Counter(kernel_dims_gb=1, kernel_dim_linalg=3)
    assert table == {k: section_dim_power(b, "exterior", 2, k, "linalg")
                     for k in range(-7, -4)}


def test_staged_respects_m_greater_one():
    b = dual_five_monomials()
    for q, k in ((2, -7), (2, -6), (2, -5)):
        assert section_dim_power(b, "tensor", q, k, "staged") == \
               section_dim_power(b, "tensor", q, k, "linalg")


def test_rank6_fingerprint_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "rank6_fingerprint.py"
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "dual group: Sp(6)" in proc.stdout
