import itertools
import json
import random
from math import comb, inf
from pathlib import Path

import pytest
from fractions import Fraction

from kbundle.algebra import (
    AlgebraError,
    FieldSpec,
    Poly,
    make_ring,
    mono_key,
    mono_mul,
    monomials_of_degree,
    parse_polynomial,
)
from kbundle import modgb
from kbundle.bounds import ClosureQuery, closure_threshold, frobenius_membership
from kbundle.cli import execute_job
from kbundle.bundle import (
    SyzygyBundleSpec,
    from_syzygy,
    maximal_minors,
    minor_ideal_dims,
    module_from_twists,
    validate,
)
from kbundle.modgb import (
    PRIMARY_TEST_PRIME,
    TERM_FIELD_BITS,
    Caps,
    _echelon_kernel,
    _integerize,
    _LeadingSpan,
    _leading_terms_cover_variables,
    _reducer_entry,
    _Reducers,
    _TermCodec,
    GradedFreeModule,
    GradingError,
    ModuleElement,
    ResourceCapError,
    apply_columns,
    buchberger,
    graded_piece_dim,
    ideal_groebner,
    ideal_membership,
    is_irrelevant_primary,
    kernel_dim_linalg,
    kernel_dims_gb,
    kernel_sections_linalg,
    syzygy_module_columns,
)
from kbundle.stability import brenner_monomial
from kbundle.tannaka import fingerprint, section_dim_table, selfdual_certify

from sample_bundles import (
    P,
    RING_QQ3,
    five_quadrics,
    five_quartics,
    interlaced_bundle,
    random_homogeneous,
    random_kernel_bundle,
    syzygy_spec,
)


def mono_divides(a: tuple, b: tuple) -> bool:
    """Whether monomial a divides b: the reference these tests check against."""
    return all(x <= y for x, y in zip(a, b))


def ideal_elements(*texts):
    module = GradedFreeModule(RING_QQ3, (0,))
    return [ModuleElement.from_components(module, {0: P(t)}) for t in texts]


def leading_monos(gb):
    return {e.leading()[0][1] for e in gb.elements}


def initial_degree(syz):
    """Smallest degree of a syzygy generator, None for none: the initial
    degree of the kernel, since the ring is standard graded."""
    return min((e.degree() for e in syz.elements), default=None)


def test_gb_of_two_variables_is_itself():
    gb = buchberger(ideal_elements("X", "Y"))
    assert leading_monos(gb) == {(1, 0, 0), (0, 1, 0)}
    assert len(gb) == 2


def test_gb_difference_of_squares_and_xy():
    # hand Buchberger: S(X^2 - Y^2, XY) reduces to -Y^3, everything else to zero,
    # so the reduced basis is exactly {X^2 - Y^2, X*Y, Y^3}
    gb = buchberger(ideal_elements("X^2 - Y^2", "X*Y"))
    polys = {str(e.components()[0]) for e in gb.elements}
    assert polys == {"X^2 - Y^2", "X*Y", "Y^3"}


def test_gb_single_generator_normalized():
    gb = buchberger(ideal_elements("2*X^2 - 2*Y^2"))
    assert len(gb) == 1
    assert str(gb.elements[0].components()[0]) == "X^2 - Y^2"


def test_gb_independent_of_input_order():
    rng = random.Random(31337)
    for _ in range(10):
        texts = ["X^2 - Y^2", "X*Y", "Y^2 - Z^2", "X*Z"]
        rng.shuffle(texts)
        gb = buchberger(ideal_elements(*texts))
        reference = buchberger(ideal_elements("X^2 - Y^2", "X*Y", "Y^2 - Z^2", "X*Z"))
        assert gb.elements == reference.elements


def test_gb_requires_homogeneous():
    with pytest.raises(AlgebraError):
        buchberger(ideal_elements("X^2 + Y"))


def rank_two_basis():
    module = GradedFreeModule(RING_QQ3, (0, 0))
    return buchberger([ModuleElement.from_components(module, {0: P("X"), 1: P("Y")})])


@pytest.mark.parametrize("refused, message", [
    (lambda: buchberger([]),
     "buchberger needs at least one generator (may be zero)"),
    (lambda: buchberger(ideal_elements("X") + [ModuleElement.from_components(
        GradedFreeModule(RING_QQ3, (1,)), {0: P("Y")})]),
     "generators live in different modules"),
    (lambda: ideal_groebner([]), "empty generating set"),
    (lambda: ideal_membership(P("X"), rank_two_basis()),
     "ideal membership needs a rank-one module"),
    (lambda: is_irrelevant_primary([P("X^2"), P("Y^2 + Z")]),
     "primary test requires homogeneous generators"),
])
def test_groebner_entry_points_refuse_bad_input(refused, message):
    with pytest.raises(AlgebraError) as info:
        refused()
    assert str(info.value) == message


def one_row_modules(degrees, ring=RING_QQ3):
    source = GradedFreeModule(ring, tuple(degrees))
    target = GradedFreeModule(ring, (0,))
    return source, target


def one_row_columns(*texts):
    """Sparse columns of a one-row matrix; a zero entry gives an empty column."""
    return [[(0, P(t))] if t != "0" else [] for t in texts]


def test_koszul_syzygy_of_two_variables():
    source, target = one_row_modules((1, 1))
    syz = syzygy_module_columns(one_row_columns("X", "Y"), source, target)
    assert len(syz) == 1
    gen = syz.elements[0]
    assert gen.degree() == 2
    comps = gen.components()
    # the Koszul relation (Y, -X) up to monic normalization
    assert comps[0] == P("Y") and comps[1] == P("-X")
    assert initial_degree(syz) == 2


def test_koszul_syzygies_of_three_variables():
    source, target = one_row_modules((1, 1, 1))
    columns = one_row_columns("X", "Y", "Z")
    syz = syzygy_module_columns(columns, source, target)
    found = {str(e) for e in syz.elements}
    assert found == {"(Y, -X, 0)", "(Z, 0, -X)", "(0, Z, -Y)"}
    # every generator is annihilated by the matrix
    for e in syz.elements:
        assert apply_columns(columns, target, e).is_zero()


FIVE_MONOMIALS = ["X^2", "Y^2", "X*Y", "X*Z", "Y*Z"]


def test_five_monomial_family_initial_degree_three():
    source, target = one_row_modules((2, 2, 2, 2, 2))
    cols = one_row_columns(*FIVE_MONOMIALS)
    syz = syzygy_module_columns(cols, source, target)
    assert initial_degree(syz) == 3
    assert min(e.degree() for e in syz.elements) == 3
    # frozen via the independent linear-algebra oracle below
    assert kernel_dim_linalg(cols, source, target, 2) == 0
    assert kernel_dim_linalg(cols, source, target, 3) > 0


def test_initial_degree_zero_module():
    source, target = one_row_modules((1, 2))
    syz = syzygy_module_columns(one_row_columns("X", "Y^2"), source, target)
    # a genuinely zero kernel: single injective column
    source1 = GradedFreeModule(RING_QQ3, (1,))
    syz0 = syzygy_module_columns(one_row_columns("X"), source1, target)
    assert initial_degree(syz0) is None
    assert len(syz0) == 0
    assert initial_degree(syz) == 3


def test_zero_columns_give_basis_syzygies():
    source, target = one_row_modules((1, 2))
    syz = syzygy_module_columns(one_row_columns("X", "0"), source, target)
    assert any(str(e) == "(0, 1)" for e in syz.elements)
    assert initial_degree(syz) == 2


def test_zero_matrix_kernel_is_whole_source():
    source, target = one_row_modules((1, 1))
    syz = syzygy_module_columns(one_row_columns("0", "0"), source, target)
    assert {str(e) for e in syz.elements} == {"(1, 0)", "(0, 1)"}


def test_grading_validation():
    source, target = one_row_modules((1, 1))
    with pytest.raises(GradingError):
        syzygy_module_columns(one_row_columns("X^2", "Y"), source, target)


def test_dependent_column_syzygy():
    # duplicated column: the difference of basis vectors is a syzygy
    source, target = one_row_modules((1, 1))
    syz = syzygy_module_columns(one_row_columns("X", "X"), source, target)
    assert initial_degree(syz) == 1
    assert any(e.components().get(0) == P("1") or e.components().get(1) == P("1")
               for e in syz.elements)


def test_product_column_syzygies():
    # Syz(X, Y, XY): degree-2 kernel piece has dimension 2
    source, target = one_row_modules((1, 1, 2))
    cols = [[(0, P("X"))], [(0, P("Y"))], [(0, P("X*Y"))]]
    syz = syzygy_module_columns(cols, source, target)
    assert initial_degree(syz) == 2
    assert kernel_dim_linalg(cols, source, target, 2) == 2
    gb = buchberger(list(syz.elements))
    assert graded_piece_dim(syz, 2) == graded_piece_dim(gb, 2) == 2


def test_graded_piece_dims_of_irrelevant_ideal():
    gb = ideal_groebner([P("X"), P("Y"), P("Z")])
    assert graded_piece_dim(gb, 1) == 3
    assert graded_piece_dim(gb, 2) == 6
    assert graded_piece_dim(gb, 0) == 0


def test_graded_piece_dim_zero_module():
    source = GradedFreeModule(RING_QQ3, (0,))
    zero = ModuleElement(source, {})
    gb = buchberger([zero])
    assert graded_piece_dim(gb, 3) == 0


def test_kernel_dim_koszul_three_variables():
    source, target = one_row_modules((1, 1, 1))
    cols = [[(0, P("X"))], [(0, P("Y"))], [(0, P("Z"))]]
    assert kernel_dim_linalg(cols, source, target, 2) == 3
    # below every source generator degree the piece is empty
    assert kernel_dim_linalg(cols, source, target, 0) == 0


def test_kernel_dim_linalg_rejects_an_entry_from_another_ring():
    source, target = one_row_modules((1, 1))
    y7 = parse_polynomial("Y", make_ring(3, FieldSpec(7)))
    with pytest.raises(GradingError,
                       match=r"entry \(0,1\) lives in the wrong ring"):
        kernel_dim_linalg([[(0, P("X"))], [(0, y7)]], source, target, 2)


def test_kernel_sections_give_verified_elements():
    source, target = one_row_modules((1, 1, 1))
    cols = [[(0, P("X"))], [(0, P("Y"))], [(0, P("Z"))]]
    dim, elements = kernel_sections_linalg(cols, source, target, 2)
    assert dim == 3 and len(elements) == 3
    for e in elements:
        assert e.degree() == 2
        assert apply_columns(cols, target, e).is_zero()


@pytest.mark.parametrize("p", [0, 7])
def test_section_kernel_scales_one_term_sections(p):
    # one-term sections with coefficients other than one (no caller passes
    # them today) have the same kernel as the monomial sections, each
    # lifted vector a multiple of the unscaled one
    ring = make_ring(3, FieldSpec(p))
    columns = [[(0, P(t, ring))] for t in ("X", "Y", "Z", "X + Y")]
    sections = [modgb._monomial_vectors(3, 1) for _ in columns]
    rng = random.Random(5)
    scaled = [[{key: ring.field.from_int(rng.choice((2, 3, -1, 1)))
                for key in vec} for vec in vecs] for vecs in sections]
    dim, vectors = modgb._section_kernel(columns, sections, p, Caps(), True)
    dim_c, vectors_c = modgb._section_kernel(columns, scaled, p, Caps(), True)

    def monic(vec):
        lead = vec[max(vec)]
        inv = pow(lead, -1, p) if p else 1 / Fraction(lead)
        return {k: c * inv % p if p else c * inv for k, c in vec.items()}

    assert dim == dim_c == len(vectors) == 6
    assert [monic(v) for v in vectors_c] == [monic(v) for v in vectors]


def test_ideal_membership_examples():
    gb = ideal_groebner([P(t) for t in FIVE_MONOMIALS])
    assert ideal_membership(P("X^2"), gb)
    assert ideal_membership(P("X*Y"), gb)
    assert not ideal_membership(P("Z^2"), gb)
    gb2 = ideal_groebner([P("X^2"), P("Y^2")])
    assert not ideal_membership(P("X"), gb2)
    # non-monic rational generators; Y*f + X*g = 3*X^2*Y + ... meets the
    # reducer 4*X^2 - 3*Y^2 and so needs the fraction-free rescale
    f, g = P("2*X^2 - 3/2*Y^2"), P("X*Y + 5/3*Z^2")
    gb3 = ideal_groebner([f, g])
    assert ideal_membership(P("Y") * f + P("X") * g, gb3)
    assert ideal_membership(P("7/5*X - 2/3*Z") * f + P("-3*Y + 1/2*Z") * g, gb3)
    assert ideal_membership(P("Y^3 + 20/9*X*Z^2"), gb3)
    assert not ideal_membership(P("X^2"), gb3)
    # the same loop mod p
    ring7 = make_ring(3, FieldSpec(7))
    f7, g7 = P("3*X^2 - Y^2", ring7), P("2*X*Y + Z^2", ring7)
    gb7 = ideal_groebner([f7, g7])
    assert ideal_membership(P("X + 2*Z", ring7) * f7 + P("5*Y", ring7) * g7, gb7)
    assert not ideal_membership(P("X*Y", ring7), gb7)


def test_is_irrelevant_primary_examples():
    assert is_irrelevant_primary([P("X^2"), P("Y^2"), P("Z^2")])
    assert not is_irrelevant_primary([P("X^2"), P("X*Y"), P("X*Z")])
    assert is_irrelevant_primary(
        [P("X^2 - Y^2"), P("X^2 - Z^2"), P("X*Y"), P("X*Z"), P("Y*Z")])
    assert is_irrelevant_primary([P("X"), P("Y"), P("Z")])
    assert not is_irrelevant_primary([P("0")])


def test_is_irrelevant_primary_prime_fallbacks():
    p = PRIMARY_TEST_PRIME
    # the prime kills a generator: no mod p, yes over QQ
    assert is_irrelevant_primary([P(f"{p}*X"), P("Y"), P("Z")])
    assert is_irrelevant_primary([P(f"{p}*X^2 + {p}*Y^2"), P("X*Y"), P("Z^3"),
                                  P("X^2 - Y^2")])
    # the prime divides a denominator: the QQ test alone decides
    assert is_irrelevant_primary([P(f"1/{p}*X^2"), P("Y^2"), P("Z^2")])
    assert not is_irrelevant_primary([P(f"1/{p}*X^2"), P("X*Y"), P("X*Z")])
    # truly not primary, with a generator the prime kills
    assert not is_irrelevant_primary([P("X*Y - Z^2"), P("X*Z"), P(f"{p}*Y^2")])
    # a constant makes the unit ideal, even when the prime kills it
    assert not is_irrelevant_primary([P("X"), P("Y"), P("Z"), P(str(p))])


def test_ideal_criteria_skip_pairs():
    # every pair coprime: the product criterion leaves nothing to process
    gb = ideal_groebner([P("X^2"), P("Y^3"), P("Z^4")], Caps(max_pairs=0))
    assert leading_monos(gb) == {(2, 0, 0), (0, 3, 0), (0, 0, 4)}
    assert is_irrelevant_primary([P("X^2"), P("Y^3"), P("Z^4")],
                                 Caps(max_pairs=0))
    # three pairs with one lcm XYZ: the last element's two pairs count once
    ideal_groebner([P("X*Y"), P("Y*Z"), P("X*Z")], Caps(max_pairs=2))
    # chain criterion: X*Y*Z deletes the old pair of lcm X^2*Y^2*Z
    ideal_groebner([P("X^2*Z"), P("Y^2*Z"), P("X*Y*Z")], Caps(max_pairs=2))
    with pytest.raises(ResourceCapError):
        ideal_groebner([P("X^2*Z"), P("Y^2*Z"), P("X*Y*Z")], Caps(max_pairs=1))


@pytest.mark.parametrize("char", [0, 7])
def test_cover_stops_the_plain_run(char):
    ring = make_ring(3, FieldSpec(char))
    # the inputs cover, so the run stops before the pair (X^2, X*Y) that a
    # Groebner basis needs
    polys = [P(t, ring) for t in ("X^2", "Y^2", "Z^2", "X*Y + Y*Z + X*Z")]
    with pytest.raises(ResourceCapError):
        ideal_groebner(polys, Caps(max_pairs=0))
    assert _leading_terms_cover_variables(polys, Caps(max_pairs=0))
    assert is_irrelevant_primary(polys, Caps(max_pairs=0))
    # the pair (X^2, X*Z - Z^2) gives Z^3, the cover, before the pair
    # (Z^3, X*Z - Z^2) that a Groebner basis needs
    polys = [P(t, ring) for t in ("X^2", "Y^2", "X*Z - Z^2")]
    with pytest.raises(ResourceCapError):
        ideal_groebner(polys, Caps(max_pairs=1))
    assert _leading_terms_cover_variables(polys, Caps(max_pairs=1))
    assert is_irrelevant_primary(polys, Caps(max_pairs=1))


def primary_test_ideals(char):
    """(generators, Hilbert function of their ideal) for yes and no ideals
    over QQ or F_char: the examples and prime fallbacks above, then the
    maximal minors of interlaced presentations on P^2 with their
    Eagon-Northcott count."""
    p = PRIMARY_TEST_PRIME
    ring = make_ring(3, FieldSpec(char))
    texts = [
        ["X^2", "Y^2", "Z^2"], ["X^2", "X*Y", "X*Z"],
        ["X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"], ["X", "Y", "Z"],
        [f"{p}*X", "Y", "Z"], [f"{p}*X^2 + {p}*Y^2", "X*Y", "Z^3", "X^2 - Y^2"],
        [f"1/{p}*X^2", "Y^2", "Z^2"], [f"1/{p}*X^2", "X*Y", "X*Z"],
        ["X*Y - Z^2", "X*Z", f"{p}*Y^2"], ["X", "Y", "Z", str(p)],
    ]
    for row in texts:
        polys = [P(t, ring) for t in row]
        gb = ideal_groebner(polys)
        yield polys, lambda d, gb=gb: graded_piece_dim(gb, d)
    rng = random.Random(17 + char)
    for m in (1, 2, 2, 3):
        for _ in range(3):
            bundle = interlaced_bundle(rng, ring, m)
            yield ([f for f in maximal_minors(bundle) if not f.is_zero()],
                   minor_ideal_dims(bundle))


@pytest.mark.parametrize("char", [0, 7])
def test_wrong_expected_never_changes_the_answer(char):
    """A wrong Hilbert function costs at most a fallback run: set to 0,
    to dim R_d or off by one, the answer stays the plain test's."""
    answers = []
    for polys, hilbert in primary_test_ideals(char):
        truth = bool(is_irrelevant_primary(polys))
        answers.append(truth)
        mutants = [hilbert, lambda d: 0, lambda d: comb(d + 2, 2),
                   lambda d: hilbert(d) + 1, lambda d: hilbert(d) - 1]
        for expected in mutants:
            assert bool(is_irrelevant_primary(polys, Caps(), expected)) == truth
    assert answers[:10] == [True, False, True, True, True, True, True, False,
                            False, False]
    assert True in answers[10:] and False in answers[10:]


def test_driven_pass_halves_the_zero_reductions(monkeypatch):
    bundle = interlaced_bundle(random.Random(0), make_ring(4), 2)
    assert (bundle.twists_a, bundle.twists_b) == ((0, -1, -1, -1, -2), (2, 1))
    minors = [f for f in maximal_minors(bundle) if not f.is_zero()]
    zeros = []
    original = modgb._normal_form_terms

    def counting(*args):
        nf = original(*args)
        zeros[-1] += not nf
        return nf

    monkeypatch.setattr(modgb, "_normal_form_terms", counting)
    for expected in (None, minor_ideal_dims(bundle)):
        zeros.append(0)
        assert is_irrelevant_primary(minors, Caps(), expected)
    plain, driven = zeros
    assert 2 * driven <= plain


def macaulay_rank(polys, d):
    """dim I_d as the rank of the rows x^a * f of degree d."""
    nvars = polys[0].ring.nvars
    p = polys[0].ring.field.char
    rows = []
    for f in polys:
        e = d - f.homogeneous_degree()
        if e < 0:
            continue
        for mono in monomials_of_degree(nvars, e):
            rows.append((Poly(f.ring, {mono: f.ring.field.one()}) * f).terms)
    kernel, _ = _echelon_kernel(rows, p, Caps())
    return len(rows) - kernel


def sparse_form(ring, degree, rng):
    """A form with one to three terms: sparse ideals share leading-term
    lcms, which is where the pair criteria act."""
    monos = list(monomials_of_degree(ring.nvars, degree))
    picks = rng.sample(monos, min(rng.randint(1, 3), len(monos)))
    return Poly(ring, {m: ring.field.from_int(rng.choice([1, -1, 2, 3]))
                       for m in picks})


@pytest.mark.parametrize("char,nvars", itertools.product([0, 7, 32003], [3, 4]))
def test_ideal_groebner_matches_macaulay_rank(char, nvars):
    """Random homogeneous ideals: graded pieces of the basis equal Macaulay
    ranks, and the primary test agrees with I_d == R_d at the Macaulay bound
    d = (N+1)(D-1)+1 for generators of degree at most D."""
    rng = random.Random(1000 * nvars + char)
    ring = make_ring(nvars, FieldSpec(char))
    top = 3
    for _ in range(40):
        polys = [sparse_form(ring, rng.randint(1, top), rng)
                 for _ in range(rng.randint(nvars - 1, nvars + 1))]
        gb = ideal_groebner(polys)
        for d in range(top + 3):
            assert graded_piece_dim(gb, d) == macaulay_rank(polys, d)
        bound = nvars * (max(f.homogeneous_degree() for f in polys) - 1) + 1
        full = len(list(monomials_of_degree(nvars, bound)))
        assert bool(is_irrelevant_primary(polys)) == (
            macaulay_rank(polys, bound) == full)


@pytest.mark.parametrize("char", [0, 7])
def test_syzygy_bundle_piece_gives_ideal_piece(char):
    """dim I_t = sum_i dim S_(t - d_i) - h^0(E(t - c)) for E = Syz(f)(c):
    the degree-(t - c) piece of E's presentation is the Macaulay matrix of
    I_t.  It equals the Macaulay rank and the Groebner count, over QQ with
    Fraction coefficients and over F_7, with twists c != 0, for t < 0, t
    below the least generator degree (2) and above it."""
    rng = random.Random(char)
    ring = make_ring(3, FieldSpec(char))
    for twist in [-3, 2, 5] * 4:
        polys = []
        for _ in range(rng.randint(2, 4)):
            f = sparse_form(ring, rng.randint(2, 3), rng)
            polys.append(Poly(ring, {m: c * ring.field.from_fraction(
                Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 5])))
                for m, c in f.terms.items()}))
        bundle = from_syzygy(SyzygyBundleSpec(ring, tuple(polys), twist))
        args = (bundle.columns(), bundle.source_module(), bundle.target_module())
        gb = ideal_groebner(polys)
        for t in range(-2, 7):
            products = sum(comb(t - f.homogeneous_degree() + 2, 2)
                           for f in polys if t >= f.homogeneous_degree())
            dim = products - kernel_dim_linalg(*args, t - twist, Caps())
            assert dim == macaulay_rank(polys, t) == graded_piece_dim(gb, t), t
            assert dim == 0 or t >= 2


def module_macaulay_rank(gens, d):
    """dim U_d as the rank of the rows x^a * g of module degree d."""
    ring = gens[0].module.ring
    rows = []
    for g in gens:
        e = g.degree()
        if e is None or e > d:
            continue
        for mono in monomials_of_degree(ring.nvars, d - e):
            rows.append({(i, mono_mul(m, mono)): c for (i, m), c in g.terms.items()})
    kernel, _ = _echelon_kernel(rows, ring.field.char, Caps())
    return len(rows) - kernel


def sparse_module_element(module, degree, rng):
    """An element of the given degree with one or two nonzero components,
    each a sparse form."""
    comps = [c for c, e in enumerate(module.generator_degrees) if e <= degree]
    picks = rng.sample(comps, min(rng.randint(1, 2), len(comps)))
    return ModuleElement.from_components(module, {
        c: sparse_form(module.ring, degree - module.generator_degrees[c], rng)
        for c in picks})


@pytest.mark.parametrize("char", [0, 7, 32003])
def test_module_groebner_matches_macaulay_rank(char):
    """Random sparse inputs in target ranks 2 and 3: graded pieces of the
    basis equal Macaulay ranks.  Sparse components make coprime leading
    monomials and shared lcms within a component, where a pair criterion
    used beyond its reach (the product criterion on vectors, the chain
    criterion across components) loses basis elements."""
    rng = random.Random(5000 + char)
    ring = make_ring(3, FieldSpec(char))
    for _ in range(30):
        module = GradedFreeModule(ring, tuple(rng.randint(0, 1)
                                              for _ in range(rng.randint(2, 3))))
        gens = [sparse_module_element(module, rng.randint(1, 3), rng)
                for _ in range(rng.randint(3, 6))]
        gb = buchberger(gens)
        for d in range(6):
            assert graded_piece_dim(gb, d) == module_macaulay_rank(gens, d)


def test_chain_criterion_drops_module_pairs(monkeypatch):
    # leading terms X^2, Y^2 and X*Y in component 0 of a rank-2 module: the
    # third deletes the queued pair of lcm X^2*Y^2, as in an ideal; the
    # product criterion is off, so that coprime pair was queued at all
    module = GradedFreeModule(RING_QQ3, (0, 1))
    gens = [ModuleElement.from_components(module, {0: P(a), 1: P(b)})
            for a, b in (("X^2", "Y"), ("Y^2", "Z"), ("X*Y", "X"))]
    deleted = []
    update = modgb._gebauer_moller

    def recording(codec, lts, pending, h, product):
        assert not product
        before = set(pending)
        kept = update(codec, lts, pending, h, product)
        deleted.extend(before - set(pending))
        return kept

    monkeypatch.setattr(modgb, "_gebauer_moller", recording)
    gb = buchberger(gens)
    assert (0, 1) in deleted
    for d in range(6):
        assert graded_piece_dim(gb, d) == module_macaulay_rank(gens, d)
    # a new leading term never touches another component's pairs
    codec = _TermCodec(module, "test")

    def word(mono):
        return codec.word(codec.encode(0, mono))

    pending = {(0, 1): word((2, 2, 0))}
    assert update(codec, [(1, word((2, 0, 0))), (1, word((0, 2, 0)))], pending,
                  (0, word((1, 1, 0))), False) == []
    assert pending == {(0, 1): word((2, 2, 0))}


def reduce_columns(cols, source, target, char):
    """The same presentation over F_char (unchanged for char 0)."""
    if char == 0:
        return cols, source, target
    ring_p = make_ring(3, FieldSpec(char))
    cols_p = [[(j, parse_polynomial(str(p), ring_p)) for j, p in col]
              for col in cols]
    return (cols_p, GradedFreeModule(ring_p, source.generator_degrees),
            GradedFreeModule(ring_p, target.generator_degrees))


def test_engine_cross_check_randomized():
    """Central property: the kernel's Groebner basis counts the kernel
    dimensions on its leading terms, as does its reduced basis, over QQ and
    over F_5 and F_32003 on the same random bundles.  A run truncated at
    degree top returns the full run's elements of degree <= top, in order,
    which count every dimension up to top, as the image run does."""
    rng = random.Random(424242)
    bundles = [random_kernel_bundle(rng) for _ in range(25)]
    for char, bundle in itertools.product((0, 5, 32003), bundles):
        cols, source, target = reduce_columns(
            bundle.columns(), bundle.source_module(), bundle.target_module(), char)
        syz = syzygy_module_columns(cols, source, target)
        lo = min(source.generator_degrees)
        dims = {t: kernel_dim_linalg(cols, source, target, t)
                for t in range(lo, lo + 8)}
        gb = buchberger(list(syz.elements)) if syz.elements else syz
        for t in range(lo, lo + 8):
            assert graded_piece_dim(syz, t) == dims[t]
        for t in range(lo, lo + 5):
            assert graded_piece_dim(gb, t) == dims[t]
        for top in range(lo, lo + 5):
            cut = syzygy_module_columns(cols, source, target, top=top)
            assert cut.elements == tuple(e for e in syz.elements
                                         if e.degree() <= top)
            cut_gb = buchberger(list(cut.elements)) if cut.elements else cut
            image_dims = kernel_dims_gb(cols, source, target, Caps(), top)
            for t in range(lo - 2, top + 1):
                assert graded_piece_dim(cut, t) == graded_piece_dim(cut_gb, t) \
                    == image_dims(t) == (dims[t] if t >= lo else 0)
        # initial degree agrees with the first positive kernel dimension
        first = next((t for t in range(lo, lo + 8) if dims[t] > 0), None)
        alpha = initial_degree(syz)
        if first is not None:
            assert alpha == first
        else:
            assert alpha is None or alpha >= lo + 8
        # syzygies annihilate the matrix
        for e in syz.elements:
            assert apply_columns(cols, target, e).is_zero()
            assert e.is_homogeneous()


GOLDEN_SYZYGIES = Path(__file__).with_name("syzygy_golden.json")


def golden_presentations():
    """Named presentations (columns, source, target) whose syzygy generators
    are pinned in syzygy_golden.json: seeded random bundles over QQ and
    F_32003, one presentation with a zero column and one whose third column
    is the sum of the first two."""
    cases = {}
    for seed in (5, 16, 20, 38):
        bundle = random_kernel_bundle(random.Random(seed))
        for char in (0, 32003):
            cases[f"random{seed}/{char}"] = reduce_columns(
                bundle.columns(), bundle.source_module(),
                bundle.target_module(), char)
    target = GradedFreeModule(RING_QQ3, (0, 0))

    def columns(*entries):
        return [[(j, P(t)) for j, t in enumerate(col) if t != "0"]
                for col in entries]

    cases["zero_column"] = (
        columns(("X", "Y"), ("0", "0"), ("Z", "X"), ("Y^2", "Z^2")),
        GradedFreeModule(RING_QQ3, (1, 1, 1, 2)), target)
    cases["dependent_column"] = (
        columns(("X", "Y"), ("Y", "Z"), ("X + Y", "Y + Z"), ("Z", "X")),
        GradedFreeModule(RING_QQ3, (1, 1, 1, 1)), target)
    return cases


def golden_syzygy_strings():
    """str() of the generators per case: the full run, and the runs
    truncated at its initial degree and one above."""
    out = {}
    for name, (cols, source, target) in golden_presentations().items():
        full = syzygy_module_columns(cols, source, target)
        alpha = initial_degree(full)
        out[name] = {label: [str(e) for e in syz.elements] for label, syz in (
            ("full", full),
            *((f"top={top}", syzygy_module_columns(cols, source, target, top=top))
              for top in (alpha, alpha + 1)))}
    return out


def test_syzygy_generators_golden():
    # the exact generators, in order; witness strings in reports print them
    assert golden_syzygy_strings() == json.loads(GOLDEN_SYZYGIES.read_text())


def test_mod_p_kernel_dominates_rational_kernel():
    rng = random.Random(777)
    ring_p = make_ring(3, FieldSpec(5))
    for _ in range(12):
        bundle = random_kernel_bundle(rng)
        cols = bundle.columns()
        source, target = bundle.source_module(), bundle.target_module()
        cols_p = [[(j, parse_polynomial(str(p), ring_p)) for j, p in col]
                  for col in cols]
        source_p = GradedFreeModule(ring_p, source.generator_degrees)
        target_p = GradedFreeModule(ring_p, target.generator_degrees)
        lo = min(source.generator_degrees)
        for t in range(lo, lo + 4):
            dq = kernel_dim_linalg(cols, source, target, t)
            dp = kernel_dim_linalg(cols_p, source_p, target_p, t)
            assert dp >= dq


def test_echelon_combinations_ignore_row_order():
    # a dependent column's combination is its unique relation with the
    # independent columns before it, whichever rows the pivots land on;
    # over QQ the fresh entries have denominators, so that the column
    # scaling of the fraction-free rows is exercised
    rng = random.Random(4242)
    dens = random.Random(4343)
    rows = [(j, k) for j in range(3) for k in range(3)]
    reverse = {r: -i for i, r in enumerate(sorted(rows))}
    for p in (0, 7):
        for _ in range(20):
            vectors = []
            for _ in range(6):
                if vectors and rng.random() < 0.5:
                    picks = rng.sample(vectors, min(2, len(vectors)))
                    vec = {}
                    for v in picks:
                        c = rng.randint(-3, 3)
                        for r, x in v.items():
                            vec[r] = vec.get(r, 0) + c * x
                else:
                    vec = {r: rng.randint(-3, 3) for r in rows if rng.random() < 0.4}
                    if not p:
                        vec = {r: Fraction(x, dens.choice((1, 2, 3, 4, 6, 35)))
                               for r, x in vec.items()}
                field = (lambda x: x % p) if p else Fraction
                vec = {r: field(x) for r, x in vec.items() if field(x)}
                vectors.append(vec)
            relabelled = [{reverse[r]: x for r, x in v.items()} for v in vectors]
            dim, combos = _echelon_kernel(vectors, p, Caps(), want_vectors=True)
            assert (dim, combos) == _echelon_kernel(relabelled, p, Caps(),
                                                    want_vectors=True)
            assert dim == len(combos)


def gauss_jordan(vectors, p=0):
    """Reference for _echelon_kernel: Gauss-Jordan in the given column order,
    in Fractions over QQ (p == 0) and in residues mod p.  Every basis vector
    is one at its pivot row and zero at the other pivot rows, so one pass
    over the basis clears every pivot row of a column, and a dependent
    column's combination is its relation with the columns before it."""
    def field(x):
        return x % p if p else Fraction(x)

    def sub(d, c, src):
        for r, x in src.items():
            d[r] = field(d.get(r, 0) - c * x)
            if not d[r]:
                del d[r]

    basis = []                      # [pivot row, vector, combination]
    dim, combos = 0, []
    for idx, vec in enumerate(vectors):
        v = {r: field(x) for r, x in vec.items()}
        combo = {idx: field(1)}
        for row, b, bc in basis:
            c = v.get(row)
            if c:
                sub(v, c, b)
                sub(combo, c, bc)
        if not v:
            dim += 1
            combos.append(combo)
            continue
        row = min(v, key=repr)
        inv = pow(v[row], -1, p) if p else 1 / v[row]
        v = {r: field(x * inv) for r, x in v.items()}
        combo = {r: field(x * inv) for r, x in combo.items()}
        for entry in basis:
            c = entry[1].get(row)
            if c:
                sub(entry[1], c, v)
                sub(entry[2], c, combo)
        basis.append([row, v, combo])
    return dim, combos


@pytest.mark.parametrize("seed", range(6))
def test_echelon_qq_matches_fraction_gauss_jordan(seed):
    """Sparse columns of Fractions with denominators, plain ints and planted
    dependent columns: the fraction-free elimination gives the reference's
    dimension and Fraction combinations, and each combination annihilates
    its columns exactly."""
    rng = random.Random(9000 + seed)
    nrows = rng.randint(3, 12)
    rows = rng.sample([(j, k) for j in range(4) for k in range(6)], nrows)
    vectors = []
    for _ in range(rng.randint(4, 18)):
        roll = rng.random()
        if vectors and roll < 0.4:
            vec = {}
            for v in rng.sample(vectors, min(rng.randint(1, 3), len(vectors))):
                c = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 7, 10**6 + 3)))
                for r, x in v.items():
                    vec[r] = vec.get(r, 0) + c * x
        elif roll < 0.7:
            vec = {r: rng.randint(-20, 20) for r in rows if rng.random() < 0.5}
        else:
            vec = {r: Fraction(rng.randint(-10**4, 10**4),
                               rng.choice((1, 2, 3, 12, 97, 2**40)))
                   for r in rows if rng.random() < 0.5}
        vectors.append({r: x for r, x in vec.items() if x})
    dim, combos = _echelon_kernel(vectors, 0, Caps(), want_vectors=True)
    assert (dim, combos) == gauss_jordan(vectors)
    assert _echelon_kernel(vectors, 0, Caps()) == (dim, [])
    assert dim == len(combos) and dim > 0
    for combo in combos:
        assert all(type(c) is Fraction and c for c in combo.values())
        assert combo[max(combo)] == 1
        total: dict = {}
        for idx, c in combo.items():
            for r, x in vectors[idx].items():
                total[r] = total.get(r, 0) + c * x
        assert not any(total.values())


def seeded_columns(rng, p):
    """Sparse columns over QQ (Fraction and int entries, p == 0) or F_p: a
    zero column, duplicates (an equal copy and the same dict twice), planted
    combinations of other columns placed anywhere, and term counts spread so
    that sparsest first is not the given order."""
    rows = rng.sample([(j, k) for j in range(5) for k in range(5)],
                      rng.randint(4, 14))

    def entry():
        x = 0
        while not (x % p if p else x):
            x = rng.choice((rng.randint(-9, 9), rng.randint(-10**6, 10**6)))
        if p:
            return x % p
        return Fraction(x, rng.choice((1, 3, 8, 97, 2**40))) if rng.random() < 0.5 else x

    vectors = [{r: entry() for r in rng.sample(rows, rng.randint(1, len(rows)))}
               for _ in range(rng.randint(3, 9))]
    for _ in range(rng.randint(2, 6)):
        vec: dict = {}
        for v in rng.sample(vectors, min(rng.randint(1, 3), len(vectors))):
            c = entry()
            for r, x in v.items():
                vec[r] = vec.get(r, 0) + c * x
        vectors.append({r: x % p if p else x for r, x in vec.items()
                        if (x % p if p else x)})
    vectors += [{}, dict(vectors[0]), vectors[1]]
    rng.shuffle(vectors)
    return vectors


@pytest.mark.parametrize("p", (0, 7, 32003, 1000003))
@pytest.mark.parametrize("seed", range(8))
def test_echelon_matches_gauss_jordan_in_given_order(p, seed):
    """Eliminated sparsest first, the kernel still has the dimension of the
    reference and the combinations of dependent columns with the columns
    before them in the given order, with the same value types (Fraction over
    QQ, int mod p) and one on each vector's own column; the inputs are left
    as they were."""
    rng = random.Random(f"echelon/{p}/{seed}")
    vectors = seeded_columns(rng, p)
    order = sorted(range(len(vectors)), key=lambda i: len(vectors[i]))
    assert order != list(range(len(vectors)))
    before = [[(r, type(x), x) for r, x in v.items()] for v in vectors]
    dim, combos = _echelon_kernel(vectors, p, Caps(), want_vectors=True)
    assert [[(r, type(x), x) for r, x in v.items()] for v in vectors] == before
    want_dim, want = gauss_jordan(vectors, p)
    assert (dim, combos) == (want_dim, want)
    assert _echelon_kernel(vectors, p, Caps()) == (dim, [])
    field = int if p else Fraction
    for combo, ref in zip(combos, want):
        assert [type(c) for c in combo.values()] == [field] * len(combo)
        assert combo[max(combo)] == 1 and max(combo) == max(ref)
        total: dict = {}
        for idx, c in combo.items():
            for r, x in vectors[idx].items():
                total[r] = total.get(r, 0) + c * x
        assert not any(x % p if p else x for x in total.values())


def test_section_coordinates_do_not_carry_at_the_digit_width():
    """One row of degree-7 forms: in module degree t the target exponents
    reach t, and the digit width picked for the call is t.bit_length(), so t
    = 15 fills every digit and t = 16 needs one more bit.  A carry between
    digits (X^8 * Z^2 landing on Y^9 * Z with 3-bit digits, say) would merge
    two coordinates and change a dimension."""
    source, target = one_row_modules((7, 7, 7, 7))
    cols = one_row_columns("X^7", "Y^7", "Z^7", "X^6*Z")
    dims = kernel_dims_gb(cols, source, target, Caps(), 17)
    for t in range(6, 18):
        assert kernel_dim_linalg(cols, source, target, t) == dims(t)
    ring = make_ring(3, FieldSpec(32003))
    source_p, target_p = one_row_modules((7, 7, 7, 7), ring)
    cols_p = [[(0, parse_polynomial(str(f), ring))] for [(_, f)] in cols]
    for t in (14, 15, 16, 17):
        assert kernel_dim_linalg(cols_p, source_p, target_p, t) == dims(t)
    # a carry out of the last digit lands in the next block: with d = 16
    # and 4-bit digits, Z^16 in row 0 would be the constant of row 1
    for d in (15, 16):
        source = GradedFreeModule(RING_QQ3, (d, d, d))
        target = GradedFreeModule(RING_QQ3, (0, d))
        z, one = P(f"Z^{d}"), P("1")
        cols = [[(0, z), (1, one)], [(1, one)], [(0, z)]]
        dims = kernel_dims_gb(cols, source, target, Caps(), d + 1)
        assert dims(d) == 1
        for t in (d - 1, d, d + 1):
            assert kernel_dim_linalg(cols, source, target, t) == dims(t)


def test_kernel_dims_gb_counts_the_image():
    # columns X, Y, XY and a zero column: in degree 2 the source has
    # 3 * 3 + 1 monomial terms and the image (X, Y) has five, so the kernel
    # has 5; in degree 1 only the zero column's basis vector is left
    source, target = one_row_modules((1, 1, 2, 1))
    cols = [[(0, P("X"))], [(0, P("Y"))], [(0, P("X*Y"))], []]
    dims = kernel_dims_gb(cols, source, target, Caps(), 3)
    for t in range(-1, 4):
        assert dims(t) == kernel_dim_linalg(cols, source, target, t)
    assert [dims(t) for t in (0, 1, 2)] == [0, 1, 5]
    # a fresh run read from the top down counts the same
    down = range(3, -2, -1)
    dims = kernel_dims_gb(cols, source, target, Caps(), 3)
    assert [dims(t) for t in down] == [kernel_dim_linalg(cols, source, target, t)
                                       for t in down]
    # degrees above the truncation are never counted
    with pytest.raises(AlgebraError):
        dims(4)
    with pytest.raises(GradingError):
        kernel_dims_gb([[(0, P("X^2"))]], GradedFreeModule(RING_QQ3, (1,)),
                       target, Caps(), 2)


def leading_span(module, leading=()):
    """A _LeadingSpan on a codec of module, with (component, monomial)
    leading terms added, and a function adding one more."""
    codec = _TermCodec(module, "test")
    span = _LeadingSpan(codec)

    def add(comp, mono):
        span.add(codec.encode(comp, mono), sum(mono) + module.generator_degrees[comp])

    for comp, mono in leading:
        add(comp, mono)
    return span, add


def test_leading_span_counts_leads_added_at_or_below_the_degree_reached():
    module = GradedFreeModule(RING_QQ3, (0,))
    span, add = leading_span(module, [(0, (2, 0, 0))])  # X^2
    assert [span.size(d) for d in (3, 1, 2)] == [3, 0, 1]
    add(0, (0, 0, 3))                                   # Z^3, at degree 3
    assert span.size(3) == 4
    add(0, (0, 1, 0))                                   # Y, below it
    # degree 3: all ten cubics but X*Z^2 (Z^3 is a lead now)
    assert [span.size(d) for d in (1, 2, 3)] == [1, 4, 9]
    # a module counts per component, from its generator degrees
    span, _ = leading_span(GradedFreeModule(RING_QQ3, (0, 1)),
                           [(0, (1, 0, 0)), (1, (0, 0, 0))])
    assert [span.size(d) for d in (0, 1, 2)] == [0, 1 + 1, 3 + 3]
    assert leading_span(module)[0].size(4) == 0


def test_reducers_memo_keeps_first_divisor():
    # a term remembered without a divisor is checked against later entries,
    # and a remembered reduction is the one by the first divisor appended
    codec = _TermCodec(GradedFreeModule(RING_QQ3, (0,)), "test")

    def term(mono):
        return codec.encode(0, mono)

    def entry(text):
        return _reducer_entry(_integerize(codec.encode_terms(
            {(0, m): c for m, c in P(text).terms.items()})), codec)

    xy, x2 = entry("X*Y - Z^2"), entry("X^2 + Y*Z")
    reducers = _Reducers(codec, [xy])
    x2z, x2y = term((2, 0, 1)), term((2, 1, 0))
    assert reducers.reduction(x2z) is None
    reducers.add(x2)
    assert reducers.reduction(x2z) == (x2, [term((0, 1, 2))])
    assert x2["tailcoeffs"] == [1]
    assert reducers.reduction(x2y) == (xy, [term((1, 0, 2))])
    assert xy["tailcoeffs"] == [-1]
    assert reducers.memo[x2y] == (xy, [term((1, 0, 2))])
    # the same rule when the dense accumulator remembers the tails as
    # positions in the degree-3 layout, in a memo of their own
    _, index = codec.layout(3)
    reducers = _Reducers(codec, [xy])
    assert reducers.reduction(x2z, index) is None
    reducers.add(x2)
    assert reducers.reduction(x2z, index) == (x2, [index[term((0, 1, 2))]])
    assert reducers.reduction(x2y, index) == (xy, [index[term((1, 0, 2))]])
    assert reducers.by_index[x2y] == (xy, [index[term((1, 0, 2))]])
    assert not reducers.memo
    assert reducers.reduction(x2y) == (xy, [term((1, 0, 2))])
    assert reducers.by_index[x2y] == (xy, [index[term((1, 0, 2))]])


def loop_normal_form(f, gb, degree=None):
    """The reduction loop's normal form of f on the reducers of gb's
    elements, set up as ideal_membership does, as {mono: coefficient};
    degree, when given, is f's degree, passed on as the Buchberger driver
    passes it."""
    codec = _TermCodec(gb.module, "test")
    reducers = _Reducers(codec, [
        _reducer_entry(_integerize(codec.encode_terms(e.terms)), codec)
        for e in gb.elements])
    terms = _integerize(codec.encode_terms({(0, m): c for m, c in f.terms.items()}))
    nf = modgb._normal_form_terms(terms, reducers, Caps(), degree)
    return {mono: c for (_, mono), c in codec.decode_terms(nf).items()}


def division_normal_form(f, gb):
    """The normal form by the division algorithm in Poly arithmetic: cancel
    the largest term that a leading monomial of the monic basis divides,
    until none does."""
    basis = [(e.leading()[0][1], e.components()[0]) for e in gb.elements]
    r = f
    while True:
        for mono in sorted(r.terms, key=mono_key, reverse=True):
            hit = next(((lm, g) for lm, g in basis if mono_divides(lm, mono)), None)
            if hit is not None:
                break
        else:
            return r
        lm, g = hit
        quotient = Poly(f.ring, {tuple(a - b for a, b in zip(mono, lm)): r.terms[mono]})
        r = r - quotient * g


@pytest.mark.parametrize("char", [0, 7, 32003])
def test_normal_form_is_the_division_remainder(char, monkeypatch):
    """Random ideals and forms with rational coefficients: mod p the loop's
    lazy residues leave only residues in 1..p-1, and the result is the
    normal form; over QQ it is a positive multiple of it, on the dense
    accumulator the same one.  f - NF(f) reduces to zero on the reduced
    basis."""
    rng = random.Random(4242 + char)
    ring = make_ring(3, FieldSpec(char))
    fld = ring.field
    for _ in range(20):
        gb = ideal_groebner([sparse_form(ring, rng.randint(1, 3), rng)
                             for _ in range(rng.randint(2, 4))])
        for _ in range(3):
            d = rng.randint(2, 4)
            f = sum((random_homogeneous(ring, d, rng).scale(fld.from_fraction(
                Fraction(rng.randint(1, 5), rng.randint(1, 4))))
                for _ in range(2)), ring.zero())
            nf, want = loop_normal_form(f, gb), division_normal_form(f, gb)
            assert on_accumulator(monkeypatch, "dense",
                                  lambda: loop_normal_form(f, gb, d))[0] == nf
            if char:
                assert all(type(c) is int and 0 < c < char for c in nf.values())
                assert nf == want.terms
            else:
                assert all(type(c) is int for c in nf.values())
                assert nf.keys() == want.terms.keys()
                if nf:
                    mono = next(iter(nf))
                    ratio = nf[mono] / want.terms[mono]
                    assert ratio > 0 and Poly(ring, nf) == want.scale(ratio)
            assert ideal_membership(f - want, gb)


# (DENSE_FLOOR, DENSE_RATIO) that send every homogeneous normal form to one
# accumulator; "dense" still refuses a layout more than a million times the
# input, such as those of the degrees near the term-field bound
ACCUMULATORS = {"dense": (0, 10 ** 6), "heap": (inf, 0)}


def on_accumulator(monkeypatch, path, call):
    """(call(), how many normal forms took the dense accumulator, how many
    ran in all) with the rule forced to one accumulator, or as it stands
    when path is "rule"."""
    dense, total = [], []
    sweep, loop = modgb._dense_normal_form, modgb._normal_form_terms

    def counting_sweep(*args):
        dense.append(len(args[0]))
        return sweep(*args)

    def counting_loop(*args):
        total.append(len(args[0]))
        return loop(*args)

    with monkeypatch.context() as m:
        m.setattr(modgb, "_dense_normal_form", counting_sweep)
        m.setattr(modgb, "_normal_form_terms", counting_loop)
        if path != "rule":
            floor, ratio = ACCUMULATORS[path]
            m.setattr(modgb, "DENSE_FLOOR", floor)
            m.setattr(modgb, "DENSE_RATIO", ratio)
        return call(), len(dense), len(total)


def random_module_element(module, degree, rng):
    """A random element of module degree degree, every component a random
    form (random_homogeneous) where the degree allows one."""
    return ModuleElement.from_components(module, {
        c: random_homogeneous(module.ring, degree - e, rng)
        for c, e in enumerate(module.generator_degrees) if e <= degree})


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_layout_lists_the_terms_of_one_degree(rank):
    """A degree's layout is its terms in descending order, as encoding and
    sorting them gives, and its index inverts it; layout_size counts it."""
    rng = random.Random(31 + rank)
    for nvars in (1, 3, 4):
        module = GradedFreeModule(make_ring(nvars),
                                  tuple(rng.randint(-1, 2) for _ in range(rank)))
        codec = _TermCodec(module, "test")
        for d in range(-1, 5):
            layout, index = codec.layout(d)
            want = sorted((codec.encode(c, mono)
                           for c, e in enumerate(module.generator_degrees)
                           if e <= d for mono in monomials_of_degree(nvars, d - e)),
                          reverse=True)
            assert layout == want and len(layout) == codec.layout_size(d)
            assert [index[t] for t in layout] == list(range(len(layout)))
            assert codec.layout(d)[0] is layout
    with pytest.raises(ResourceCapError, match="^test: degree"):
        codec.layout(codec.max_degree + 1)


@pytest.mark.parametrize("char", [0, 7, 32003])
def test_dense_and_heap_accumulators_agree(char, monkeypatch):
    """Seeded random homogeneous ideals and rank-2/3 modules: every
    Buchberger run (_gb_core), reduced basis and normal form is the same,
    term and coefficient, on either accumulator and under the rule, which
    sends some of them to each (test_normal_form_is_the_division_remainder
    checks both against the division algorithm).  An inhomogeneous
    membership test keeps the heap."""
    rng = random.Random(2900 + char)
    ring = make_ring(4, FieldSpec(char))
    sides = {"dense": 0, "heap": 0}
    for trial in range(6):
        rank = (1, 1, 2, 3, 1, 2)[trial]
        module = GradedFreeModule(ring, tuple(rng.randint(0, 1) for _ in range(rank)))
        gens = [random_module_element(module, rng.randint(2, 3), rng)
                for _ in range(rng.randint(2, 3) if char else 2)]
        runs = {}
        for path in ("dense", "heap", "rule"):
            (_, basis), dense, total = on_accumulator(
                monkeypatch, path, lambda: modgb._gb_core(gens, module, Caps()))
            runs[path] = [b["terms"] for b in basis]
            if path == "dense":
                assert dense == total
            elif path == "heap":
                assert dense == 0
            else:
                sides["dense"] += dense
                sides["heap"] += total - dense
        assert runs["dense"] == runs["heap"] == runs["rule"]
        gb, _, _ = on_accumulator(monkeypatch, "heap", lambda: buchberger(gens))
        assert on_accumulator(monkeypatch, "dense", lambda: buchberger(gens))[0] == gb
        for _ in range(3):
            d = rng.randint(3, 5)
            f = random_module_element(module, d, rng)
            forms = {}
            for path in ("dense", "heap", "rule"):
                codec = _TermCodec(module, "test")
                reducers = _Reducers(codec, [
                    _reducer_entry(_integerize(codec.encode_terms(e.terms)), codec)
                    for e in gb.elements])
                terms = _integerize(codec.encode_terms(f.terms))
                forms[path], _, _ = on_accumulator(
                    monkeypatch, path,
                    lambda: modgb._normal_form_terms(terms, reducers, Caps(), d))
            assert forms["dense"] == forms["heap"] == forms["rule"]
        if rank == 1:
            polys = [g.components()[0] for g in gens]
            member = (polys[0] * random_homogeneous(ring, 1, rng)
                      + polys[1] * random_homogeneous(ring, 2, rng))
            ideal = ideal_groebner(polys)
            first = Poly(ring, {(1, 0, 0, 0): ring.field.one()})
            for f in (member, member + first):
                (answer, dense), heap = [
                    on_accumulator(monkeypatch, path,
                                   lambda: ideal_membership(f, ideal))[:2]
                    for path in ("dense", "heap")]
                assert (answer, dense) == heap and dense == 0
                assert answer or f is not member
    assert sides["dense"] and sides["heap"]


def test_dense_normal_form_keeps_the_caps(monkeypatch):
    """A dense normal form checks the deadline once per reduction step, as
    the heap loop does, so a timeout aborts inside it."""
    gb = ideal_groebner([random_homogeneous(make_ring(4, FieldSpec(7)), 2,
                                            random.Random(i)) for i in range(3)])
    codec = _TermCodec(gb.module, "test")
    entries = [_reducer_entry(_integerize(codec.encode_terms(e.terms)), codec)
               for e in gb.elements]
    f = random_homogeneous(gb.module.ring, 4, random.Random(5), density=1.0)
    terms = codec.encode_terms({(0, m): c for m, c in f.terms.items()})
    checks = {}
    check_time = Caps.check_time

    def counting(self):
        checks[path] += 1
        check_time(self)

    monkeypatch.setattr(Caps, "check_time", counting)
    for path in ("dense", "heap"):
        checks[path] = 0
        _, dense, _ = on_accumulator(monkeypatch, path, lambda: modgb._normal_form_terms(
            terms, _Reducers(codec, entries), Caps(), 4))
        assert dense == (path == "dense")
    assert checks["dense"] == checks["heap"] > 0
    expired = Caps(_deadline=0.0)
    for path in ("dense", "heap"):
        with pytest.raises(ResourceCapError, match="timeout"):
            on_accumulator(monkeypatch, path, lambda: modgb._normal_form_terms(
                terms, _Reducers(codec, entries), expired, 4))


def test_heap_normal_forms_build_no_layout(monkeypatch):
    """The selection reads a degree's size without building its layout:
    the Frobenius power of closure/squares/fp7 reduces in degree 98, whose
    4950-term layout stays unbuilt."""
    sizes = []
    loop = modgb._normal_form_terms

    def recording(terms, reducers, caps, degree=None):
        if degree is not None:
            sizes.append(reducers.codec.layout_size(degree))
        return loop(terms, reducers, caps, degree)

    def forbidden(self, d):
        raise AssertionError(f"built the layout of degree {d}")

    monkeypatch.setattr(modgb, "_normal_form_terms", recording)
    monkeypatch.setattr(_TermCodec, "layout", forbidden)
    job = {"ring": {"variables": ["X", "Y", "Z"], "field": "fp:7",
                    "order": "degrevlex"},
           "object": {"ideal": {"generators": ["X^2", "Y^2", "Z^2"]}},
           "task": {"name": "closure", "options": {
               "candidate": "X*Y", "genus": 3, "frobenius_exponent": 2,
               "strong_flag": "elliptic-curve"}}}
    _, _, code = execute_job(job)
    assert code == 0 and max(sizes) == comb(98 + 2, 2) == 4950


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_term_codec_matches_tuple_terms(rank):
    """Encoded terms compare as term_key does, shift by L(q) as mono_mul
    multiplies, decode back, and divide and take lcms as the tuples do,
    also with exponents near the top of their field."""
    rng = random.Random(20261019 + 10 * rank)
    for nvars in (1, 3, 4):
        module = GradedFreeModule(make_ring(nvars),
                                  tuple(rng.randint(-2, 2) for _ in range(rank)))
        codec = _TermCodec(module, "test")
        key = module.term_key()

        def random_term(top):
            return (rng.randrange(rank),
                    tuple(rng.randint(0, top) for _ in range(nvars)))

        terms = {random_term(3) for _ in range(40)}
        terms |= {random_term(2 ** (TERM_FIELD_BITS - 4)) for _ in range(10)}
        terms |= {(c, m) for c, m in list(terms)[:5] for c in range(rank)}
        terms = sorted(terms)
        encoded = {t: codec.encode(*t) for t in terms}
        assert sorted(terms, key=key) == sorted(terms, key=encoded.get)
        zero = (0,) * nvars
        for a in terms:
            assert codec.decode(encoded[a]) == a
            c, q = rng.choice(terms)
            shift = codec.encode(c, q) - codec.encode(c, zero)
            assert encoded[a] + shift == codec.encode(a[0], mono_mul(a[1], q))
        for a, b in itertools.product(terms, repeat=2):
            ta, tb = encoded[a], encoded[b]
            assert codec.divides(ta, tb) == (a[0] == b[0]
                                             and mono_divides(a[1], b[1]))
            lcm = codec.lcm(codec.word(ta), codec.word(tb))
            both = tuple(map(max, a[1], b[1]))
            assert lcm == codec.word(codec.encode(b[0], both))
            assert codec.degree(lcm) == sum(both)


def test_term_fields_refuse_degrees_that_do_not_fit(monkeypatch):
    """An exponent past the field bound raises at encode time, before any
    reduction; an S-pair whose lcm would not fit raises when it is formed;
    a degree at the bound is computed."""
    bound = 2 ** (TERM_FIELD_BITS - 1) - 1
    ring = make_ring(3)

    def mono(*exps):
        return Poly(ring, {exps: ring.field.one()})

    assert leading_monos(ideal_groebner([mono(bound, 0, 0)])) == {(bound, 0, 0)}
    original = modgb._normal_form_terms

    def forbidden(*args):
        raise AssertionError("reduced a term that does not fit")

    monkeypatch.setattr(modgb, "_normal_form_terms", forbidden)
    with pytest.raises(ResourceCapError, match="^buchberger: degree"):
        ideal_groebner([mono(bound + 1, 0, 0)])
    monkeypatch.setattr(modgb, "_normal_form_terms", original)
    half = bound // 2 + 1
    with pytest.raises(ResourceCapError, match=f"^buchberger: degree {2 * half}"):
        ideal_groebner([mono(half, 1, 0), mono(1, half, 0)])
    with pytest.raises(ResourceCapError, match="^ideal membership: degree"):
        ideal_membership(mono(0, bound + 1, 0), ideal_groebner([mono(1, 0, 0)]))


def test_resource_caps_abort():
    source, target = one_row_modules((2, 2, 2, 2, 2))
    with pytest.raises(ResourceCapError):
        syzygy_module_columns(one_row_columns(*FIVE_MONOMIALS), source, target,
                              caps=Caps(max_degree=2))
    with pytest.raises(ResourceCapError):
        syzygy_module_columns(one_row_columns(*FIVE_MONOMIALS), source, target,
                              caps=Caps(max_pairs=1))


def test_ideal_membership_arms_its_timeout():
    gb = ideal_groebner([P("X^2 - Y^2"), P("X*Y")])
    assert ideal_membership(P("X^3"), gb)
    with pytest.raises(ResourceCapError):
        ideal_membership(P("X^3"), gb, Caps(timeout_seconds=0))


def test_one_deadline_per_public_call(monkeypatch):
    """A public call arms its timeout once: every stage under it checks the
    same deadline, not one of its own."""
    seen = []
    check_time = Caps.check_time

    def recording(self):
        seen.append(self._deadline)
        check_time(self)

    monkeypatch.setattr(Caps, "check_time", recording)
    caps = Caps(timeout_seconds=600)
    ring7 = make_ring(3, FieldSpec(7))
    gens7 = tuple(P(t, ring7) for t in ("X^2 - Y^2", "X*Y", "Z^2"))
    quadrics = tuple(P(t) for t in ("X^2 - Y^2", "X^2 - Z^2", "X*Y", "X*Z", "Y*Z"))
    gb = ideal_groebner([P("X^2 - Y^2"), P("X*Y")])
    calls = {
        "validate": lambda: validate(five_quadrics(), True, caps),
        "is_irrelevant_primary": lambda: is_irrelevant_primary(
            [P("X^2"), P("X*Y"), P("X*Z")], caps),
        "section_dim_table": lambda: section_dim_table(
            five_quadrics(), "exterior", 2, (4, 5), "both", caps),
        "fingerprint": lambda: fingerprint(five_quartics(twist=5), "semistable",
                                           2, caps=caps),
        "selfdual_certify": lambda: selfdual_certify(five_quartics(twist=5), caps),
        "closure_threshold": lambda: closure_threshold(
            ClosureQuery(quadrics, certificate="semistable"), caps),
        "frobenius_membership": lambda: frobenius_membership(ClosureQuery(
            gens7, strong_flag="elliptic-curve", genus=0,
            candidate=P("X*Z", ring7)), caps),
        "brenner_monomial": lambda: brenner_monomial(
            syzygy_spec(["X^2", "Y^2", "Z^2", "X*Y"]), caps),
        "buchberger": lambda: buchberger(ideal_elements("X^2 - Y^2", "X*Y"), caps),
        "ideal_membership": lambda: ideal_membership(P("X^3"), gb, caps),
    }
    for name, call in calls.items():
        seen.clear()
        call()
        assert seen and None not in seen and len(set(seen)) == 1, name
