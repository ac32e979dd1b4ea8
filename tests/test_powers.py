import json
import random
from pathlib import Path

import pytest

from kbundle.algebra import FieldSpec, make_ring, parse_many
from kbundle.bundle import from_syzygy
from kbundle.modgb import apply_columns, syzygy_module_columns
from kbundle.powers import (
    CharacteristicError,
    PowerError,
    exterior_power_matrix,
    power_presentation,
    symmetric_power_matrix,
    tensor_power_matrix,
)
from kbundle.tannaka import reduce_bundle_mod_p, section_dim_table

import sample_bundles
from power_expand import sym_expand, tensor_expand, wedge_expand
from sample_bundles import (
    five_quadrics,
    random_kernel_bundle,
    syzygy_bundle,
)


def kernel_generators(bundle):
    return syzygy_module_columns(bundle.columns(), bundle.source_module(),
                                 bundle.target_module()).elements


def check_kernel_closure(pres, element):
    assert not element.is_zero()
    assert element.is_homogeneous()
    image = apply_columns(pres.columns, pres.target_module(), element)
    assert image.is_zero()


def test_tensor_counts_five_quadrics():
    pres = tensor_power_matrix(five_quadrics(), 2)
    assert pres.n_source == 25
    assert set(pres.source_twists) == {-4}
    # index enumeration: n^(q-1) * m * q = 5 * 1 * 2
    assert pres.n_target == 10


def test_exterior_counts_five_quadrics():
    pres = exterior_power_matrix(five_quadrics(), 2)
    assert pres.n_source == 10
    assert set(pres.source_twists) == {-4}
    assert pres.n_target == 5
    assert set(pres.target_twists) == {-2}


def test_symmetric_counts():
    pres = symmetric_power_matrix(five_quadrics(), 2)
    assert pres.n_source == 15  # C(5+2-1, 2)
    assert pres.n_target == 5


def test_power_q1_equals_original_presentation():
    b = five_quadrics()
    for build in (tensor_power_matrix, exterior_power_matrix, symmetric_power_matrix):
        pres = build(b, 1)
        assert pres.source_twists == b.twists_a
        assert list(pres.target_twists) == list(b.twists_b)
        assert [list(col) for col in pres.columns] == b.columns()


def test_exterior_range_errors():
    b = five_quadrics()  # rank 4
    for q in (4, 0):
        with pytest.raises(PowerError,
                           match=f"needs 1 <= q < rank = 4, got {q}$"):
            exterior_power_matrix(b, q)


def test_unknown_kind_is_refused():
    with pytest.raises(PowerError, match="unknown power kind 'wedge'"):
        power_presentation(five_quadrics(), "wedge", 2)


def omega_bundle(char):
    """Syz(X, Y, Z) on P^2 over QQ (char 0) or F_char: rank 2."""
    ring = make_ring(3, FieldSpec(char)) if char else make_ring(3)
    gens = parse_many(["X", "Y", "Z"], ring)
    return from_syzygy(gens)


def test_symmetric_characteristic_guard():
    # in characteristic p <= q the kernel of the presentation also holds
    # p-th powers, so it is larger than Sym^q E: refused
    for char, q in ((2, 2), (2, 3), (3, 3), (3, 4), (5, 5)):
        with pytest.raises(CharacteristicError,
                           match=f"q={q} is unavailable in characteristic {char}"):
            symmetric_power_matrix(omega_bundle(char), q)
    for char, q in ((2, 1), (3, 2), (5, 4)):
        assert symmetric_power_matrix(omega_bundle(char), q).q == q


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("q", [3, 4])
def test_symmetric_power_has_the_rank_of_sym_q(char, q):
    # h^0(Sym^q E(k)) is eventually quadratic in k with second difference
    # rank Sym^q E = q + 1 for a rank-2 E on P^2; the presentation's kernel
    # over F_2 at q = 3 (F_3 at q = 4) has 6 (7), hence the refusal there
    table = section_dim_table(omega_bundle(char), "symmetric", q,
                              range(q + 5, q + 9))
    h = [table[k] for k in sorted(table)]
    assert [h[i + 2] - 2 * h[i + 1] + h[i] for i in range(2)] == [q + 1] * 2


def test_wedge_of_kernel_elements_is_in_kernel():
    """Sign-convention acid test on the five-quadrics bundle."""
    b = five_quadrics()
    gens = kernel_generators(b)
    assert len(gens) >= 2
    pres = exterior_power_matrix(b, 2)
    w = wedge_expand(pres, [gens[0], gens[1]])
    check_kernel_closure(pres, w)


def test_tensor_of_kernel_elements_is_in_kernel():
    b = five_quadrics()
    gens = kernel_generators(b)
    pres = tensor_power_matrix(b, 2)
    t = tensor_expand(pres, [gens[0], gens[1]])
    check_kernel_closure(pres, t)


def test_sym_product_of_kernel_elements_is_in_kernel():
    b = five_quadrics()
    gens = kernel_generators(b)
    pres = symmetric_power_matrix(b, 2)
    s = sym_expand(pres, [gens[0], gens[0]])
    check_kernel_closure(pres, s)
    s2 = sym_expand(pres, [gens[0], gens[1]])
    check_kernel_closure(pres, s2)


def test_kernel_closure_randomized_all_kinds():
    rng = random.Random(20240809)
    done = 0
    while done < 12:
        b = random_kernel_bundle(rng)
        if b.rank < 3:
            continue
        gens = kernel_generators(b)
        if len(gens) < 2:
            continue
        pair = [gens[rng.randrange(len(gens))], gens[rng.randrange(len(gens))]]
        tpres = tensor_power_matrix(b, 2)
        check_kernel_closure(tpres, tensor_expand(tpres, pair))
        spres = symmetric_power_matrix(b, 2)
        check_kernel_closure(spres, sym_expand(spres, pair))
        if pair[0] != pair[1]:
            epres = exterior_power_matrix(b, 2)
            w = wedge_expand(epres, pair)
            if not w.is_zero():
                check_kernel_closure(epres, w)
        done += 1


def test_triple_wedge_in_kernel():
    b = five_quadrics()
    gens = kernel_generators(b)
    assert len(gens) >= 3
    pres = exterior_power_matrix(b, 3)
    w = wedge_expand(pres, [gens[0], gens[1], gens[2]])
    if not w.is_zero():
        check_kernel_closure(pres, w)
    t = tensor_power_matrix(b, 3)
    check_kernel_closure(t, tensor_expand(t, [gens[0], gens[1], gens[2]]))


def test_exterior_twist_bookkeeping():
    b = syzygy_bundle(["X^2", "Y^2", "Z^2", "X*Y"])
    pres = exterior_power_matrix(b, 2)
    for A, tw in zip(pres.source_labels, pres.source_twists):
        assert tw == sum(b.twists_a[i] for i in A)
    for (B, j), tw in zip(pres.target_labels, pres.target_twists):
        assert tw == sum(b.twists_a[i] for i in B) + b.twists_b[j]


def test_subset_colex_enumeration():
    pres = exterior_power_matrix(five_quadrics(), 2)
    labels = list(pres.source_labels)
    assert labels[:4] == [(0, 1), (0, 2), (1, 2), (0, 3)]


GOLDEN_POWERS = Path(__file__).with_name("power_golden.json")

GOLDEN_BUNDLES = ("five_quadrics", "five_quartics", "dual_five_monomials",
                  "monomial_cubes_family", "sl3_bundle", "rank2_degree0_bundle",
                  "rank6_bundle", "double_rank2_bundle")


def golden_power_data():
    """Labels, twists and str() of the column entries of every power
    presentation pinned in power_golden.json: each named sample bundle over
    QQ and F_7, q = 1..3, every kind (exterior for q < rank), plus
    five_quadrics over F_2 at Lambda^2 (signs are units there) and Sym^1."""
    cases = []
    for name in GOLDEN_BUNDLES:
        bundle = getattr(sample_bundles, name)()
        for char in (0, 7):
            b = reduce_bundle_mod_p(bundle, char) if char else bundle
            cases += [(f"{name}/{char}/{kind}/{q}", b, kind, q)
                      for kind in ("tensor", "exterior", "symmetric")
                      for q in (1, 2, 3) if kind != "exterior" or q < b.rank]
    b2 = reduce_bundle_mod_p(five_quadrics(), 2)
    cases += [("five_quadrics/2/exterior/2", b2, "exterior", 2),
              ("five_quadrics/2/symmetric/1", b2, "symmetric", 1)]
    out = {}
    for key, b, kind, q in cases:
        pres = power_presentation(b, kind, q)
        out[key] = {
            "source_labels": pres.source_labels,
            "target_labels": pres.target_labels,
            "source_twists": pres.source_twists,
            "target_twists": pres.target_twists,
            "columns": [[(j, str(p)) for j, p in col] for col in pres.columns]}
    return out


def test_power_presentations_golden():
    # the JSON round trip turns tuples into lists; one case per line in the file
    want = json.loads(GOLDEN_POWERS.read_text())
    got = json.loads(json.dumps(golden_power_data()))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
