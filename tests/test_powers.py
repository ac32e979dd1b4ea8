import random

import pytest

from kbundle.algebra import FieldSpec, make_ring, parse_many
from kbundle.bundle import SyzygyBundleSpec, from_syzygy
from kbundle.modgb import apply_columns, syzygy_module_columns
from kbundle.powers import (
    CharacteristicError,
    PowerError,
    exterior_power_matrix,
    symmetric_power_matrix,
    tensor_power_matrix,
)

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
    image = apply_columns(pres.columns_list(), pres.target_module(), element)
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
        assert pres.columns_list() == b.columns()


def test_exterior_range_errors():
    b = five_quadrics()  # rank 4
    with pytest.raises(PowerError):
        exterior_power_matrix(b, 4)
    with pytest.raises(PowerError):
        exterior_power_matrix(b, 0)


def test_symmetric_characteristic_guard():
    ring2 = make_ring(3, FieldSpec(2))
    gens = parse_many(["X^2", "Y^2", "Z^2"], ring2)
    b = from_syzygy(SyzygyBundleSpec(ring2, gens, 0))
    with pytest.raises(CharacteristicError):
        symmetric_power_matrix(b, 2)
    # q not divisible by the characteristic is fine
    symmetric_power_matrix(b, 3)


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
