import random
from fractions import Fraction as Q
from itertools import product

import pytest

from extmukai.lattice import discriminant_group
from extmukai.linalg import Mat
from extmukai.moduli import (
    AlgebraicMukaiLattice,
    ModuliError,
    disc_form_profile,
    disc_lemma_check,
    fineness,
    moduli_dimension,
    ns_of_moduli,
    pairing_witness,
    partner_invariants,
    primitive_vectors_in_box,
)

rng = random.Random(6)


def test_mukai_pairing_convention():
    lat = AlgebraicMukaiLattice(Mat([[4]]))
    v = lat.vector(1, [2], 3)
    w = lat.vector(2, [1], -1)
    # <(r,c,s),(r',c',s')> = c.c' - r s' - r' s
    assert lat.pairing(v, w) == 2 * 4 * 1 - 1 * (-1) - 2 * 3
    assert lat.square(lat.vector(1, [0], 1 - 3)) == 2 * 3 - 2


def test_moduli_dimension():
    lat = AlgebraicMukaiLattice(Mat([[0, 1], [1, 0]]))
    for n in (2, 3, 5):
        v = lat.vector(1, [0, 0], 1 - n)
        assert moduli_dimension(lat, v) == 2 * n
    # isotropic fiber-type vector: dimension 2
    assert moduli_dimension(lat, lat.vector(0, [1, 0], 0)) == 2
    # spherical: dimension 0
    assert moduli_dimension(lat, lat.vector(1, [0, 0], 1)) == 0
    with pytest.raises(ModuliError):
        moduli_dimension(lat, lat.vector(1, [0, 0], 2))  # square -4
    with pytest.raises(ModuliError):
        moduli_dimension(lat, lat.vector(2, [0, 0], 2))  # imprimitive


def test_ns_of_moduli_poincare_basis():
    # NS(S) = <2g-2>, v = (0, H, 1-g): Gram [[2g-2, 2], [2, 0]]
    for g in (2, 3, 4):
        lat = AlgebraicMukaiLattice(Mat([[2 * g - 2]]))
        v = lat.vector(0, [1], 1 - g)
        ns_m = ns_of_moduli(lat, v)
        assert ns_m.rank == lat.rank - 1
        assert ns_m.gram == Mat([[2 * g - 2, 2], [2, 0]]) or ns_m.gram == Mat(
            [[0, 2], [2, 2 * g - 2]]
        )


def test_ns_of_moduli_rank_and_containment():
    lat = AlgebraicMukaiLattice(Mat([[2 * 5]]))
    n = 3
    v = lat.vector(1, [0], 1 - n)
    ns_m = ns_of_moduli(lat, v)
    assert ns_m.rank == lat.rank - 1
    assert ns_m.is_even()
    dg = discriminant_group(ns_m)
    assert dg.order == abs(ns_m.det())


def test_fineness_examples():
    lat = AlgebraicMukaiLattice(Mat([[4]]))  # g = 3 for the H example
    v = lat.vector(1, [0], 1 - 3)
    fine, order = fineness(lat, v)
    assert fine and order == 1
    w = pairing_witness(lat, v)
    assert w is not None and lat.pairing(v, w) == 1
    # v = (0, H, 1-g) on NS = <2g-2>: obstruction order g-1 (= 2 at g = 3)
    v2 = lat.vector(0, [1], 1 - 3)
    fine2, order2 = fineness(lat, v2)
    assert not fine2 and order2 == 2
    assert pairing_witness(lat, v2) is None
    with pytest.raises(ModuliError):
        fineness(lat, lat.vector(2, [0], 2))


def test_disc_lemma_fine_case():
    for g in (2, 4):
        for n in (2, 3, 4):
            lat = AlgebraicMukaiLattice(Mat([[2 * g]]))
            v = lat.vector(1, [0], 1 - n)
            rep = disc_lemma_check(lat, v)
            assert rep["all"], rep
            assert rep["fine"]
            assert rep["index_K"] == 2 * n - 2
            assert rep["disc_ns_moduli"] == (2 * n - 2) * rep["disc_ambient"]


def test_disc_lemma_divides():
    lat = AlgebraicMukaiLattice(Mat([[2]]))
    count = 0
    for v in primitive_vectors_in_box(lat, 3):
        if lat.square(v) in (2, 4, 6):
            rep = disc_lemma_check(lat, v)
            assert rep["all"], (v, rep)
            assert (2 * _half(lat.square(v)) - 2) % rep["index_K"] == 0
            count += 1
    assert count > 10


def _half(sq):
    return int(sq) // 2 + 1


def test_partner_invariants():
    lat = AlgebraicMukaiLattice(Mat([[2]]))
    v = lat.vector(1, [0], -2)  # square 4, n = 3
    inv = partner_invariants(lat, v)
    # invariance under the lattice b-field isometries
    for _ in range(5):
        mu = [rng.randint(-2, 2)]
        m = lat.b_field(mu)
        v2 = m.apply(v)
        assert partner_invariants(lat, v2) == inv
    # stability under sign
    assert partner_invariants(lat, tuple(-c for c in v)) == inv


def test_partner_invariants_may_differ():
    # v = (1, 0, 1-n) vs v = (0, H, 1-g)-style vectors can have different
    # obstruction orders on NS = <2n-2>
    n = 3
    lat = AlgebraicMukaiLattice(Mat([[2 * n - 2]]))
    a = partner_invariants(lat, lat.vector(1, [0], 1 - n))
    b = partner_invariants(lat, lat.vector(0, [1], 1 - n))
    assert a["obstruction_order"] == 1
    assert b["obstruction_order"] == 2
    assert a["obstruction_order"] != b["obstruction_order"]


def disc_form_profile_reference(lat, disc):
    """Reference: the profile from the Fraction vector sum k_i g_i of every
    group element, paired through the lattice Gram."""
    vals = []
    for ks in product(*(range(d) for d in disc.cyclic_orders)):
        rep = [Q(0)] * lat.rank
        for k, gen in zip(ks, disc.generators):
            rep = [a + k * b for a, b in zip(rep, gen)]
        vals.append(lat.norm(tuple(rep)) % 2)
    return tuple(sorted(vals))


PROFILE_NS_GRAMS = ([[2]], [[4]], [[0, 1], [1, 0]], [[2, 1], [1, 4]], [[-2, 1], [1, 6]])


def test_disc_form_profile_matches_reference():
    # every primitive v in the box of radius 2, except on the two rank-2 NS
    # other than U, whose groups run to a few hundred elements: a seeded
    # sample of 100 there keeps the reference within a few seconds
    sample = random.Random(14)
    count = 0
    for ns in PROFILE_NS_GRAMS:
        lat = AlgebraicMukaiLattice(Mat(ns))
        box = primitive_vectors_in_box(lat, 2)
        if len(ns) == 2 and ns != [[0, 1], [1, 0]]:
            box = sample.sample(box, 100)
        for v in box:
            ns_m = ns_of_moduli(lat, v)
            if not ns_m.is_even() or ns_m.det() == 0:
                continue
            disc = discriminant_group(ns_m)
            profile = disc_form_profile(ns_m, disc)
            assert profile == disc_form_profile_reference(ns_m, disc), (ns, v)
            assert len(profile) == disc.order
            assert all(type(q) is Q and 0 <= q < 2 for q in profile)
            count += 1
    assert count > 700


def test_disc_form_profile_cap_edge():
    lat = AlgebraicMukaiLattice(Mat([[4]]))
    ns_m = ns_of_moduli(lat, lat.vector(-2, [-2], -1))
    disc = discriminant_group(ns_m)
    assert disc.order == 48
    assert len(disc_form_profile(ns_m, disc, cap=disc.order)) == 48
    assert disc_form_profile(ns_m, disc, cap=disc.order - 1) is None
