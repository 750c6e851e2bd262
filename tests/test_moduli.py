import random
import sys
import threading
from collections import Counter
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from extmukai import moduli
from extmukai.lattice import LatticeError, QuadLattice, discriminant_group
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


def disc_form_profile_product_formula(lat, disc):
    """Reference: the profile as first computed, k^T m k mod 2D summed over
    the whole product of the cyclic factors for each element k."""
    gens = disc.generators
    d, m = Mat([[lat.pairing(g, h) for h in gens] for g in gens]).cleared()
    counts = Counter(
        sum(a * b * x for a, row in zip(ks, m) for b, x in zip(ks, row)) % (2 * d)
        for ks in product(*map(range, disc.cyclic_orders))
    )
    return tuple(q for x, n in sorted(counts.items()) for q in (Q(x, d),) * n)


@st.composite
def even_grams(draw):
    """Even symmetric integer Grams of rank 1 to 3 with entries in [-8, 8]:
    |det| stays under the default cap of disc_form_profile."""
    r = draw(st.integers(1, 3))
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, r):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    return g


@settings(max_examples=80, deadline=None)
@given(even_grams())
def test_disc_form_profile_matches_the_product_formula(gram):
    lat = QuadLattice(Mat(gram))
    if not lat.is_nondegenerate():
        return
    disc = discriminant_group(lat)
    profile = disc_form_profile(lat, disc)
    assert profile == disc_form_profile_product_formula(lat, disc)
    assert len(profile) == disc.order == abs(lat.det())


def perfbench_style_op(lat, v):
    """The five public calls one rank-moduli op makes on one v."""
    return (moduli_dimension(lat, v), fineness(lat, v), ns_of_moduli(lat, v),
            disc_lemma_check(lat, v), partner_invariants(lat, v))


def test_one_op_builds_ns_of_moduli_once(monkeypatch):
    built = []
    complement = moduli.orthogonal_complement
    monkeypatch.setattr(moduli, "orthogonal_complement",
                        lambda lat, gens: built.append(1) or complement(lat, gens))
    lat = AlgebraicMukaiLattice(Mat([[2]]))
    v = lat.vector(1, [1], -1)  # square 4
    first = perfbench_style_op(lat, v)
    assert len(built) == 1
    assert perfbench_style_op(lat, v) == first and len(built) == 1
    assert first[2] is ns_of_moduli(lat, v)


def test_fineness_and_dimension_build_no_ns_of_moduli(monkeypatch):
    built = []
    complement = moduli.orthogonal_complement
    monkeypatch.setattr(moduli, "orthogonal_complement",
                        lambda lat, gens: built.append(1) or complement(lat, gens))
    lat = AlgebraicMukaiLattice(Mat([[0, 1], [1, 0]]))
    for v in primitive_vectors_in_box(lat, 1):
        fineness(lat, v)
        if lat.square(v) >= -2:
            moduli_dimension(lat, v)
    assert built == []


def test_only_the_last_report_is_kept():
    lat = AlgebraicMukaiLattice(Mat([[2]]))
    vs = primitive_vectors_in_box(lat, 2)[:50]
    assert len(set(vs)) == 50
    for v in vs:
        rep = lat.report(v)
        assert lat._last is rep and rep.v == v
    assert lat.report(vs[-1]) is rep and lat.report(vs[0]) is not rep


def test_non_primitive_vector_raises_on_every_call_and_is_not_kept():
    lat = AlgebraicMukaiLattice(Mat([[2]]))
    for _ in range(2):
        with pytest.raises(ModuliError, match="^Mukai vector must be primitive$"):
            fineness(lat, lat.vector(2, [0], 2))
        with pytest.raises(LatticeError, match="^zero vector$"):
            ns_of_moduli(lat, lat.vector(0, [0], 0))
    assert lat._last is None


def test_list_and_tuple_share_one_report():
    lat = AlgebraicMukaiLattice(Mat([[4]]))
    v = lat.vector(1, [0], -2)
    ns_m = ns_of_moduli(lat, v)
    rep = lat._last
    assert ns_of_moduli(lat, list(v)) is ns_m
    assert fineness(lat, list(v)) == fineness(lat, v)
    assert lat._last is rep


def test_reports_shared_by_threads_stay_correct():
    lat = AlgebraicMukaiLattice(Mat([[2]]))
    vs = primitive_vectors_in_box(lat, 2)
    fresh = AlgebraicMukaiLattice(Mat([[2]]))
    want = {v: (fineness(fresh, v), ns_of_moduli(fresh, v).gram) for v in vs}
    errors, calls = [], []

    def work(offset):
        try:
            for i in range(300):
                v = vs[(7 * i + offset) % len(vs)]
                if (fineness(lat, v), ns_of_moduli(lat, v).gram) != want[v]:
                    errors.append(v)
                calls.append(1)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(calls) == 6 * 300
