import gc
import hashlib
import json
import random
import sys
import threading
import weakref
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from extmukai import isometry
from extmukai.isometry import (
    LATTICE_MATRICES_KEPT,
    IsometryError,
    QuadSpace,
    TransvectionWord,
    cartan_dieudonne,
    disc_action,
    eichler_transport,
    eichler_transvection,
    generate_bounded,
    identity_isometry,
    lattice_witness,
    minus_identity,
    preserves_lattice,
    reflection,
    spinor_norm,
)
from extmukai.lattice import NotFound, QuadLattice
from extmukai.linalg import Mat, vec_add, vec_scale, vec_sub
from extmukai.spaces import ExtMukaiSpace, b_field, custom_type, k3n_lattices, k3n_type

rng = random.Random(2024)


# -- references ----------------------------------------------------------------


def spinor_norm_from_reflections(space, vectors):
    """The spinor norm of s_{v_1} o ... o s_{v_k}: the product of
    sign(-b(v, v)) over the reflection vectors."""
    s = 1
    for v in vectors:
        if space.norm(v) > 0:
            s = -s
    return s


def transport_word_isometry(space, lat, word):
    """Materialize a transport word (lattice coordinates) on the ambient
    space; word pairs apply first-to-last, so later factors multiply on
    the left."""
    g = identity_isometry(space)
    for e, a in word.pairs:
        ge = lat.ambient_vector(e)
        ga = lat.ambient_vector(a)
        g = eichler_transvection(space, ge, ga).compose(g)
    return g


def k3n_setup(n):
    space = ExtMukaiSpace(k3n_type(n))
    return space, k3n_lattices(space)


def count_builds(monkeypatch, fn):
    """A list that gains one entry each time the kept fn computes its value
    (holding no reference to the object it computes it for)."""
    built = []
    build = fn.__wrapped__
    monkeypatch.setattr(fn, "__wrapped__", lambda obj: built.append(1) or build(obj))
    return built


def random_h2(space, bound=2):
    return [rng.randint(-bound, bound) for _ in range(space.b2)]


def random_catalog_isometry(space, lats):
    pick = rng.randint(0, 2)
    if pick == 0:
        return b_field(space, random_h2(space))
    if pick == 1:
        return reflection(space, vec_add(lats.alpha_tilde, space.beta))
    return reflection(space, lats.delta_tilde)


def test_reflection_involution_and_negation():
    space, lats = k3n_setup(2)
    v = vec_add(lats.alpha_tilde, space.beta)
    s = reflection(space, v)
    assert s(v) == tuple(-c for c in v)
    assert s.compose(s).is_identity()
    assert s.det == -1


def test_reflection_spec_example():
    # s_{alpha~+beta} sends v(O) = alpha~ + delta~/2 + beta to
    # -alpha~ + delta~/2 - beta = -v(O(-delta))
    space, lats = k3n_setup(2)
    v = vec_add(lats.alpha_tilde, space.beta)
    s = reflection(space, v)
    v_o = vec_add(
        vec_add(lats.alpha_tilde, vec_scale(Q(1, 2), lats.delta_tilde)), space.beta
    )
    expected = vec_add(
        vec_add(tuple(-c for c in lats.alpha_tilde), vec_scale(Q(1, 2), lats.delta_tilde)),
        tuple(-c for c in space.beta),
    )
    assert s(v_o) == expected


def test_reflection_along_delta_fixes_lambda_s():
    space, lats = k3n_setup(3)
    s = reflection(space, lats.delta_tilde)
    for i in range(lats.lam_s.rank):
        b = lats.lam_s.basis_in_ambient.row(i)
        assert s(b) == b


def test_reflection_isotropic_rejected():
    space, lats = k3n_setup(2)
    with pytest.raises(IsometryError):
        reflection(space, space.beta)


def test_b_field_displayed_formula():
    space, _ = k3n_setup(2)
    delta = [0] * 22 + [1]
    img = b_field(space, delta)(space.alpha)
    # B_delta(alpha) = alpha + delta - beta at n = 2 (b(delta,delta) = -2)
    want = list(space.alpha)
    want[23] += 1
    want[24] -= 1
    assert img == tuple(want)
    assert b_field(space, [0] * 23).matrix == Mat.identity(25)


def test_b_field_gives_alpha_tilde():
    space, lats = k3n_setup(3)
    half = [Q(0)] * 22 + [Q(-1, 2)]
    assert b_field(space, half)(space.alpha) == lats.alpha_tilde


def test_b_field_homomorphism():
    space, _ = k3n_setup(2)
    for _ in range(10):
        a, b = random_h2(space), random_h2(space)
        ab = [x + y for x, y in zip(a, b)]
        assert b_field(space, a).compose(b_field(space, b)).matrix == b_field(space, ab).matrix


def test_transvection_is_b_field():
    # t(-beta, lambda) = B_lambda
    space, _ = k3n_setup(3)
    lam = random_h2(space)
    amb = space.h2_embed(lam)
    t = eichler_transvection(space, tuple(-c for c in space.beta), amb)
    assert t.matrix == b_field(space, lam).matrix


def test_transvection_trivial_and_preconditions():
    space, lats = k3n_setup(2)
    e = lats.alpha_tilde
    assert eichler_transvection(space, e, tuple(Q(0) for _ in range(25))).is_identity()
    with pytest.raises(IsometryError):
        eichler_transvection(space, vec_add(lats.alpha_tilde, lats.delta_tilde), space.beta)
    with pytest.raises(IsometryError):
        eichler_transvection(space, space.beta, space.alpha)


def test_transvection_invariants_random():
    # det +1, spinor +1, trivial discriminant action; 100 random draws
    space, lats = k3n_setup(2)
    planes = [
        (lats.alpha_tilde, tuple(-c for c in space.beta)),
        (space.basis_vector(1), space.basis_vector(2)),
    ]
    for i in range(100):
        e, f = planes[i % 2]
        a0 = lats.lam.basis_in_ambient.transpose().apply(
            tuple(Q(rng.randint(-2, 2)) for _ in range(25))
        )
        a = vec_add(a0, vec_scale(-space.pairing(e, a0), f))
        t = eichler_transvection(space, e, a)
        assert t.det == 1
        assert (t.matrix.transpose() * space.gram * t.matrix) == space.gram
        assert spinor_norm(t) == 1
        assert disc_action(t, lats.lam)[0] == "identity"


def test_cartan_dieudonne_identity_and_reflection():
    space, lats = k3n_setup(2)
    assert cartan_dieudonne(identity_isometry(space)) == []
    v = vec_add(lats.alpha_tilde, space.beta)
    refs = cartan_dieudonne(reflection(space, v))
    assert len(refs) == 1
    # the vector is recovered up to scaling
    assert reflection(space, refs[0]).matrix == reflection(space, v).matrix


def test_cartan_dieudonne_b_field():
    space, _ = k3n_setup(2)
    g = b_field(space, [0] * 22 + [1])
    refs = cartan_dieudonne(g)
    assert len(refs) <= 25
    h = identity_isometry(space)
    for v in refs:
        h = h.compose(reflection(space, v))
    assert h.matrix == g.matrix


def test_cartan_dieudonne_degenerate_form():
    space = QuadSpace(Mat([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
    with pytest.raises(IsometryError, match="degenerate form"):
        cartan_dieudonne(identity_isometry(space))


def test_cartan_dieudonne_non_integral_gram():
    # a generic rational Gram, and one with a zero diagonal (a hyperbolic
    # plane), whose diagonalisation folds an off-diagonal entry in
    half, third = Q(1, 2), Q(1, 3)
    grams = [
        Mat([[half, third, 0], [third, Q(-2, 5), Q(1, 7)], [0, Q(1, 7), Q(3, 4)]]),
        Mat([[0, half, 0], [half, 0, 0], [0, 0, Q(-3, 5)]]),
    ]
    local = random.Random(7)
    isometries = []
    for gram in grams:
        space = QuadSpace(gram)
        for _ in range(6):
            g = identity_isometry(space)
            while g.is_identity():
                for _ in range(local.randint(1, 4)):
                    v = tuple(Q(local.randint(-3, 3), local.randint(1, 3)) for _ in range(3))
                    if space.norm(v) != 0:
                        g = reflection(space, v).compose(g)
            isometries.append(g)
    # t(e3, e1) moves the first diagonal vector e1 + e2 by the isotropic
    # -e3/2, the case decomposed through g(u) + u
    space = QuadSpace(Mat([[0, half, 0, 0], [half, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
    isometries.append(eichler_transvection(space, (0, 0, 1, 0), (1, 0, 0, 0)))
    for g in isometries:
        h = identity_isometry(g.space)
        for v in cartan_dieudonne(g):
            h = h.compose(reflection(g.space, v))
        assert h.matrix == g.matrix


def test_spinor_norm_convention():
    space, lats = k3n_setup(2)
    # negative-square reflection: +1
    assert spinor_norm(reflection(space, vec_add(lats.alpha_tilde, space.beta))) == 1
    assert spinor_norm(reflection(space, lats.delta_tilde)) == 1
    # positive-square reflection: -1
    w = vec_add(space.basis_vector(1), space.basis_vector(2))
    assert spinor_norm(reflection(space, w)) == -1
    # -id on signature (4, 21): +1
    assert spinor_norm(minus_identity(space)) == 1


def test_spinor_norm_multiplicative_and_decomposition_independent():
    space, lats = k3n_setup(2)
    for i in range(50):
        g = random_catalog_isometry(space, lats)
        h = random_catalog_isometry(space, lats)
        assert spinor_norm(g.compose(h)) == spinor_norm(g) * spinor_norm(h)
        if i % 10 == 0:
            refs = cartan_dieudonne(g)
            assert spinor_norm_from_reflections(space, refs) == spinor_norm(g)


def test_spinor_norm_shuffled_basis():
    # recompute in the coordinates of a shuffled and sheared basis A (rows:
    # new basis vectors), where the Gram is A G A^T and g is A^-T M A^T;
    # the positive-square reflection brings spinor norm -1 into the mix
    space, lats = k3n_setup(2)
    perm = list(range(25))
    rng.shuffle(perm)
    shear = [[Q(int(i == j)) if j <= i else Q(rng.randint(-2, 2), rng.randint(1, 3))
              for j in range(25)] for i in range(25)]
    a = Mat([[Q(1) if perm[i] == j else Q(0) for j in range(25)] for i in range(25)]) * Mat(shear)
    at = a.transpose()
    from extmukai.isometry import Isometry, QuadSpace

    qs = QuadSpace(a * space.gram * at)
    flip = reflection(space, vec_add(space.basis_vector(1), space.basis_vector(2)))
    signs = set()
    for _ in range(10):
        g = random_catalog_isometry(space, lats)
        if rng.randint(0, 1):
            g = g.compose(flip)
        g2 = Isometry(qs, at.inverse() * g.matrix * at)
        assert spinor_norm(g2) == spinor_norm(g)
        signs.add(spinor_norm(g))
    assert signs == {1, -1}


def test_reflection_conjugation():
    # g s_v g^{-1} = s_{g(v)}
    space, lats = k3n_setup(2)
    for _ in range(10):
        g = random_catalog_isometry(space, lats)
        v = vec_add(lats.alpha_tilde, vec_scale(rng.randint(1, 3), space.beta))
        if space.norm(v) == 0:
            continue
        s = reflection(space, v)
        lhs = g.compose(s).compose(g.inverse())
        rhs = reflection(space, g(v))
        assert lhs.matrix == rhs.matrix


def test_disc_action_examples():
    space, lats = k3n_setup(3)  # A(Lambda) = Z/4: +-id distinguishable
    lam_int = random_h2(space)
    assert disc_action(b_field(space, lam_int), lats.lam)[0] == "identity"
    assert disc_action(minus_identity(space), lats.lam)[0] == "minus_identity"
    assert disc_action(reflection(space, lats.delta_tilde), lats.lam)[0] == "minus_identity"
    with pytest.raises(IsometryError):  # a half-integral B-field moves Lambda
        disc_action(b_field(space, [Q(1, 2)] + [0] * 22), lats.lam)


def test_disc_action_other_label():
    # on U(3) the swap exchanges the two Z/3 factors of A(U(3)) = (Z/3)^2;
    # the witness is the first dual generator, in ambient coordinates (the
    # Hermite-based Smith form presents A(U(3)) with (1/3, 0) first)
    from extmukai.isometry import Isometry, QuadSpace
    from extmukai.lattice import QuadLattice

    u3 = Mat([[0, 3], [3, 0]])
    lat = QuadLattice.from_basis([(1, 0), (0, 1)], u3)  # full rank
    swap = Isometry(QuadSpace(u3), Mat([[0, 1], [1, 0]]))
    assert disc_action(swap, lat) == ("other", (Q(1, 3), 0))
    # U(3) as the first two coordinates of U(3) + <2>: not of full rank
    g3 = Mat([[0, 3, 0], [3, 0, 0], [0, 0, 2]])
    lat3 = QuadLattice.from_basis([(1, 0, 0), (0, 1, 0)], g3)
    swap3 = Isometry(QuadSpace(g3), Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert disc_action(swap3, lat3) == ("other", (Q(1, 3), 0, 0))


def test_preserves_lattice_examples():
    space, lats = k3n_setup(2)
    assert preserves_lattice(identity_isometry(space), lats.lam)
    assert preserves_lattice(identity_isometry(space), lats.lam_g)
    # a third-of-delta B-field fails on Lambda already at n = 2
    g = b_field(space, [Q(0)] * 22 + [Q(1, 3)])
    assert not preserves_lattice(g, lats.lam)


def test_preserves_lattice_degenerate_gram_checks_both_ways():
    # L = Z alpha has Gram (0); g: alpha -> 2 alpha, beta -> beta / 2 maps L
    # onto 2L, inside L but not onto it
    from extmukai.isometry import Isometry, lattice_witness
    from extmukai.lattice import QuadLattice
    from extmukai.spaces import custom_type

    space = ExtMukaiSpace(custom_type(1, 1, 1, Mat([[2]])))
    g = Isometry(space, Mat.diagonal([2, 1, Q(1, 2)]))
    lat = QuadLattice.from_basis([space.alpha], space.gram)
    assert not lat.is_nondegenerate()
    assert not preserves_lattice(g, lat)
    assert lattice_witness(g, lat) == (Q(1, 2), 0, 0)
    assert preserves_lattice(identity_isometry(space), lat)
    # with beta added the Gram is nondegenerate and one direction decides
    lat2 = QuadLattice.from_basis([space.alpha, space.beta], space.gram)
    assert lat2.is_nondegenerate()
    assert not preserves_lattice(g, lat2)
    assert lattice_witness(g, lat2) == space.beta


def test_on_lattice_below_full_rank_or_unembedded_raises_isometry_error():
    # Lambda_S has rank 24 in the 25-dimensional space: no matrix on it
    space, lats = k3n_setup(3)
    g = b_field(space, [1] + [0] * 22)
    with pytest.raises(IsometryError, match="^dimension mismatch$"):
        g.on_lattice(lats.lam_s)
    with pytest.raises(IsometryError, match="^lattice must be embedded in the isometry's space$"):
        g.on_lattice(QuadLattice(lats.lam.gram))


def test_lattice_witness_on_unembedded_lattice_raises_isometry_error():
    space, lats = k3n_setup(3)
    g = b_field(space, [1] + [0] * 22)
    with pytest.raises(IsometryError, match="^lattice must be embedded in the isometry's space$"):
        lattice_witness(g, QuadLattice(lats.lam.gram))


def test_on_lattice_of_another_space_raises_dimension_mismatch():
    # K3[3] and K3[4] have 25-dimensional spaces with different Grams
    space, _ = k3n_setup(3)
    _, lats4 = k3n_setup(4)
    g = b_field(space, [1] + [0] * 22)
    with pytest.raises(IsometryError, match="^space mismatch$"):
        g.on_lattice(lats4.lam)
    assert g._on_bases == {}


def test_on_lattice_of_another_space_raises_after_a_hit_on_the_same_basis():
    # the identity basis over two Grams of one dimension: equal basis matrices
    space = QuadSpace(Mat([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    other = Mat([[2, 0, 0], [0, 2, 0], [0, 0, 4]])
    rows = Mat.identity(3).entries()
    g = identity_isometry(space)
    m = g.on_lattice(QuadLattice.from_basis(rows, space.gram))
    assert g.on_lattice(QuadLattice.from_basis(rows, space.gram)) is m  # a hit
    with pytest.raises(IsometryError, match="^space mismatch$"):
        g.on_lattice(QuadLattice.from_basis(rows, other))
    assert len(g._on_bases) == 1


def test_lattice_witness_of_another_space_raises_dimension_mismatch():
    space, _ = k3n_setup(3)
    _, lats4 = k3n_setup(4)
    g = b_field(space, [1] + [0] * 22)
    with pytest.raises(IsometryError, match="^space mismatch$"):
        lattice_witness(g, lats4.lam)


def test_on_lattice_kept_by_basis_value_and_bounded(monkeypatch):
    space, lats = k3n_setup(3)
    g = b_field(space, [1] + [0] * 21 + [1]).compose(reflection(space, lats.delta_tilde))
    rows = lats.lam.basis_in_ambient.entries()
    copies = [QuadLattice.from_basis(rows, space.gram) for _ in range(50)]
    products = []
    fused = isometry.product
    monkeypatch.setattr(isometry, "product", lambda *mats: products.append(1) or fused(*mats))
    m = g.on_lattice(lats.lam)
    assert len(products) == 1  # C^-1 M C, one fused product
    # 50 rebuilt copies of Lambda share the one entry of Lambda
    assert all(g.on_lattice(lat) is m for lat in copies)
    assert len(g._on_bases) == 1 and len(products) == 1
    # a row-swapped basis spans the same lattice, but C^-1 M C differs
    swapped = QuadLattice.from_basis([rows[1], rows[0]] + list(rows[2:]), space.gram)
    m_sw = g.on_lattice(swapped)
    c = swapped.basis_change()[0]
    assert m_sw != m and c * m_sw == g.matrix * c and m_sw.is_integral()
    assert len(g._on_bases) == 2 == LATTICE_MATRICES_KEPT
    # the oldest basis goes first
    g.on_lattice(lats.lam_g)
    assert len(g._on_bases) == LATTICE_MATRICES_KEPT
    assert g.on_lattice(swapped) is m_sw and g.on_lattice(lats.lam) is not m
    assert g.on_lattice(lats.lam) == m


def test_on_lattice_store_stays_bounded_under_threads():
    # 6 threads share one isometry over 8 bases, switching every microsecond
    space = QuadSpace(Mat([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    lats = [QuadLattice.from_basis([(1, k, 0), (0, 1, 0), (0, 0, 1)], space.gram)
            for k in range(8)]
    g = identity_isometry(space)
    one = Mat.identity(3)
    errors, sizes = [], []

    def work(offset):
        try:
            for i in range(400):
                if g.on_lattice(lats[(i + offset) % len(lats)]) != one:
                    errors.append(i)
                sizes.append(len(g._on_bases))
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
    assert errors == [] and len(sizes) == 6 * 400
    assert max(sizes) <= LATTICE_MATRICES_KEPT
    assert len(g._on_bases) <= LATTICE_MATRICES_KEPT


def test_preserves_lattice_one_way_agrees_with_both_ways():
    space, lats = k3n_setup(3)
    gens = [
        b_field(space, [Q(0)] * 22 + [Q(1, 2)]),
        b_field(space, [1] + [0] * 21 + [1]),
        reflection(space, lats.delta_tilde),
        reflection(space, vec_add(lats.alpha_tilde, space.beta)),
        reflection(space, vec_add(space.basis_vector(1), space.basis_vector(2))),
        reflection(space, space.basis_vector(23)),  # delta itself
    ]
    for g in gens:
        for lat in (lats.lam, lats.lam_g, lats.lam_s):
            rows = [lat.basis_in_ambient.row(i) for i in range(lat.rank)]
            both = all(lat.contains_ambient(g(v)) for v in rows) and all(
                lat.contains_ambient(g.inverse()(v)) for v in rows
            )
            assert preserves_lattice(g, lat) == both


def test_generate_bounded_examples():
    space, lats = k3n_setup(2)
    got = generate_bounded([minus_identity(space)], 2)
    assert len(got) == 2  # -id and id
    got = generate_bounded([b_field(space, [0] * 22 + [1])], 3)
    assert len(got) == 4  # id, B, B^2, B^3
    s1 = reflection(space, lats.delta_tilde)
    s2 = reflection(space, vec_add(lats.alpha_tilde, space.beta))
    got = generate_bounded([s1, s2], 4)
    assert all(preserves_lattice(h, lats.lam) for h in got)


def test_generate_bounded_cap():
    space, lats = k3n_setup(2)
    with pytest.raises(IsometryError):
        generate_bounded([b_field(space, [0] * 22 + [1])], 5, cap=3)


def test_transport_identity_and_examples():
    space, lats = k3n_setup(3)
    lam = lats.lam
    v = lam.coords_of_ambient(vec_add(lats.alpha_tilde, space.beta))
    assert len(eichler_transport(lam, v, v)) == 0
    # a Lambda_S-primitive square -2 vector in the U + U part
    w = tuple(Q(c) for c in [0, 1, -1] + [0] * 22)
    assert lam.norm(w) == -2
    word = eichler_transport(lam, v, w)
    assert not isinstance(word, NotFound)
    assert len(word) <= 6
    assert word.apply(v) == w


def test_transport_square_mismatch():
    space, lats = k3n_setup(3)
    lam = lats.lam
    v = lam.coords_of_ambient(vec_add(lats.alpha_tilde, space.beta))
    w = tuple(Q(c) for c in [0, 1, -2] + [0] * 22)
    res = eichler_transport(lam, v, w)
    assert isinstance(res, NotFound)
    assert res.reason == "square"


def test_transport_word_isometry_matches():
    space, lats = k3n_setup(2)
    lam = lats.lam
    v = lam.coords_of_ambient(vec_add(lats.alpha_tilde, space.beta))
    w = tuple(Q(c) for c in [0, 1, -1] + [0] * 22)
    word = eichler_transport(lam, v, w)
    g = transport_word_isometry(space, lam, word)
    assert g(lam.ambient_vector(v)) == lam.ambient_vector(w)
    assert preserves_lattice(g, lam)
    assert spinor_norm(g) == 1
    assert g.det == 1


def _b_int(gram, y, z):
    return sum(y[i] * gram[i][j] * z[j] for i in range(len(y)) for j in range(len(z)))


def _transvect_int(gram, e, a, x):
    """t(e, a)(x) on plain integers."""
    be = _b_int(gram, e, x)
    ce = -_b_int(gram, a, x) - _b_int(gram, a, a) // 2 * be
    return tuple(xi + ce * ei + be * ai for xi, ei, ai in zip(x, e, a))


# sha256 over the JSON of each word's (e, a) entries as strings, for the
# four draws of test_transport_matches_reference_apply, as the Fraction
# implementation of the reducer gave them
TRANSPORT_WORD_DIGESTS = {
    2: "056d891ce1b7c3d77bae1a43fa757107689e0005aaac12e01aa50ba4a724fccf",
    3: "38770ac4e114cb83fe5e828010c010ba8b85ecce4baf3c912dfcc6f35f63ec1e",
    5: "cf33ff17c68faebe5ab558944264ca483a443035daeee1befacc4f97ec461131",
}


@pytest.mark.parametrize("n", (2, 3, 5))
def test_transport_matches_reference_apply(n):
    # (v, w) in Lambda as the benchmark draws them: v primitive, w its image
    # under integer transvections along alpha~, beta, alpha~ (b(alpha~, beta) = -1)
    space, lats = k3n_setup(n)
    lam = lats.lam
    gram = [[int(c) for c in r] for r in lam.gram.entries()]
    draw = random.Random(100 + n)
    units = [tuple(int(i == k) for i in range(25)) for k in range(25)]
    digest = hashlib.sha256()
    for _ in range(4):
        v = (0,)
        while gcd(*v) != 1:
            v = tuple(draw.randint(-4, 4) for _ in range(25))
        w = v
        for e, f in ((units[0], units[23]), (units[23], units[0]), (units[0], units[23])):
            a0 = tuple(draw.randint(-2, 2) for _ in range(25))
            c = _b_int(gram, e, a0)  # a = a0 + b(e, a0) f is orthogonal to e
            w = _transvect_int(gram, e, tuple(x + c * y for x, y in zip(a0, f)), w)
        vq, wq = tuple(map(Q, v)), tuple(map(Q, w))
        word = eichler_transport(lam, vq, wq)
        assert not isinstance(word, NotFound)
        assert all(type(c) is Q for e, a in word.pairs for c in e + a)
        assert word.apply(vq) == wq
        g = transport_word_isometry(space, lam, word)
        assert g(lam.ambient_vector(vq)) == lam.ambient_vector(wq)
        entries = [[[str(c) for c in e], [str(c) for c in a]] for e, a in word.pairs]
        digest.update(json.dumps(entries).encode())
    assert digest.hexdigest() == TRANSPORT_WORD_DIGESTS[n]


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_transport_of_consecutive_fibonacci_coefficients():
    # v = F_999 e0 + F_1000 e23 on the first hyperbolic plane of Lambda
    # (n = 2): 694-bit coefficients that take plane_smith through more than
    # 500 balanced-Euclid passes
    space, lats = k3n_setup(2)
    lam = lats.lam
    units = [tuple(Q(int(i == k)) for i in range(25)) for k in range(25)]
    v = tuple(Q(_fibonacci(999 + (k == 23))) if k in (0, 23) else Q(0) for k in range(25))
    w = TransvectionWord(lam, [(units[0], units[3])]).apply(v)
    word = eichler_transport(lam, v, w)
    assert not isinstance(word, NotFound)
    assert word.apply(v) == w


def test_transport_word_within_the_plane_smith_bound():
    # plane_smith ends within 2 bitlen(max |X|) + 1 passes of at most four
    # transvections each, X the plane coefficients (b(F1, v), b(E1, v),
    # b(F2, v), b(E2, v)), and reduce adds at most one more on U1 + U2; so
    # the word of v to w is at most that bound for v plus that for w.  Draws:
    # v on U1 + U2 of Lambda (n = 2) with entries up to 700 bits, w its image
    # under t(E1, x E2 + y F2) and t(F1, x' F2 + y' E2) for x, y, x', y' in
    # [-255, 255], and the consecutive Fibonacci pair
    space, lats = k3n_setup(2)
    lam = lats.lam
    units = [tuple(Q(int(i == k)) for i in range(25)) for k in range(25)]
    plane = [units[u[0][0]] for u in isometry._hyperbolic_frame(lam)[:4]]
    e1, f1, e2, f2 = plane

    def bound(v):
        top = max(abs(lam.pairing(u, v)) for u in plane)
        return 4 * (2 * int(top).bit_length() + 1) + 1

    def combine(cs, us):
        return tuple(sum((c * u[i] for c, u in zip(cs, us)), Q(0)) for i in range(25))

    draw = random.Random(41)
    pairs = []
    for _ in range(40):
        bits = draw.randint(1, 700)
        cs = [0]
        while gcd(*cs) != 1:
            cs = [draw.getrandbits(bits) - draw.getrandbits(bits) for _ in range(4)]
        v = combine(cs, plane)
        xs = [draw.randint(-255, 255) for _ in range(4)]
        word = TransvectionWord(lam, [(e1, combine(xs[:2], (e2, f2))), (f1, combine(xs[2:], (f2, e2)))])
        pairs.append((v, word.apply(v)))
    fib = tuple(Q(_fibonacci(999 + (k == 23))) if k in (0, 23) else Q(0) for k in range(25))
    pairs.append((fib, TransvectionWord(lam, [(units[0], units[3])]).apply(fib)))
    for v, w in pairs:
        word = eichler_transport(lam, v, w)
        assert word.apply(v) == w
        assert len(word) <= bound(v) + bound(w)


def test_reducer_reads_x_off_coordinates():
    # X() reads the plane coefficients off v; they must equal the four Gram
    # pairings [b(F1, v), -b(F2, v), b(E2, v), b(E1, v)] on random vectors
    # of Lambda (n = 2, 3, 5; its first plane has b(E1, F1) = -1) and of
    # U + U(-1) + <-2> (second plane sign -1)
    u_minus = QuadLattice(Mat([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, -1, 0],
                               [0, 0, -1, 0, 0], [0, 0, 0, 0, -2]]))
    lattices = [k3n_setup(n)[1].lam for n in (2, 3, 5)] + [u_minus]
    signs = set()
    draw = random.Random(77)
    for lat in lattices:
        frame = isometry._hyperbolic_frame(lat)
        signs.update(unit[0][1] for unit in frame[1:4:2])
        red = isometry._Reducer(lat.gram.nonzero_columns(), frame)
        e1, f1, e2, f2 = frame[:4]
        for _ in range(30):
            red.v = [draw.randint(-2**40, 2**40) for _ in range(lat.rank)]
            v = tuple(map(Q, red.v))
            want = [lat.pairing(_dense_unit(f1, lat.rank), v), -lat.pairing(_dense_unit(f2, lat.rank), v),
                    lat.pairing(_dense_unit(e2, lat.rank), v), lat.pairing(_dense_unit(e1, lat.rank), v)]
            assert red.X() == want
            assert all(type(x) is int for x in red.X())
    assert signs == {1, -1}


def _unit_sum(*terms):
    """sum of c e_k over the (k, c) of terms, in Lambda's 25 coordinates."""
    v = [Q(0)] * 25
    for k, c in terms:
        v[k] += c
    return tuple(v)


@pytest.mark.parametrize("v, first", [
    # L0 only: X = 0, and reduce's first step is t(F1, e_k)
    (_unit_sum((6, 1)), ("t", ((23, -1),), ((5, 1),), (0, 0, 0, 0))),
    # only s nonzero: the move row1 += row2
    (_unit_sum((23, 1), (6, 1)), ("move", "row1", 1, (0, 0, 0, -1))),
    # p < 0 and r = q = 0: the move row2 += row1
    (_unit_sum((0, -1), (6, 1)), ("move", "row2", 1, (-1, 0, 0, 0))),
], ids=["L0_only", "only_s", "p_negative"])
def test_reducer_branches_of_degenerate_starts(monkeypatch, v, first):
    # on Lambda (n = 3) the frame is E1 = e0, F1 = -e23, E2 = e1, F2 = e2;
    # v goes to its image under t(e0, e1 + e5), and the first step of the
    # reduction of v is the branch named
    space, lats = k3n_setup(3)
    lam = lats.lam
    assert isometry._hyperbolic_frame(lam)[:4] == (((0, 1),), ((23, -1),), ((1, 1),), ((2, 1),))
    calls = []
    t, move = isometry._Reducer.t, isometry._Reducer.move
    monkeypatch.setattr(isometry._Reducer, "t", lambda self, e, a: (
        calls.append(("t", e, a, tuple(self.X()))), t(self, e, a))[1])
    monkeypatch.setattr(isometry._Reducer, "move", lambda self, kind, k: (
        calls.append(("move", kind, k, tuple(self.X()))), move(self, kind, k))[1])
    w = TransvectionWord(lam, [(_unit_sum((0, 1)), _unit_sum((1, 1), (5, 1)))]).apply(v)
    assert w != v
    word = eichler_transport(lam, v, w)
    assert not isinstance(word, NotFound)
    assert word.apply(v) == w
    g = transport_word_isometry(space, lam, word)
    assert g(lam.ambient_vector(v)) == lam.ambient_vector(w)
    assert calls[0] == first


def _dense_unit(unit, n):
    """The sparse unit ((index, sign),) as n Fractions."""
    (i, c), = unit
    return tuple(Q(c * (k == i)) for k in range(n))


def greedy_frame_reference(lat):
    """The hyperbolic frame by the earlier greedy search: the first
    isotropic +-1 pairs orthogonal to the pairs found so far, then a test
    that the other basis vectors are orthogonal to both planes, then the
    evenness check."""
    g = lat.gram
    found = []
    used = set()
    for i in range(lat.rank):
        if i in used or g[i, i] != 0:
            continue
        for j in range(lat.rank):
            if j == i or j in used or g[j, j] != 0 or abs(g[i, j]) != 1:
                continue
            if any(g[i, k] != 0 or g[j, k] != 0 for pair in found for k in pair[:2]):
                continue
            found.append((i, j, 1 if g[i, j] == 1 else -1))
            used.update((i, j))
            break
        if len(found) == 2:
            break
    if len(found) < 2:
        raise IsometryError("lattice does not expose 2 orthogonal hyperbolic planes")
    rest = [k for k in range(lat.rank) if k not in used]
    for k in rest:
        for pair in found:
            if g[k, pair[0]] != 0 or g[k, pair[1]] != 0:
                raise IsometryError("hyperbolic planes do not split off orthogonally")
    if not lat.is_even():
        raise IsometryError("transport needs an even integral lattice")
    (i1, j1, s1), (i2, j2, s2) = found
    return ((i1, 1),), ((j1, s1),), ((i2, 1),), ((j2, s2),), rest


def test_frame_skips_a_plane_that_does_not_split_off():
    # e0, e1 is an isotropic pair with b = 1, but e0 also pairs with e4
    # (g04 = 1, g44 = -2), so it does not split off; the split planes are
    # (2, 3) and (5, 6), and transport runs on them
    g = [[0] * 7 for _ in range(7)]
    for i, j, c in ((0, 1, 1), (0, 4, 1), (2, 3, 1), (5, 6, -1)):
        g[i][j] = g[j][i] = c
    g[4][4] = -2
    lat = QuadLattice(Mat(g))
    with pytest.raises(IsometryError, match="do not split off"):
        greedy_frame_reference(lat)
    assert isometry._hyperbolic_frame(lat) == (((2, 1),), ((3, 1),), ((5, 1),), ((6, -1),), [0, 1, 4])
    units = [tuple(Q(int(i == k)) for i in range(7)) for k in range(7)]
    v = (Q(1), Q(2), Q(0), Q(1), Q(3), Q(0), Q(1))
    # t(e, a) with e isotropic and a orthogonal to e: integral isometries
    w = TransvectionWord(lat, [(units[2], vec_add(units[0], units[4])), (units[6], units[1]),
                               (units[3], vec_sub(units[4], units[0]))]).apply(v)
    assert w != v
    word = eichler_transport(lat, v, w)
    assert not isinstance(word, NotFound) and len(word) > 0
    assert word.apply(v) == w


def test_frame_matches_the_greedy_reference():
    # random even Grams of rank 4-9 with two or three isotropic +-1 pairs
    # planted (some split off, some touch a third vector) and about one in
    # ten made odd: wherever the greedy search
    # returns a frame, the one rule returns the same frame; where it reports
    # too few planes or an odd lattice, so does the rule
    draw = random.Random(45)
    outcomes = {"equal": 0, "rule only": 0, "both raise": 0}
    for _ in range(400):
        k = draw.randint(4, 9)
        g = [[0] * k for _ in range(k)]
        for i in range(k):
            g[i][i] = 2 * draw.randint(-2, 1)
            for j in range(i):
                if draw.random() < 0.2:
                    g[i][j] = g[j][i] = draw.randint(-2, 2)
        idx = draw.sample(range(k), k)
        for a, b in (idx[0:2], idx[2:4], idx[4:6])[: min(3, k // 2)]:
            touch = [c for c in range(k) if c not in (a, b) and draw.random() < 0.15]
            for c in range(k):
                g[a][c] = g[c][a] = g[b][c] = g[c][b] = 0
            g[a][b] = g[b][a] = draw.choice((1, -1))
            for c in touch:
                g[a][c] = g[c][a] = draw.choice((1, -1))
        if draw.random() < 0.1:
            g[idx[-1]][idx[-1]] = 1  # odd
        lat = QuadLattice(Mat(g))
        try:
            want = greedy_frame_reference(lat)
        except IsometryError as err:
            try:
                isometry._hyperbolic_frame(lat)
            except IsometryError as got:
                assert str(got) == str(err) or "split off" in str(err)
                outcomes["both raise"] += 1
            else:
                assert "split off" in str(err)
                outcomes["rule only"] += 1
            continue
        assert isometry._hyperbolic_frame(lat) == want
        outcomes["equal"] += 1
    assert min(outcomes.values()) >= 20, outcomes


@given(st.integers(min_value=500, max_value=4000), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=8, deadline=None)
def test_transport_of_large_vectors(bits, seed):
    # a primitive v with entries of up to 4,000 bits on Lambda (n = 2) and
    # its image under a short random word of integer transvections along
    # alpha~ and beta (indices 0 and 23)
    draw = random.Random(seed)
    space, lats = k3n_setup(2)
    lam = lats.lam
    gram = [[int(c) for c in r] for r in lam.gram.entries()]
    v = tuple(draw.getrandbits(bits) - draw.getrandbits(bits) for _ in range(25))
    v = tuple(c // gcd(*v) for c in v)
    w = v
    units = [tuple(int(i == k) for i in range(25)) for k in (0, 23)]
    for _ in range(draw.randint(1, 4)):
        e, f = units[::draw.choice((1, -1))]
        a0 = tuple(draw.randint(-3, 3) for _ in range(25))
        c = _b_int(gram, e, a0)  # a = a0 + b(e, a0) f is orthogonal to e
        w = _transvect_int(gram, e, tuple(x + c * y for x, y in zip(a0, f)), w)
    vq, wq = tuple(map(Q, v)), tuple(map(Q, w))
    word = eichler_transport(lam, vq, wq)
    assert not isinstance(word, NotFound)
    assert word.apply(vq) == wq


def test_transport_data_kept_on_the_lattice(monkeypatch):
    # the hyperbolic frame is kept on the lattice and the sparse integer rows
    # on its Gram, both built on the first transport and reused; v and w are
    # the basis vectors e1 and e2 of Lambda
    built = count_builds(monkeypatch, isometry._hyperbolic_frame)
    space, lats = k3n_setup(2)
    lam = QuadLattice(lats.lam.gram)
    assert built == []
    v, w = (tuple(Q(int(i == k)) for i in range(25)) for k in (1, 2))
    assert eichler_transport(lam, v, w).apply(v) == w
    assert len(built) == 1
    frame, rows = isometry._hyperbolic_frame(lam), lam.gram.nonzero_columns()
    assert all(type(x) is int for r in rows for pair in r for x in pair)
    assert all(type(x) is int for u in frame[:4] for pair in u for x in pair)
    assert eichler_transport(lam, w, v).apply(w) == v
    assert len(built) == 1 and isometry._hyperbolic_frame(lam) is frame
    assert lam.gram.nonzero_columns() is rows


def _pair_q(gram, x, y):
    return sum((x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y))), Q(0))


def test_transvection_word_apply_matches_fraction_reference():
    # random rational pairs and vectors on a rational Gram (denominator 6):
    # the integer apply against the transvection formula on Fractions
    draw = random.Random(7)
    for _ in range(30):
        k = draw.randint(1, 5)
        rows = [[Q(draw.randint(-4, 4), draw.choice((1, 2, 3))) for _ in range(k)] for _ in range(k)]
        gram = [[rows[i][j] + rows[j][i] for j in range(k)] for i in range(k)]
        lat = QuadLattice(Mat(gram))

        def vec():
            return tuple(Q(draw.randint(-3, 3), draw.randint(1, 3)) for _ in range(k))

        pairs = [(vec(), vec()) for _ in range(draw.randint(0, 4))]
        v = vec()
        want = v
        for e, a in pairs:
            be = _pair_q(gram, e, want)
            ce = -_pair_q(gram, a, want) - _pair_q(gram, a, a) / 2 * be
            want = tuple(x + ce * ei + be * ai for x, ei, ai in zip(want, e, a))
        got = TransvectionWord(lat, pairs).apply(v)
        assert got == want and all(type(c) is Q for c in got)


def test_gram_view_built_once_and_shared():
    # reflections, transvections, transport and the application of its word
    # all read the one sparse column view kept on the Gram
    space, lats = k3n_setup(2)
    gram = Mat(lats.lam.gram.entries())  # a fresh Gram, with no view yet
    qs, lam = QuadSpace(gram), QuadLattice(gram)
    view = gram.nonzero_columns()
    assert gram.nonzero_columns() is view
    units = [tuple(Q(int(i == k)) for i in range(25)) for k in range(25)]
    i = next(i for i in range(25) if gram[i, i] == 0)
    j = next(j for j in range(25) if j != i and gram[i, j] == 0)
    anisotropic = next(u for u in units if qs.norm(u) != 0)
    reflection(qs, anisotropic)
    eichler_transvection(qs, units[i], units[j])
    assert eichler_transport(lam, units[1], units[2]).apply(units[1]) == units[2]
    assert qs.gram.nonzero_columns() is view and lam.gram.nonzero_columns() is view


def freed_at_once(holder, name):
    """True iff deleting holder[name], its one reference, frees it with the
    cycle collector off."""
    ref = weakref.ref(holder[name])
    enabled = gc.isenabled()
    gc.disable()
    try:
        del holder[name]
        return ref() is None
    finally:
        if enabled:
            gc.enable()


def test_dropped_lattice_is_freed_without_the_cycle_collector(monkeypatch):
    # the kept transport rows are plain ints with no reference back to the
    # lattice, so dropping the lattice frees it at once
    built = count_builds(monkeypatch, isometry._hyperbolic_frame)
    space, lats = k3n_setup(3)
    held = {"lam": QuadLattice.from_basis(lats.lam.basis_in_ambient.entries(), space.gram)}
    v, w = (tuple(Q(int(i == k)) for i in range(25)) for k in (1, 2))
    assert eichler_transport(held["lam"], v, w)
    assert len(built) == 1
    assert freed_at_once(held, "lam")


def test_dropped_space_is_freed_without_the_cycle_collector():
    # the kept K3n bundle holds the deformation type and the Gram, not the
    # space, so a space whose bundle and other kept values were built goes
    # as soon as it is dropped
    space, lats = k3n_setup(2)
    assert lats.lam_lb.rank == lats.gamma_k.rank == 25
    g = b_field(space, [1] + [0] * 22)
    assert spinor_norm(g) == 1 and space.gram_inverse() * space.gram == Mat.identity(25)
    assert disc_action(g, lats.lam)[0] == "identity"
    held = {"space": space}
    del space, lats, g
    assert freed_at_once(held, "space")


# -- generators against their column-by-column definitions ---------------------
#
# The constructors build I + sum u w^T; the references below build every
# column g(e_j) from the defining formula, one pairing per column.


def reflection_by_columns(space, v):
    """Column j is e_j - 2 b(e_j, v) / b(v, v) v."""
    q = space.norm(v)
    cols = []
    for j in range(space.dim):
        x = space.basis_vector(j)
        cols.append(vec_sub(x, vec_scale(2 * space.pairing(x, v) / q, v)))
    return Mat.from_columns(cols)


def transvection_by_columns(space, e, a):
    """Column j is x - b(a,x) e + b(e,x) a - (b(a,a)/2) b(e,x) e, x = e_j."""
    half_qa = space.norm(a) / 2
    cols = []
    for j in range(space.dim):
        x = space.basis_vector(j)
        be, ba = space.pairing(e, x), space.pairing(a, x)
        img = vec_add(x, vec_scale(-ba - half_qa * be, e))
        cols.append(vec_add(img, vec_scale(be, a)))
    return Mat.from_columns(cols)


def b_field_by_columns(space, lam):
    """B(alpha) = alpha + lambda + b(lambda, lambda)/2 beta,
    B(mu) = mu + b(lambda, mu) beta, B(beta) = beta."""
    cols = [space.vector(1, lam, space.bbf(lam, lam) / 2)]
    for i in range(space.b2):
        mu = tuple(Q(1) if j == i else Q(0) for j in range(space.b2))
        cols.append(space.vector(0, mu, space.bbf(lam, mu)))
    cols.append(space.beta)
    return Mat.from_columns(cols)


# K3[n] at n = 2, 3, 5, and a space whose H^2 Gram has denominator d = 18
GENERATOR_SPACES = {n: ExtMukaiSpace(k3n_type(n)) for n in (2, 3, 5)}
GENERATOR_SPACES["d18"] = ExtMukaiSpace(custom_type(2, 1, 1, Mat.block_diagonal([
    Mat([[Q(7, 2), Q(1, 3)], [Q(1, 3), Q(-5, 6)]]), Mat([[0, 1], [1, 0]]), Mat([[Q(2, 9)]]),
])))
small_rationals = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)),
)


def rational_vectors(length):
    return st.lists(small_rationals, min_size=length, max_size=length).map(tuple)


def isotropic_pair(space, data):
    """(e, f): e isotropic and b(e, f) != 0."""
    if data.draw(st.booleans()):
        # e = x alpha + mu + b(mu, mu)/(2x) beta is isotropic; b(e, beta) = -x
        x = data.draw(small_rationals.filter(bool))
        mu = data.draw(rational_vectors(space.b2))
        return space.vector(x, mu, space.bbf(mu, mu) / (2 * x)), space.beta
    # e = s beta; b(e, alpha) = -s
    return vec_scale(data.draw(small_rationals.filter(bool)), space.beta), space.alpha


def transvection_data(space, data):
    """(e, a): e isotropic, a rational and orthogonal to e."""
    e, f = isotropic_pair(space, data)
    a0 = data.draw(rational_vectors(space.dim))
    return e, vec_sub(a0, vec_scale(space.pairing(e, a0) / space.pairing(e, f), f))


space_keys = st.sampled_from(list(GENERATOR_SPACES))


@given(space_keys, st.data())
@settings(max_examples=40, deadline=None)
def test_reflection_matches_column_definition(key, data):
    space = GENERATOR_SPACES[key]
    v = data.draw(rational_vectors(space.dim))
    assume(space.norm(v) != 0)
    assert reflection(space, v).matrix == reflection_by_columns(space, v)


@given(space_keys, st.data())
@settings(max_examples=40, deadline=None)
def test_transvection_matches_column_definition(key, data):
    space = GENERATOR_SPACES[key]
    e, a = transvection_data(space, data)
    assert eichler_transvection(space, e, a).matrix == transvection_by_columns(space, e, a)


@given(space_keys, st.data())
@settings(max_examples=40, deadline=None)
def test_b_field_matches_column_definition(key, data):
    space = GENERATOR_SPACES[key]
    lam = data.draw(rational_vectors(space.b2))
    assert b_field(space, lam).matrix == b_field_by_columns(space, lam)


@given(space_keys, st.data())
@settings(max_examples=30, deadline=None)
def test_generator_rejections(key, data):
    # an isotropic reflection vector, a non-isotropic e and an a not
    # orthogonal to e are refused with the same errors, whatever the scaling
    space = GENERATOR_SPACES[key]
    e, f = isotropic_pair(space, data)
    with pytest.raises(IsometryError, match="^isotropic vector$"):
        reflection(space, e)
    a = vec_add(data.draw(rational_vectors(space.dim)), f)
    assume(space.pairing(e, a) != 0)
    with pytest.raises(IsometryError, match="^a must be orthogonal to e$"):
        eichler_transvection(space, e, a)
    assume(space.norm(a) != 0)
    with pytest.raises(IsometryError, match="^e must be isotropic$"):
        eichler_transvection(space, a, e)


@given(space_keys, st.data())
@settings(max_examples=24, deadline=None)
def test_spinor_norm_matches_reflection_decomposition(key, data):
    # words of B-fields (half-integral entries included), reflections in
    # rational vectors and transvections against the sign product over a
    # Cartan-Dieudonne decomposition
    space = GENERATOR_SPACES[key]
    halves = st.builds(Q, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2)))
    g = identity_isometry(space)
    for kind in data.draw(st.lists(st.sampled_from("Bst"), min_size=1, max_size=3)):
        if kind == "B":
            h = b_field(space, data.draw(st.lists(halves, min_size=space.b2, max_size=space.b2)))
        elif kind == "s":
            v = data.draw(rational_vectors(space.dim))
            assume(space.norm(v) != 0)
            h = reflection(space, v)
        else:
            h = eichler_transvection(space, *transvection_data(space, data))
        g = g.compose(h)
    assert spinor_norm(g) == spinor_norm_from_reflections(space, cartan_dieudonne(g))
