import random
from fractions import Fraction as Q

import pytest

from extmukai.lattice import (
    LatticeError,
    NotFound,
    QuadLattice,
    brute_force_isometric,
    discriminant_group,
    divisibility,
    is_primitive,
    orthogonal_complement,
    standard_lattice,
)
from extmukai.linalg import Mat
from extmukai.spaces import ExtMukaiSpace, k3n_lattices, k3n_type


def test_standard_u():
    u = standard_lattice("U")
    assert u.det() == -1
    assert u.signature() == (1, 1)


def test_standard_k3():
    k3 = standard_lattice("K3")
    assert k3.rank == 22
    assert k3.det() == -1
    assert k3.is_even()
    assert k3.signature() == (3, 19)


def test_standard_e8_minus():
    e8 = standard_lattice("E8_minus")
    assert e8.det() == 1
    assert e8.signature() == (0, 8)
    assert e8.is_even()


def test_standard_a1():
    # 2 delta is the exceptional class; delta^2 = 2 - 2n
    assert standard_lattice("A1", k=2 - 2 * 2).gram == Mat([[-2]])
    with pytest.raises(LatticeError):
        standard_lattice("A1", k=0)


def test_standard_mukai_k3():
    mk = standard_lattice("MukaiK3")
    assert mk.rank == 24
    assert mk.det() == 1
    assert mk.signature() == (4, 20)
    # Mukai pairing convention: <(1,0,0),(0,0,1)> = -1
    assert mk.gram[0, 1] == -1


def test_unknown_name_rejected():
    with pytest.raises(LatticeError):
        standard_lattice("E7")


def test_disc_group_unimodular_trivial():
    assert discriminant_group(standard_lattice("U")).cyclic_orders == ()


def test_disc_group_a1():
    # <2-2n> at n=3: Z/4 with q(gen) = -1/4 mod 2Z
    dg = discriminant_group(standard_lattice("A1", k=-4))
    assert dg.cyclic_orders == (4,)
    assert dg.q_values[0] == Q(-1, 4) % 2


def test_disc_group_lambda_n2():
    lats = k3n_lattices(ExtMukaiSpace(k3n_type(2)))
    dg = discriminant_group(lats.lam)
    assert dg.cyclic_orders == (2,)
    assert dg.q_values[0] == Q(-1, 2) % 2


def test_disc_group_computed_once_per_lattice():
    lam = k3n_lattices(ExtMukaiSpace(k3n_type(3))).lam
    dg = discriminant_group(lam)
    assert discriminant_group(lam) is dg
    fresh = discriminant_group(QuadLattice(lam.gram, lam.basis_in_ambient, lam.ambient_gram))
    assert fresh is not dg
    assert fresh.cyclic_orders == dg.cyclic_orders == (4,)
    assert fresh.generators == dg.generators
    assert fresh.q_values == dg.q_values


def test_ambient_vector_needs_no_inverse():
    lam = k3n_lattices(ExtMukaiSpace(k3n_type(3))).lam
    lat = QuadLattice(lam.gram, lam.basis_in_ambient, lam.ambient_gram)
    coords = [Q(i % 5 - 2, 1 + i % 3) for i in range(lat.rank)]
    want = lat.basis_in_ambient.transpose().apply(coords)
    assert lat.ambient_vector(coords) == want
    assert lat._basis_t_inv is None  # no coordinates asked for yet
    c, cinv = lat.basis_change()
    assert lat.ambient_vector(coords) == want and lat._columns() is c
    assert lat.coords_of_ambient(want) == tuple(coords)


def test_disc_group_order_equals_det():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 4)
        while True:
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = 2 * rng.randint(-3, 3)
                for j in range(i):
                    m[i][j] = m[j][i] = rng.randint(-2, 2)
            lat_gram = Mat(m)
            if lat_gram.det() != 0:
                break
        from extmukai.lattice import QuadLattice

        lat = QuadLattice(lat_gram)
        dg = discriminant_group(lat)
        assert dg.order == abs(lat_gram.det())


def test_divisibility_examples():
    space = ExtMukaiSpace(k3n_type(3))
    lats = k3n_lattices(space)
    lam = lats.lam
    dt = lam.coords_of_ambient(lats.delta_tilde)
    at = lam.coords_of_ambient(lats.alpha_tilde)
    assert divisibility(lam, dt) == 4  # 2n - 2 at n = 3
    assert divisibility(lam, at) == 1
    assert divisibility(lam, tuple(2 * c for c in at)) == 2
    with pytest.raises(LatticeError):
        divisibility(lam, tuple(Q(0) for _ in range(25)))


def test_divisibility_divides_all_pairings():
    rng = random.Random(7)
    lat = standard_lattice("K3")
    for _ in range(20):
        v = tuple(Q(rng.randint(-3, 3)) for _ in range(22))
        if all(c == 0 for c in v):
            continue
        d = divisibility(lat, v)
        for p in lat.gram.apply(v):
            assert p % d == 0
        assert lat.norm(v) % d == 0


def test_orthogonal_complement_mukai_vector():
    # v = (1, 0, 1-n): |det(v_perp)| = 2n - 2
    mk = standard_lattice("MukaiK3")
    for n in (2, 3, 5):
        v = tuple(Q(c) for c in [1, 1 - n] + [0] * 22)
        assert mk.norm(v) == 2 * n - 2
        perp = orthogonal_complement(mk, [v])
        assert perp.rank == 23
        assert abs(perp.det()) == 2 * n - 2


def test_orthogonal_complement_whole_lattice_is_zero():
    u = standard_lattice("U")
    z = orthogonal_complement(u, [(Q(1), Q(0)), (Q(0), Q(1))])
    assert z.rank == 0


def test_orthogonal_complement_delta_tilde_gives_lambda_s():
    space = ExtMukaiSpace(k3n_type(2))
    lats = k3n_lattices(space)
    dt = lats.lam.coords_of_ambient(lats.delta_tilde)
    perp = orthogonal_complement(lats.lam, [dt])
    assert perp.same_subset_as(lats.lam_s)


def test_orthogonal_complement_is_saturated():
    rng = random.Random(11)
    lat = standard_lattice("K3")
    for _ in range(10):
        v = tuple(Q(rng.randint(-2, 2)) for _ in range(22))
        if all(c == 0 for c in v):
            continue
        perp = orthogonal_complement(lat, [v])
        # saturation: doubling a complement vector and asking for its
        # half-integral coordinates must stay integral
        from extmukai.lattice import saturate

        sat = saturate(lat, [[int(x) for x in perp.basis_in_ambient.row(i)]
                             for i in range(perp.rank)])
        assert sat.rank == perp.rank
        assert sat.same_subset_as(perp)


def test_is_primitive():
    space = ExtMukaiSpace(k3n_type(2))
    lats = k3n_lattices(space)
    at_beta = lats.lam.coords_of_ambient(
        tuple(a + b for a, b in zip(lats.alpha_tilde, space.beta))
    )
    assert is_primitive(lats.lam, at_beta)
    assert not is_primitive(lats.lam, tuple(3 * c for c in at_beta))
    dt = lats.lam.coords_of_ambient(lats.delta_tilde)
    assert is_primitive(lats.lam, dt)


def test_brute_force_isometric_identity():
    u = standard_lattice("U")
    m = brute_force_isometric(u, u, 1)
    assert not isinstance(m, NotFound)
    assert (m.transpose() * u.gram * m) == u.gram


def test_brute_force_det_obstruction():
    # [[2g-2, 2], [2, 0]] at g = 2 has det -4 while U has det -1
    from extmukai.lattice import QuadLattice

    l1 = QuadLattice(Mat([[2, 2], [2, 0]]))
    res = brute_force_isometric(l1, standard_lattice("U"), 3)
    assert isinstance(res, NotFound)
    assert res.reason == "determinant"


def test_brute_force_signature_obstruction():
    from extmukai.lattice import QuadLattice

    res = brute_force_isometric(
        QuadLattice(Mat([[-2]])), QuadLattice(Mat([[2]])), 3
    )
    assert isinstance(res, NotFound)
    assert res.reason == "signature"


def test_brute_force_rank_cap():
    k3 = standard_lattice("K3")
    with pytest.raises(LatticeError):
        brute_force_isometric(k3, k3, 1)
