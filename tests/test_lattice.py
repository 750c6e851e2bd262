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
from extmukai.linalg import Mat, saturation_basis, smith_normal_form
from extmukai.moduli import AlgebraicMukaiLattice, ns_of_moduli, primitive_vectors_in_box
from extmukai.serialize import lattice_from_json
from extmukai.spaces import ExtMukaiSpace, k3n_lattices, k3n_type


def saturate(lat, int_rows):
    """Reference: the saturation inside L of the sublattice spanned by
    integer coordinate rows, built from `saturation_basis`."""
    sat = saturation_basis([[int(c) for c in r] for r in int_rows])
    if not sat:
        return QuadLattice(Mat.zero(0, 0), Mat.zero(0, lat.rank), lat.gram, name="0")
    if lat.basis_in_ambient is not None:
        rows = [lat.ambient_vector([Q(c) for c in b]) for b in sat]
        return QuadLattice.from_basis(rows, lat.ambient_gram)
    return QuadLattice.from_basis([[Q(c) for c in b] for b in sat], lat.gram)


def test_embedded_lattice_gram_must_match_pullback():
    ambient = Mat([[0, 1], [1, 0]])
    basis = Mat([[1, 1]])
    assert QuadLattice.from_basis([[1, 1]], ambient).gram == Mat([[2]])
    assert QuadLattice(Mat([[2]]), basis, ambient).rank == 1
    with pytest.raises(LatticeError):
        QuadLattice(Mat([[4]]), basis, ambient)
    data = {"gram": [["4"]], "embedding": [["1", "1"]]}
    with pytest.raises(LatticeError):
        lattice_from_json(data, ambient)
    assert lattice_from_json(dict(data, gram=[["2"]]), ambient).gram == Mat([[2]])


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


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_disc_group_lambda_presentation(n):
    # A(Lambda) = Z/(2n-2), generated by delta~/(2n-2), q = -1/(2n-2) mod 2Z
    dg = discriminant_group(k3n_lattices(ExtMukaiSpace(k3n_type(n))).lam)
    assert dg.cyclic_orders == (2 * n - 2,)
    assert dg.generators == ((Q(0),) * 24 + (Q(1, 2 * n - 2),),)
    assert dg.q_values == (Q(-1, 2 * n - 2) % 2,)


# an even Gram of det 2271446447 on which the alternating-Euclid Smith form
# ran for minutes
EVEN_GRAM_6 = [
    [-56, -7, -32, -12, -31, -2],
    [-7, 8, 15, -17, -33, 24],
    [-32, 15, 38, -35, 36, -28],
    [-12, -17, -35, 20, -15, -7],
    [-31, -33, 36, -15, 10, 20],
    [-2, 24, -28, -7, 20, 64],
]


def test_disc_group_of_a_6x6_even_gram_returns_at_once():
    import time

    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith

    start = time.perf_counter()
    dg = discriminant_group(QuadLattice(Mat(EVEN_GRAM_6)))
    assert time.perf_counter() - start < 1.0
    d = sympy_smith(sympy.Matrix(EVEN_GRAM_6), domain=sympy.ZZ)
    assert dg.cyclic_orders == tuple(sorted(abs(d[i, i]) for i in range(6) if abs(d[i, i]) > 1))
    assert dg.order == 2271446447


def test_disc_group_computed_once_per_lattice():
    lam = k3n_lattices(ExtMukaiSpace(k3n_type(3))).lam
    dg = discriminant_group(lam)
    assert discriminant_group(lam) is dg
    fresh = discriminant_group(QuadLattice(lam.gram, lam.basis_in_ambient, lam.ambient_gram))
    assert fresh is not dg
    assert fresh.cyclic_orders == dg.cyclic_orders == (4,)
    assert fresh.generators == dg.generators
    assert fresh.q_values == dg.q_values


def _generators_by_two_inverses(lat):
    """Reference: G^-1 U^-1 e_i for the invariant factors d_i > 1 of
    U G V = D, the generators as first computed, with two inverses."""
    u, d, _ = smith_normal_form(lat.gram)
    ginv, uinv = lat.gram.inverse(), u.inverse()
    return tuple(tuple(ginv.apply(uinv.column(i))) for i in range(lat.rank) if d[i, i] > 1)


def _even_nondegenerate_lattices():
    """Lambda, Lambda_S and 3 Lambda_S + Z delta~ of K3[2..4], and the NS(M)
    of every primitive v in the box of radius 1 over four NS Grams."""
    lats = []
    for n in (2, 3, 4):
        bundle = k3n_lattices(ExtMukaiSpace(k3n_type(n)))
        lats += [bundle.lam, bundle.lam_s, bundle.gamma_k]
    for ns in ([[2]], [[4]], [[0, 1], [1, 0]], [[2, 1], [1, 4]]):
        mukai = AlgebraicMukaiLattice(Mat(ns))
        for v in primitive_vectors_in_box(mukai, 1):
            ns_m = ns_of_moduli(mukai, v)
            if ns_m.is_even() and ns_m.is_nondegenerate():
                lats.append(ns_m)
    return lats


def test_disc_group_matches_sympy_and_the_two_inverse_generators():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith

    lats = _even_nondegenerate_lattices()
    assert len(lats) > 40
    for lat in lats:
        dg = discriminant_group(lat)
        d = sympy_smith(sympy.Matrix(lat.gram.int_entries()), domain=sympy.ZZ)
        factors = sorted(abs(d[i, i]) for i in range(lat.rank))
        assert dg.cyclic_orders == tuple(f for f in factors if f > 1), lat
        assert dg.generators == _generators_by_two_inverses(lat), lat


def test_ambient_vector_needs_no_inverse(monkeypatch):
    lam = k3n_lattices(ExtMukaiSpace(k3n_type(3))).lam
    lat = QuadLattice(lam.gram, lam.basis_in_ambient, lam.ambient_gram)
    coords = [Q(i % 5 - 2, 1 + i % 3) for i in range(lat.rank)]
    want = lat.basis_in_ambient.transpose().apply(coords)
    inverted = []
    inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse", lambda m: inverted.append(m) or inverse(m))
    assert lat.ambient_vector(coords) == want
    assert inverted == []  # no coordinates asked for yet
    c, cinv = lat.basis_change()
    assert inverted == [c] and cinv * c == Mat.identity(lat.rank)
    assert lat.ambient_vector(coords) == want and lat._columns() is c
    assert lat.coords_of_ambient(want) == tuple(coords)
    assert lat.basis_change() == (c, cinv) and len(inverted) == 1  # kept


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
    # the empty basis keeps its width: the zero vector of U lies in it
    assert (z.basis_in_ambient.rows, z.basis_in_ambient.cols) == (0, 2)
    assert z.contains_ambient((Q(0), Q(0)))
    assert not z.contains_ambient((Q(1), Q(0)))


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
