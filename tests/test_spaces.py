import random
from fractions import Fraction as Q
from math import factorial
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from extmukai.isometry import minus_identity, reflection
from extmukai.lattice import QuadLattice, discriminant_group, divisibility
from extmukai.linalg import Mat, hnf_row_basis, kernel_basis
from extmukai.spaces import (
    ExtMukaiSpace,
    SpaceError,
    b_field,
    ext_vector_line_bundle,
    ext_vector_point,
    in_hat_aut_plus,
    is_hodge_isometry,
    k3n_lattices,
    k3n_type,
    kumn_type,
    membership,
    og6_type,
    og10_type,
    rank_predicate_kx_orbit,
    rank_predicate_o_orbit,
    shifted_integral_lattice,
    signum_normalize,
    split_algebraic,
)
from extmukai import spaces
from extmukai.spaces import _integer_nth_root, kx_rank_core
from extmukai.verification import _brute_force_kx_ranks

rng = random.Random(99)


def test_family_parameters():
    t = k3n_type(4)
    assert (t.c_x, t.r_x, t.b2) == (1, Q(7, 4), 23)
    t = kumn_type(4)
    assert (t.c_x, t.r_x, t.b2) == (5, Q(5, 4), 7)
    assert (og10_type().c_x, og10_type().r_x, og10_type().b2) == (1, 2, 24)
    assert (og6_type().c_x, og6_type().r_x, og6_type().b2) == (4, 1, 8)


def test_line_bundle_vector_examples():
    space = ExtMukaiSpace(k3n_type(2))
    v0 = ext_vector_line_bundle(space, [0] * 23)
    assert v0.coords == space.vector(1, [0] * 23, Q(5, 4))
    delta = [0] * 22 + [1]
    vd = ext_vector_line_bundle(space, delta)
    assert vd.coords == space.vector(1, delta, Q(1, 4))
    for _ in range(20):
        lam = [rng.randint(-3, 3) for _ in range(23)]
        v = ext_vector_line_bundle(space, lam)
        assert v.square() == -2 * space.dtype.r_x


def test_point_vector():
    space = ExtMukaiSpace(k3n_type(3))
    v = ext_vector_point(space)
    assert v.coords == space.beta
    assert v.square() == 0
    v_o = ext_vector_line_bundle(space, [0] * 23)
    assert space.pairing(v_o.coords, v.coords) == -1


def test_signum_rules():
    space = ExtMukaiSpace(k3n_type(2))
    lam = [1] + [0] * 22
    v = space.vector(-1, [-c for c in lam], -3)
    out = signum_normalize(space, v)
    assert out.coords == space.vector(1, lam, 3)
    # rule 2: no alpha part, sign of b(omega, lambda)
    omega = [0, 1] + [0] * 21  # pairs 1 with e1 via the U block
    w = space.vector(0, lam, 5)
    out = signum_normalize(space, w, omega=omega)
    assert out.coords == w
    out = signum_normalize(space, w, omega=[0, -1] + [0] * 21)
    assert out.coords == tuple(-c for c in w)
    # degenerate omega consulted -> error
    with pytest.raises(SpaceError, match="very-general"):
        signum_normalize(space, w, omega=[0] * 23)
    with pytest.raises(SpaceError, match="very-general"):
        signum_normalize(space, w)
    # rule 3: pure beta
    out = signum_normalize(space, space.vector(0, [0] * 23, -2))
    assert out.coords == space.vector(0, [0] * 23, 2)
    # epsilon multiplies
    out = signum_normalize(space, v, epsilon=-1)
    assert out.coords == space.vector(-1, [-c for c in lam], -3)


def test_k3n_lattice_facts():
    for n in (2, 3):
        space = ExtMukaiSpace(k3n_type(n))
        lats = k3n_lattices(space)
        at, dt = lats.alpha_tilde, lats.delta_tilde
        assert space.norm(at) == 0
        assert space.pairing(at, space.beta) == -1
        assert space.pairing(at, dt) == 0
        assert space.norm(dt) == 2 - 2 * n
        # Lambda = Lambda_S + Z delta~ orthogonally; Lambda_S unimodular
        assert abs(lats.lam_s.det()) == 1
        assert lats.lam.gram == Mat.block_diagonal(
            [lats.lam_s.gram, Mat([[2 - 2 * n]])]
        )
        # A(Lambda) = Z/(2n-2); delta~ has divisibility 2n-2
        assert discriminant_group(lats.lam).cyclic_orders == (2 * n - 2,)
        assert divisibility(lats.lam, lats.lam.coords_of_ambient(dt)) == 2 * n - 2
        # index two: Lambda inside Lambda_g
        assert abs(lats.lam_g.det()) * 4 == abs(lats.lam.det())
        for i in range(lats.lam.rank):
            assert membership(lats.lam_g, lats.lam.basis_in_ambient.row(i))[0]


def count_line_bundle_builds(monkeypatch):
    """A list that gains one entry each time Lambda_LB is built."""
    built = []
    build = spaces._line_bundle_lattice
    monkeypatch.setattr(spaces, "_line_bundle_lattice", lambda *a: built.append(1) or build(*a))
    return built


def test_lambda_lb_between_lattices(monkeypatch):
    built = count_line_bundle_builds(monkeypatch)
    for n in (2, 3):
        space = ExtMukaiSpace(k3n_type(n))
        lats = k3n_lattices(space)
        # built on first access, then kept on the bundle
        assert built == []
        assert lats.lam_lb is lats.lam_lb
        assert len(built) == 1
        want = spaces._line_bundle_lattice(space.dtype, space.gram)
        built.clear()
        assert lats.lam_lb.basis_in_ambient == want.basis_in_ambient
        assert lats.lam_lb.rank == 25
        for i in range(25):
            assert membership(lats.lam_g, lats.lam_lb.basis_in_ambient.row(i))[0]
        # both Lambda and Lambda_LB sit in Lambda_g with index two, but they
        # differ as subsets: v(O) generates the half-delta~ direction of
        # Lambda_LB and does not lie in Lambda
        assert abs(lats.lam_lb.det()) == abs(lats.lam.det())
        assert abs(lats.lam_g.det()) * 4 == abs(lats.lam_lb.det())
        v0 = ext_vector_line_bundle(space, [0] * 23).coords
        assert membership(lats.lam_lb, v0)[0]
        assert not membership(lats.lam, v0)[0]
        assert not lats.lam_lb.same_subset_as(lats.lam)


def reference_line_bundle_lattice(space):
    """Lambda_LB from the line-bundle vectors themselves: v(0), v(+-e_i) and
    v(e_i + e_j), 300 vectors on K3n, and their Hermite basis."""
    b2 = space.b2
    units = [tuple(int(i == j) for j in range(b2)) for i in range(b2)]
    lams = [(0,) * b2] + units + [tuple(-c for c in u) for u in units]
    lams += [tuple(map(add, units[i], units[j])) for i in range(b2) for j in range(i + 1, b2)]
    gens = Mat([ext_vector_line_bundle(space, lam).coords for lam in lams])
    den = gens.denominator_lcm()
    rows = [tuple(Q(c, den) for c in row) for row in hnf_row_basis(gens.scale(den).int_entries())]
    return QuadLattice.from_basis(rows, space.gram, name="Lambda_LB")


@pytest.mark.parametrize("n", (2, 3, 4, 10))
def test_lambda_lb_matches_line_bundle_reference(n, monkeypatch):
    # built from b2 + 2 generators, with the Hermite basis of all 300
    space = ExtMukaiSpace(k3n_type(n))
    sizes = []

    def counted(rows):
        sizes.append(len(rows))
        return hnf_row_basis(rows)

    monkeypatch.setattr(spaces, "hnf_row_basis", counted)
    lam_lb = k3n_lattices(space).lam_lb
    monkeypatch.undo()
    assert sizes == [space.b2 + 2]
    want = reference_line_bundle_lattice(space)
    assert lam_lb.basis_in_ambient == want.basis_in_ambient
    assert lam_lb.gram == want.gram and lam_lb.name == want.name


def test_k3n_lattices_kept_on_the_space(monkeypatch):
    built = count_line_bundle_builds(monkeypatch)
    space = ExtMukaiSpace(k3n_type(3))
    lats = k3n_lattices(space)
    assert k3n_lattices(space) is lats
    # Lambda_LB is still built on first access, and kept with the bundle
    assert built == []
    lam_lb = lats.lam_lb
    assert k3n_lattices(space).lam_lb is lam_lb and len(built) == 1
    # an equal space gets its own bundle
    assert k3n_lattices(ExtMukaiSpace(k3n_type(3))) is not lats
    with pytest.raises(SpaceError):
        k3n_lattices(ExtMukaiSpace(kumn_type(2)))


def test_lambda_lb_hermite_basis():
    # the Hermite basis of the line-bundle span: the identity, but for the
    # alpha row, which carries 1/4 (n = 2) or 1/2 (n = 3) of beta
    for n, top in ((2, Q(1, 4)), (3, Q(1, 2)), (5, Q(0))):
        basis = k3n_lattices(ExtMukaiSpace(k3n_type(n))).lam_lb.basis_in_ambient
        want = [[Q(int(i == j)) for j in range(25)] for i in range(25)]
        want[0][24] = top
        assert basis == Mat(want)


def test_membership_examples():
    space = ExtMukaiSpace(k3n_type(2))
    lats = k3n_lattices(space)
    # v(O_Pn) = l + delta~/2 + beta with l a (-2)-class of the K3 part
    l_amb = space.h2_embed([1, -1] + [0] * 21)
    v = tuple(
        a + Q(1, 2) * d + b for a, d, b in zip(l_amb, lats.delta_tilde, space.beta)
    )
    assert membership(lats.lam_g, v)[0]
    assert not membership(lats.lam, v)[0]
    assert membership(lats.lam, space.beta)[0]
    # v(lambda) in Lambda_g for 100 random integral lambda
    for _ in range(100):
        lam = [rng.randint(-3, 3) for _ in range(23)]
        ok, _ = membership(lats.lam_g, ext_vector_line_bundle(space, lam).coords)
        assert ok


def test_line_bundle_rewrite_identity():
    # v(lambda) = alpha~ + delta~/2 + lambda + (1 + b(lambda,lambda)/2) beta
    space = ExtMukaiSpace(k3n_type(3))
    lats = k3n_lattices(space)
    for _ in range(20):
        lam = [rng.randint(-3, 3) for _ in range(23)]
        lhs = ext_vector_line_bundle(space, lam).coords
        lam_amb = space.h2_embed(lam)
        q = space.norm(lam_amb)
        rhs = tuple(
            a + Q(1, 2) * d + l + (1 + q / 2) * b
            for a, d, l, b in zip(lats.alpha_tilde, lats.delta_tilde, lam_amb, space.beta)
        )
        assert lhs == rhs


def test_lambda_independent_of_exceptional_choice():
    # B_{-gamma/2}(integral lattice) = Lambda for any gamma of square 2-2n
    # and divisibility 2n-2
    for n in (2, 3):
        space = ExtMukaiSpace(k3n_type(n))
        lats = k3n_lattices(space)
        candidates = []
        delta = [0] * 22 + [1]
        candidates.append(delta)
        # delta + (2n-2) e for isotropic e in distinct hyperbolic planes
        e1 = [0] * 23
        e1[0] = 2 * n - 2
        candidates.append([a + b for a, b in zip(delta, e1)])
        f2 = [0] * 23
        f2[3] = 2 * n - 2
        candidates.append([a + b for a, b in zip(delta, f2)])
        for gamma in candidates:
            amb = space.h2_embed(gamma)
            assert space.norm(amb) == 2 - 2 * n
            assert divisibility(space.integral_lattice(),
                                space.integral_lattice().coords_of_ambient(amb)) == 2 * n - 2
            shifted = shifted_integral_lattice(space, gamma)
            assert shifted.same_subset_as(lats.lam)


def test_b_field_takes_h2_classes_only():
    # lambda is given by its b_2 coordinates; an ambient vector is refused
    space = ExtMukaiSpace(k3n_type(2))
    lam = [1] + [0] * 22
    assert b_field(space, lam)(space.alpha) == (Q(1), Q(1)) + (Q(0),) * 23  # e1 isotropic
    with pytest.raises(SpaceError, match="^lambda must be an H\\^2 vector$"):
        b_field(space, [0] + lam + [0])


def test_split_algebraic():
    space = ExtMukaiSpace(
        k3n_type(2),
        ns_sublattice=[[1] + [0] * 22, [0, 1] + [0] * 21, [0] * 22 + [1]],
    )
    lats = k3n_lattices(space)
    alg, tr = split_algebraic(space, lats.lam)
    assert alg.rank == 5  # alpha~, e1, f1, delta~-ish, beta directions
    assert tr.rank == 20
    # transcendental part of Lambda = transcendental part of H^2
    h2_tr_basis = [space.basis_vector(i) for i in range(3, 23)]
    for b in h2_tr_basis:
        assert tr.contains_ambient(b)
    alg2, tr2 = split_algebraic(space, space.integral_lattice())
    assert tr2.rank == 20
    for b in h2_tr_basis:
        assert tr2.contains_ambient(b)
    # NS = all of H^2 -> transcendental part is zero
    full = ExtMukaiSpace(
        k3n_type(2),
        ns_sublattice=[[1 if j == i else 0 for j in range(23)] for i in range(23)],
    )
    lats_f = k3n_lattices(full)
    algf, trf = split_algebraic(full, lats_f.lam)
    assert algf.rank == 25 and trf.rank == 0
    # a lattice that meets the algebraic span only in 0: the empty algebraic
    # part is a rank-0 lattice in the 25-dimensional space
    b = space.basis_vector(10)
    line = QuadLattice.from_basis([b], space.gram)
    alg0, tr0 = split_algebraic(space, line)
    assert alg0.rank == 0 and tr0 is line
    assert alg0.basis_in_ambient.cols == space.dim == 25
    assert alg0.contains_ambient((Q(0),) * 25) and not alg0.contains_ambient(b)


def count_span_builds(monkeypatch):
    """A list that gains one entry each time the kept algebraic span of a
    space is computed."""
    built = []
    build = spaces._algebraic_span.__wrapped__
    monkeypatch.setattr(spaces._algebraic_span, "__wrapped__",
                        lambda space: built.append(1) or build(space))
    return built


def test_algebraic_span_built_once_per_space(monkeypatch):
    built = count_span_builds(monkeypatch)
    ns = [[1] + [0] * 22, [0, 1] + [0] * 21, [0] * 22 + [1]]
    space = ExtMukaiSpace(k3n_type(2), ns_sublattice=ns)
    lats = k3n_lattices(space)
    assert built == []
    for lam in ([2, 1] + [0] * 20 + [1], [0, 0, 1] + [0] * 20):
        is_hodge_isometry(b_field(space, lam), space)
    split_algebraic(space, lats.lam)
    split_algebraic(space, space.integral_lattice())
    assert len(built) == 1
    # an equal space gets its own span
    is_hodge_isometry(minus_identity(space), ExtMukaiSpace(k3n_type(2), ns_sublattice=ns))
    assert len(built) == 2


def hodge_reference(g, space):
    """The earlier test: every spanning vector of Q.alpha + NS_Q + Q.beta
    mapped by g, paired with every form that cuts the span out."""
    if space.ns_sublattice is None:
        return True
    ns_ambient = [space.h2_embed(v) for v in space.ns_sublattice]
    span = [space.alpha] + ns_ambient + [space.beta]
    forms = kernel_basis(Mat.from_rows(span))
    for v in span:
        gv = g(v)
        for f in forms:
            if sum(a * b for a, b in zip(gv, f)) != 0:
                return False
    return True


def test_hodge_isometry_matches_the_double_loop():
    # NS one primitive vector, several unit vectors and all of H^2 on K3n
    # (n = 2); g random B-fields (some inside NS) and reflections (some in
    # a vector of the algebraic span), and their composites
    draw = random.Random(46)
    one = [1, 2, -1] + [0] * 19 + [3]
    several = [[int(i == k) for i in range(23)] for k in (0, 1, 5, 22)]
    every = [[int(i == k) for i in range(23)] for k in range(23)]
    outcomes = set()
    for ns in ([one], several, every, None):
        space = ExtMukaiSpace(k3n_type(2), ns_sublattice=ns)
        inside = [space.alpha, space.beta] + [space.h2_embed(v) for v in ns or []]
        for _ in range(12):
            lam = [Q(draw.randint(-3, 3), draw.choice((1, 2))) for _ in range(23)]
            if ns and draw.random() < 0.4:
                lam = [sum(draw.randint(-2, 2) * v[i] for v in ns) for i in range(23)]
            v = tuple(Q(draw.randint(-2, 2)) for _ in range(25))
            if draw.random() < 0.4:
                v = tuple(sum(draw.randint(-2, 2) * u[i] for u in inside) for i in range(25))
            if space.norm(v) == 0:
                continue
            for g in (b_field(space, lam), reflection(space, v),
                      reflection(space, v).compose(b_field(space, lam))):
                want = hodge_reference(g, space)
                assert is_hodge_isometry(g, space) == want
                outcomes.add((ns is None, want))
    assert outcomes == {(False, True), (False, False), (True, True)}


def test_rank_predicates():
    assert rank_predicate_o_orbit(8, 3) == (True, 2)
    assert rank_predicate_o_orbit(-8, 3) == (True, 2)
    assert rank_predicate_o_orbit(12, 3) == (False, None)
    assert rank_predicate_o_orbit(1, 5) == (True, 1)
    assert rank_predicate_o_orbit(0, 3) == (True, 0)

    ok, a, integral = rank_predicate_kx_orbit(0, 3, 1)
    assert ok and a == 0
    ok, a, integral = rank_predicate_kx_orbit(2, 2, 1)
    assert ok and a == 1 and integral
    ok, _, _ = rank_predicate_kx_orbit(3, 2, 1)
    assert not ok
    # rational witness: n = 2, c_X = 1, r = 2 * (3/2)^2 = 9/2 not integral;
    # r = 2 * (1/2)^2 /... q^n must divide n!: a = 1/..., n! = 2: no q > 1
    ok, a, integral = rank_predicate_kx_orbit(6 * 27, 3, 1)  # a = 3
    assert ok and a == 3 and integral


def test_kx_rank_predicate_refuses_c_x_zero():
    # r * 0 = 0 is an n-th power for every r; c_X = 0 is refused, a negative
    # c_X is still read
    for c_x in (0, Q(0)):
        for r in (0, 1, 6, -7):
            with pytest.raises(SpaceError, match="c_X must be nonzero"):
                rank_predicate_kx_orbit(r, 2, c_x)
    for r, n, c_x in ((-3, 3, -2), (3, 1, -2), (-6, 1, Q(-1, 2))):
        ok, a, _ = rank_predicate_kx_orbit(r, n, c_x)
        assert ok and a**n * factorial(n) / Q(c_x) == r


def test_rank_predicates_refuse_non_integral_ranks():
    for r in (Q(9, 2), 6.9, Q(-1, 3), 0.5):
        with pytest.raises(SpaceError):
            rank_predicate_o_orbit(r, 2)
        with pytest.raises(SpaceError):
            rank_predicate_kx_orbit(r, 3, 1)
    # integral Fractions and floats keep the answers of the equal int
    for r in (8, -8, 12, 0, 6 * 27, 2):
        for x in (Q(r), float(r)):
            assert rank_predicate_o_orbit(x, 3) == rank_predicate_o_orbit(r, 3)
            for c_x in (1, 2, Q(7, 2)):
                assert rank_predicate_kx_orbit(x, 3, c_x) == rank_predicate_kx_orbit(r, 3, c_x)


@pytest.mark.parametrize("n", [0, -1, -2])
def test_rank_predicates_reject_n_below_one(n):
    # r = 0 returns early for n >= 1; n < 1 must still raise
    for r in (5, 0):
        with pytest.raises(SpaceError):
            rank_predicate_o_orbit(r, n)
        with pytest.raises(SpaceError):
            rank_predicate_kx_orbit(r, n, 1)


def test_rank_predicates_exact_for_big_integers():
    # beyond float precision (and beyond float range for 10**400)
    a = 10**20 + 12345
    assert rank_predicate_o_orbit(a**3, 3) == (True, a)
    assert rank_predicate_o_orbit(a**3 + 1, 3) == (False, None)
    b = 10**20 + 7
    ok, got, integral = rank_predicate_kx_orbit(2 * b**2, 2, 1)
    assert ok and got == b and integral
    assert not rank_predicate_kx_orbit(2 * b**2 + 2, 2, 1)[0]
    assert rank_predicate_o_orbit(10**400, 2) == (True, 10**200)
    assert rank_predicate_o_orbit(10**400 - 1, 2) == (False, None)


@pytest.mark.parametrize("n", [7, 8, 12, 13])
def test_rank_predicate_kx_large_n_matches_brute_force(n):
    # one divisibility test by n! per call, for every n (12! = 479,001,600)
    from math import factorial

    bound = 3**n * factorial(n)
    sample_rng = random.Random(n)
    for c_x in (1, n + 1):
        valid = _brute_force_kx_ranks(n, c_x, bound)
        sample = set(valid) | {r + d for r in valid for d in (-1, 1)}
        sample |= {sample_rng.randint(-bound, bound) for _ in range(300)}
        sample |= {k * factorial(n) // c_x for k in range(-20, 21)}
        for r in sorted(sample):
            if abs(r) > bound:
                continue
            assert (kx_rank_core(r, n, c_x) is not None) == (r in valid)
            ok, a, _integral = rank_predicate_kx_orbit(r, n, c_x)
            assert ok == (r in valid)
            if ok:
                assert a**n * factorial(n) / c_x == r


def _rational_nth_root(x, n):
    """(ok, a) with a^n = x, a rational; for even n requires x >= 0 and
    returns the nonnegative root."""
    if x == 0:
        return True, Q(0)
    neg = x < 0
    if neg and n % 2 == 0:
        return False, None
    p = _integer_nth_root(abs(x.numerator), n)
    q = _integer_nth_root(x.denominator, n)
    if p is None or q is None:
        return False, None
    a = Q(p, q)
    return True, -a if neg else a


def fraction_path_kx(r, n, c_x):
    """rank_predicate_kx_orbit on Fractions: a^n = r c_X / n! by rational roots."""
    ok, a = _rational_nth_root(Q(r) * c_x / factorial(n), n)
    return (True, a, a.denominator == 1) if ok else (False, None, None)


def test_rank_predicate_kx_integer_path_matches_fraction_path():
    cube = (2**400 + 7) ** 3 * factorial(3)
    extra = [10**6, -(10**6)] + [cube + d for d in (-1, 0, 1)]
    for n in range(1, 7):
        for c_x in (1, n + 1):
            for r in list(range(-3000, 3001)) + extra:
                assert rank_predicate_kx_orbit(r, n, c_x) == fraction_path_kx(r, n, c_x), (r, n, c_x)
    assert rank_predicate_kx_orbit(cube, 3, 1) == (True, 2**400 + 7, True)
    # a non-integral c_X keeps the Fraction path: r = 4 = a^2 2! / (1/8), a = 1/2
    assert rank_predicate_kx_orbit(4, 2, Q(1, 8)) == (True, Q(1, 2), False)
    for r in range(-50, 51):
        assert rank_predicate_kx_orbit(r, 3, Q(3, 4)) == fraction_path_kx(r, 3, Q(3, 4))


def test_rank_predicate_kx_non_integral_c_x_matches_fraction_path():
    # a non-integral c_X takes integer roots of the numerator and denominator
    # of r c_X / n!, against the rational root of the Fraction path
    for n in range(1, 7):
        for c_x in (Q(1, 8), Q(3, 4), Q(5, 2), Q(-7, 3), Q(1, 2) ** n * factorial(n)):
            for r in list(range(-300, 301)) + [2**n * k**n for k in range(1, 30)]:
                assert rank_predicate_kx_orbit(r, n, c_x) == fraction_path_kx(r, n, c_x), (r, n, c_x)


def _examples_around_2_52(test):
    """Explicit examples k^n - 1, k^n and k^n + 1 for the two k with k^n
    nearest 2^52, n = 3..7, where a float estimate of the root stops being
    exact."""
    for n in range(3, 8):
        k = int(2 ** (52 / n))
        for m in (j**n + d for j in (k, k + 1) for d in (-1, 0, 1)):
            test = example(m, n)(test)
    return test


@given(st.integers(min_value=0, max_value=10**60), st.integers(min_value=1, max_value=7))
@settings(max_examples=200, deadline=None)
@_examples_around_2_52
def test_integer_nth_root_matches_sympy(m, n):
    sympy = pytest.importorskip("sympy")
    root, exact = sympy.integer_nthroot(m, n)
    assert _integer_nth_root(m, n) == (int(root) if exact else None)
    assert _integer_nth_root(int(root) ** n, n) == int(root)


def test_in_hat_aut_plus():
    space = ExtMukaiSpace(
        k3n_type(2), ns_sublattice=[[1] + [0] * 22, [0, 1] + [0] * 21, [0] * 22 + [1]]
    )
    lats = k3n_lattices(space)
    lam_ns = [2, 1] + [0] * 20 + [1]  # integral class inside NS
    ok, reasons = in_hat_aut_plus(b_field(space, lam_ns), space, lats)
    assert ok, reasons
    ok, reasons = in_hat_aut_plus(minus_identity(space), space, lats)
    assert ok, reasons
    s10 = ExtMukaiSpace(k3n_type(10))
    l10 = k3n_lattices(s10)
    g = b_field(s10, [Q(0)] * 22 + [Q(1, 3)])
    ok, reasons = in_hat_aut_plus(g, s10, l10)
    assert not ok and not reasons["preserves_lattice"]


def test_ns_must_be_primitive():
    with pytest.raises(SpaceError):
        ExtMukaiSpace(k3n_type(2), ns_sublattice=[[2] + [0] * 22])
    # index 2 in its saturation
    with pytest.raises(SpaceError):
        ExtMukaiSpace(k3n_type(2), ns_sublattice=[[1, 1] + [0] * 21, [1, -1] + [0] * 21])
    # dependent rows
    with pytest.raises(SpaceError):
        ExtMukaiSpace(k3n_type(2), ns_sublattice=[[1] + [0] * 22, [2] + [0] * 22])
    # a non-Hermite basis of a primitive sublattice
    space = ExtMukaiSpace(k3n_type(2), ns_sublattice=[[1, 1] + [0] * 21, [0, 1] + [0] * 21])
    assert len(space.ns_sublattice) == 2
