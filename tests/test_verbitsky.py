import gc
import random
import weakref
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from extmukai.linalg import Mat
from extmukai.spaces import (
    ExtMukaiSpace,
    custom_type,
    k3_surface_type,
    k3n_type,
    kumn_type,
)
from extmukai.verbitsky import (
    SymElement,
    _contractions,
    _exp_pairing_sum,
    _permanent,
    SymError,
    bessel_polynomial_coefficient,
    euler_char_line_bundle,
    integrate,
    integrate_via_pairing,
    laplacian,
    lefschetz_e,
    lefschetz_power_coefficient,
    pair_with_sh,
    pairing_bn,
    project_t,
    psi_monomial,
    restricted_space,
    sqrt_todd_argument,
    sqrt_todd_bar,
    todd_argument,
    todd_bar,
)

rng = random.Random(17)

RANK3 = Mat([[0, 1, 0], [1, 0, 0], [0, 0, -2]])


def rank3_space(n, c_x=1, r_x=None):
    return ExtMukaiSpace(custom_type(n, c_x, Q(n + 3, 4) if r_x is None else r_x, RANK3))


def test_pairing_power_monomials():
    for n in range(1, 7):
        for make in (k3n_type, kumn_type):
            space = ExtMukaiSpace(make(max(n, 2)))
            m = space.dtype.n
            for i in range(m + 1):
                x = SymElement.monomial(space, m, i, (), m - i)
                y = SymElement.monomial(space, m, m - i, (), i)
                assert pairing_bn(x, y) == space.dtype.c_x * factorial(i) * factorial(m - i)


def test_pairing_alpha_isotropic():
    space = rank3_space(3)
    a3 = SymElement.alpha_power(space, 3, normalized=False)
    assert pairing_bn(a3, a3) == 0


def test_pairing_todd_product_example():
    # b_[2](alpha^2/2, (alpha + 2 beta)(alpha + 3 beta)/2) = 3 c_X
    space = rank3_space(2, c_x=Q(7, 3))
    lhs = pairing_bn(
        SymElement.alpha_power(space, 2),
        SymElement.alpha_beta_product(space, 2, [2, 3]),
    )
    assert lhs == 3 * Q(7, 3)


def test_pairing_space_mismatch():
    a = SymElement.alpha_power(rank3_space(2), 2)
    b = SymElement.alpha_power(rank3_space(2), 2)
    with pytest.raises(SymError):
        pairing_bn(a, b)


def test_laplacian_examples():
    for n in (2, 3, 4):
        space = rank3_space(n)
        assert laplacian(SymElement.alpha_power(space, n, normalized=False)).is_zero()
        dx = laplacian(SymElement.monomial(space, n, n - 1, (), 1))
        assert dx.coeffs == {(n - 2, (), 0): Q(-(n - 1))}
        # isotropic lambda: Delta(lambda^n) = 0
        lam = (Q(rng.randint(1, 3)), Q(0), Q(0))  # e of the U block: isotropic
        assert laplacian(psi_monomial(space, [lam] * n)).is_zero()


def test_lefschetz_derivation_and_top():
    space = rank3_space(3)
    n = 3
    w = (Q(1), Q(2), Q(1))
    x = lefschetz_e(w, SymElement.alpha_power(space, n))
    # e_w(alpha^n/n!) = w alpha^{n-1}/(n-1)!
    want = {}
    for i, c in enumerate(w):
        if c:
            want[(n - 1, (i,), 0)] = c / factorial(n - 1)
    assert x.coeffs == want
    # top coefficient of e_w^{2n}(alpha^n/n!) is (2n)!/(2^n n!) b(w,w)^n beta^n
    y = SymElement.alpha_power(space, n)
    for _ in range(2 * n):
        y = lefschetz_e(w, y)
    b = space.bbf(w, w)
    assert y.coeffs == {(0, (), n): Q(factorial(2 * n), 2**n * factorial(n)) * b**n}


def test_bogomolov_relation():
    # e_mu^{n+1}(alpha^n/n!) = 0 for isotropic mu
    for n in (2, 3, 4):
        space = rank3_space(n)
        mu = (Q(0), Q(2), Q(0))
        y = SymElement.alpha_power(space, n)
        for _ in range(n + 1):
            y = lefschetz_e(mu, y)
        assert y.is_zero()


def test_psi_examples():
    space = rank3_space(3)
    assert psi_monomial(space, []).coeffs == {(3, (), 0): Q(1, 6)}
    # psi(lambda^n) = lambda^n for isotropic lambda
    lam = (Q(2), Q(0), Q(0))
    ps = psi_monomial(space, [lam] * 3)
    assert ps.coeffs == {(0, (0, 0, 0), 3 - 3): Q(8)}
    # psi lands in the kernel: 100 random monomials across n <= 4
    for _ in range(100):
        n = rng.randint(2, 4)
        sp = rank3_space(n)
        k = rng.randint(0, 2 * n)
        ws = [tuple(Q(rng.randint(-2, 2)) for _ in range(3)) for _ in range(k)]
        assert laplacian(psi_monomial(sp, ws)).is_zero()
    with pytest.raises(SymError):
        psi_monomial(space, [lam] * 7)


def test_expansion_coefficients_match_paperlike_boundaries():
    # interior coefficients follow j!/((j-2k)! k! 2^k); the Bessel values
    # (m+k)!/((m-k)! k! 2^k) agree exactly at k = 0 and k = j/2 for even j
    for j in range(0, 9):
        m = j // 2
        assert lefschetz_power_coefficient(j, 0) == 1 == bessel_polynomial_coefficient(m, 0)
        if j % 2 == 0:
            assert lefschetz_power_coefficient(j, m) == bessel_polynomial_coefficient(m, m)
    # and they genuinely differ in the middle (recorded discrepancy)
    assert lefschetz_power_coefficient(4, 1) == 6
    assert bessel_polynomial_coefficient(2, 1) == 3


def test_pair_with_sh_q_class_values():
    # b_[n](psi(w^{2n-2i}), alpha^{n-i} beta^i) = c_X (2n-2i)!/2^{n-i} b(w,w)^{n-i}
    for n in (2, 3):
        space = rank3_space(n, c_x=Q(3))
        for i in range(n + 1):
            ab = SymElement.monomial(space, n, n - i, (), i)
            for _ in range(3):
                w = tuple(Q(rng.randint(-2, 2)) for _ in range(3))
                got = pair_with_sh(space, [w] * (2 * n - 2 * i), ab)
                want = Q(3) * Q(factorial(2 * n - 2 * i), 2 ** (n - i)) * space.bbf(w, w) ** (n - i)
                assert got == want


def test_kernel_dimension_on_middle_piece():
    # degree-4 piece of Sym^2 over a rank-3 H^2: 7 monomials (6 quadratic
    # H^2 monomials plus alpha.beta), the contraction has rank 1, so the
    # kernel has dimension 6; cross-checked by independent row reduction
    space = rank3_space(2)
    monos = _degree_monomials(space, 2, 4)
    assert len(monos) == 7
    rows = []
    for key in monos:
        dx = laplacian(SymElement(space, 2, {key: 1}))
        rows.append([dx.coeffs.get((0, (), 0), Q(0))])
    rank = Mat(rows).rank()
    assert rank == 1
    kernel = kernel_piece_basis(space, 2, 4)
    assert len(kernel) == len(monos) - rank == 6


def test_pair_with_sh_degree_mismatch():
    space = rank3_space(2)
    x = SymElement.alpha_power(space, 2)
    val, info = pair_with_sh(space, [(Q(1), Q(0), Q(0))], x, with_detail=True)
    assert val == 0
    assert not info["degree_matched"]
    # empty monomial against the sqrt-Todd argument: c_X r_X^n / n!
    val = pair_with_sh(space, [], sqrt_todd_argument(space))
    assert val == space.dtype.c_x * space.dtype.r_x**2 / 2


def test_project_t_properties():
    space = rank3_space(2, c_x=Q(2))
    x = SymElement.monomial(space, 2, 0, (0,), 1).scale(3) + SymElement.monomial(
        space, 2, 0, (1, 2), 0
    )
    tx = project_t(x)
    assert project_t(tx) == tx
    assert laplacian(tx).is_zero()
    # fixes kernel elements
    ps = psi_monomial(space, [(Q(1), Q(1), Q(1)), (Q(0), Q(2), Q(1))])
    assert project_t(ps) == ps
    # self-adjoint
    y = SymElement.monomial(space, 2, 1, (2,), 0) + SymElement.monomial(space, 2, 0, (), 2)
    assert pairing_bn(project_t(x), y) == pairing_bn(x, project_t(y))


def test_project_t_state_lives_with_its_space():
    full = ExtMukaiSpace(k3n_type(3))
    small = restricted_space(full, [[1, 1] + [0] * 21])
    twin = restricted_space(full, [[1, 1] + [0] * 21])
    tb = todd_bar(small)
    # a result lives on the space of its input, so results stay addable
    assert todd_bar(twin).space is twin
    assert (tb + todd_bar(small)) == tb.scale(2)
    ref = weakref.ref(small)
    del small, tb
    gc.collect()
    assert ref() is None


def test_dropped_space_is_freed_without_the_cycle_collector():
    # projecting leaves no reference cycle through the space, so dropping
    # the space frees it at once
    small = restricted_space(full_space("K3n", 3), [[1, 1] + [0] * 21])
    todd_bar(small)
    sqrt_todd_bar(small)
    ref = weakref.ref(small)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del small
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_sqrt_todd_values():
    # n = 1: T(alpha + beta) = alpha + beta ("1 + pt")
    s1 = restricted_space(ExtMukaiSpace(k3_surface_type()), [])
    st = sqrt_todd_bar(s1)
    assert st.coeffs == {(1, (), 0): Q(1), (0, (), 1): Q(1)}
    # a_2 = r_X at n = 2: pairing with w^2 equals r_X * (q_2 value)
    space = rank3_space(2)
    w = (Q(1), Q(1), Q(0))
    got = pair_with_sh(space, [w] * 2, sqrt_todd_argument(space))
    q2_value = Q(factorial(2), 2) * space.bbf(w, w)
    assert got == space.dtype.r_x * q2_value


def test_todd_values():
    s1 = restricted_space(ExtMukaiSpace(k3_surface_type()), [])
    tb = todd_bar(s1)
    assert tb.coeffs == {(1, (), 0): Q(1), (0, (), 1): Q(2)}
    for make in (k3n_type, kumn_type):
        for n in (2, 3):
            space = restricted_space(ExtMukaiSpace(make(n)), [])
            assert pair_with_sh(space, [], todd_argument(space)) == n + 1


def test_integrate():
    # Fujiki at n = 2: 3 c_X b(w,w)^2
    for make in (k3n_type, kumn_type):
        space = ExtMukaiSpace(make(2))
        w = tuple(Q(rng.randint(-2, 2)) for _ in range(space.b2))
        assert integrate(space, [w] * 4) == 3 * space.dtype.c_x * space.bbf(w, w) ** 2
    # a class orthogonal to all others (including itself) kills the integral
    space = rank3_space(2)
    iso = (Q(1), Q(0), Q(0))
    others = [(Q(1), Q(0), Q(0)), (Q(1), Q(0), Q(0)), (Q(2), Q(0), Q(0))]
    assert integrate(space, [iso] + others) == 0
    # dual-path agreement on 50 random inputs, n <= 3
    for _ in range(50):
        n = rng.randint(1, 3)
        sp = rank3_space(n, c_x=Q(rng.randint(1, 4)))
        ws = [tuple(Q(rng.randint(-2, 2)) for _ in range(3)) for _ in range(2 * n)]
        assert integrate(sp, ws) == integrate_via_pairing(sp, ws)


def test_euler_characteristics():
    # K3 surface: chi(L) = l/2 + 2
    for l in (0, 2, -2, 8, 20):
        sp = ExtMukaiSpace(custom_type(1, 1, 1, Mat([[l]])))
        sp.dtype.family = "K3"
        assert euler_char_line_bundle(sp, (Q(1),)) == Q(l, 2) + 2
    # K3n at n = 2: chi(O) = 3; general l gives l^2/8 + 5l/4 + 3
    space = ExtMukaiSpace(k3n_type(2))
    zero = [Q(0)] * 23
    assert euler_char_line_bundle(space, zero) == 3
    for l in (2, 4, -2, 8):
        lam = [Q(0)] * 23
        lam[0], lam[1] = Q(1), Q(l, 2)
        # binomial formula: chi_2 = binom(chi_1 + 1, 2) = l^2/8 + 5l/4 + 3
        assert euler_char_line_bundle(space, lam) == Q(l * l, 8) + Q(5 * l, 4) + 3
        # sqrt-Todd route: (1 + b/(2 r_X))^n * c_X r_X^n/n! as sampled identity
        got = euler_char_from_sqrt_todd(space, lam)
        r = space.dtype.r_x
        assert got == (1 + Q(l) / (2 * r)) ** 2 * r**2 / 2


def test_restricted_space_agrees_with_full():
    # the restriction computes identical pairings (polynomial identity check)
    space = rank3_space(3, c_x=Q(2))
    for _ in range(10):
        w = tuple(Q(rng.randint(-2, 2)) for _ in range(3))
        small = restricted_space(space, [w])
        arg_small = sqrt_todd_argument(small)
        arg_full = sqrt_todd_argument(space)
        for k in (0, 2, 4):
            assert pair_with_sh(small, [(Q(1),)] * k, arg_small) == pair_with_sh(
                space, [w] * k, arg_full
            )


# -- reference implementations: the subset-DP permanent, the all-pairs
# pairing loop and the Lefschetz chain for psi ---------------------------------


def subset_permanent(rows):
    """Permanent by dynamic programming over column subsets."""
    n = len(rows)
    dp = [Q(0)] * (1 << n)
    dp[0] = Q(1)
    for mask in range(1 << n):
        i = bin(mask).count("1")
        if dp[mask] == 0 or i >= n:
            continue
        for j in range(n):
            if not mask & (1 << j) and rows[i][j] != 0:
                dp[mask | (1 << j)] += dp[mask] * rows[i][j]
    return dp[-1]


def all_pairs_pairing(x, y):
    """b_[n] as a loop over every pair of monomials of x and y."""
    g = x.space.dtype.h2_gram
    total = Q(0)
    for (ax, mx, cx), vx in x.coeffs.items():
        for (ay, my, cy), vy in y.coeffs.items():
            if len(mx) != len(my) or ax != cy or cx != ay:
                continue
            ab = (-1) ** (ax + cx) * factorial(ax) * factorial(cx)
            total += vx * vy * ab * subset_permanent([[g[i, j] for j in my] for i in mx])
    return (-1) ** x.n * x.space.dtype.c_x * total


def chain_psi(space, omegas, n):
    """e_{omega_1} ... e_{omega_k}(alpha^n / n!) as a chain of Lefschetz operators."""
    x = SymElement.alpha_power(space, n)
    for w in reversed(omegas):
        x = lefschetz_e(w, x)
    return x


def psi_pairing(space, monomial, x, with_detail=False):
    """b_SH(m, T(x)) as b_[n](psi(m), x) with psi built in full: the
    pairing that the apolar evaluation of `pair_with_sh` replaced."""
    val = pairing_bn(psi_monomial(space, monomial, n=x.n), x)
    if not with_detail:
        return val
    want = 4 * x.n - 2 * len(monomial)
    matched = all(d == want for d in x.degrees()) if not x.is_zero() else False
    return val, {"degree_matched": matched, "pairing_degree": want}


def euler_char_from_sqrt_todd(space, lam):
    """sum_k (-1)^k / k! b_SH(lam^k, sqrt-Todd argument) in one pass: equals
    (1 + b(lam,lam)/(2 r_X))^n * c_X r_X^n / n! by the exponential identity."""
    return _exp_pairing_sum(space, lam, sqrt_todd_argument)


_FULL = {}


def full_space(family, n):
    if (family, n) not in _FULL:
        _FULL[family, n] = ExtMukaiSpace((k3n_type if family == "K3n" else kumn_type)(n))
    return _FULL[family, n]


small_rationals = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def psi_cases(draw):
    """(space, omega, j, n): full K3[n] / Kum_n with an omega on up to four
    basis entries, or rank-1 / rank-2 restricted spaces of them."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["K3n", "Kumn", "rank1", "rank2"]))
    if kind in ("K3n", "Kumn"):
        space = full_space(kind, n)
        omega = [Q(0)] * space.b2
        for i in draw(st.lists(st.integers(0, space.b2 - 1), min_size=1, max_size=4)):
            omega[i] = draw(small_rationals)
    else:
        full = full_space(draw(st.sampled_from(["K3n", "Kumn"])), n)
        vecs = [
            [draw(st.integers(-2, 2)) if i < 4 else 0 for i in range(full.b2)]
            for _ in range(1 if kind == "rank1" else 2)
        ]
        space = restricted_space(full, vecs)
        omega = [draw(small_rationals) for _ in vecs]
    return space, tuple(omega), draw(st.integers(0, 2 * n)), n


def symmetric_grams(rank):
    size = rank * (rank + 1) // 2
    entries = st.lists(small_rationals, min_size=size, max_size=size)

    def build(vals):
        g = [[Q(0)] * rank for _ in range(rank)]
        it = iter(vals)
        for i in range(rank):
            for j in range(i, rank):
                g[i][j] = g[j][i] = next(it)
        return g

    return entries.map(build)


@given(psi_cases())
@settings(max_examples=60, deadline=None)
def test_psi_of_a_repeated_class_matches_fraction_reference(case):
    space, omega, j, n = case
    got = psi_monomial(space, [omega] * j, n=n)
    assert got.coeffs == reference_psi(space, [omega] * j, n)
    assert got.n == n and got.space is space


@st.composite
def sym_elements(draw, space, n, max_terms=6):
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        k = draw(st.integers(0, n))
        c = draw(st.integers(0, n - k))
        m = tuple(draw(st.lists(st.integers(0, space.b2 - 1), min_size=k, max_size=k)))
        coeffs[(n - k - c, tuple(sorted(m)), c)] = draw(small_rationals)
    return SymElement(space, n, coeffs)


@given(st.data(), st.integers(1, 5), st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_pairing_buckets_match_all_pairs(data, n, rank):
    gram = RANK3 if rank == 3 else Mat(data.draw(symmetric_grams(rank)))
    space = ExtMukaiSpace(custom_type(n, Q(7, 2), Q(1), gram))
    x = data.draw(sym_elements(space, n))
    y = data.draw(sym_elements(space, n))
    assert pairing_bn(x, y) == all_pairs_pairing(x, y)
    # psi against the pairing's own input, as in pair_with_sh
    w = tuple(data.draw(small_rationals) for _ in range(space.b2))
    ps = psi_monomial(space, [w] * data.draw(st.integers(0, 2 * n)), n=n)
    assert pairing_bn(ps, y) == all_pairs_pairing(ps, y)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_multiplicity_permanent_matches_subset_dp(data):
    ncols = data.draw(st.integers(0, 4))
    mult = [data.draw(st.integers(0, 3)) for _ in range(ncols)]
    k = sum(mult)
    entry = st.one_of(st.just(Q(0)), small_rationals)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    distinct_rows = data.draw(st.lists(row, min_size=1, max_size=3))
    rows = [distinct_rows[data.draw(st.integers(0, len(distinct_rows) - 1))] for _ in range(k)]
    full = [[r[j] for j in range(ncols) for _ in range(mult[j])] for r in rows]
    assert _permanent(rows, mult) == subset_permanent(full)


def test_multiplicity_permanent_rank_one():
    # one distinct column taken k times: k! a^k
    for k in range(8):
        assert _permanent([[Q(3, 2)]] * k, [k]) == factorial(k) * Q(3, 2) ** k


# -- references for the filtered psi, the one-pass exponential sum, the
# integer Laplacian matrix and the complementary kernel pieces ----------------


def reference_laplacian(x):
    """Contraction over every pair of positions of each monomial, on the
    Fraction entries of the Gram."""
    g = x.space.dtype.h2_gram
    out = {}
    for (a, m, c), v in x.coeffs.items():
        terms = [((a - 1, m, c - 1), -a * c)] if a and c else []
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                terms.append(((a, m[:i] + m[i + 1 : j] + m[j + 1 :], c), g[m[i], m[j]]))
        for key, b in terms:
            out[key] = out.get(key, Q(0)) + v * b
    return {k: v for k, v in out.items() if v}


def _degree_monomials(space, n, degree):
    """Monomial keys of Sym^n in cohomological degree `degree`."""
    if degree % 2:
        return []
    d = degree // 2
    out = []
    for c in range(min(n, d // 2) + 1):
        k = d - 2 * c
        a = n - k - c
        if a < 0 or k < 0:
            continue
        for m in combinations_with_replacement(range(space.b2), k):
            out.append((a, m, c))
    return out


def kernel_piece_basis(space, n, degree):
    """Basis of ker(Laplacian) in the cohomological-degree piece of Sym^n,
    from the Laplacian matrix of the piece filled in integers straight from
    the contractions of its monomials (`_contractions`)."""
    from extmukai.linalg import kernel_basis

    monos = _degree_monomials(space, n, degree)
    if not monos:
        return []
    img = {k: i for i, k in enumerate(_degree_monomials(space, n - 2, degree - 4))}
    d, g = space.dtype.h2_gram.cleared()
    rows = [[0] * len(monos) for _ in range(len(img) or 1)]  # no image: the zero row
    for j, key in enumerate(monos):
        for k2, e in _contractions(key, g, d):
            rows[img[k2]][j] += e
    return [SymElement(space, n, dict(zip(monos, vec))) for vec in kernel_basis(Mat(rows))]


def reference_kernel_piece(space, n, degree):
    """ker(Laplacian) on a degree piece, one Laplacian per monomial."""
    from extmukai.linalg import kernel_basis

    monos = _degree_monomials(space, n, degree)
    img = _degree_monomials(space, n - 2, degree - 4)
    if not img:
        return [tuple(Q(int(i == j)) for j in range(len(monos))) for i in range(len(monos))]
    rows = [[reference_laplacian(SymElement(space, n, {key: 1})).get(k2, Q(0)) for k2 in img] for key in monos]
    return kernel_basis(Mat(rows).transpose())


def _random_keys(space, n):
    keys = []
    for _ in range(5):
        k = rng.randint(0, n)
        c = rng.randint(0, n - k)
        keys.append((n - k - c, tuple(sorted(rng.randrange(space.b2) for _ in range(k))), c))
    return keys


def per_k_exp_sum(space, lam, argument):
    """sum_k (-1)^k / k! b_[n](psi(lam^k), argument) with the full psi of the
    Lefschetz chain, one pairing per k."""
    n = space.dtype.n
    small = restricted_space(space, [lam])
    arg = argument(small)
    return sum(
        Q((-1) ** k, factorial(k)) * pairing_bn(chain_psi(small, [(Q(1),)] * k, n), arg)
        for k in range(2 * n + 1)
    )


@given(st.data(), st.integers(1, 4), st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_filtered_psi_matches_full_psi(data, n, rank):
    gram = RANK3 if rank == 3 else Mat(data.draw(symmetric_grams(rank)))
    space = ExtMukaiSpace(custom_type(n, Q(5, 3), Q(1), gram))
    # x mixes H^2 monomials with pure alpha-beta ones
    x = data.draw(sym_elements(space, n)) + SymElement.alpha_beta_binomial(space, n, Q(3, 4))
    w = tuple(data.draw(small_rationals) for _ in range(space.b2))
    for j in range(2 * n + 1):
        full = chain_psi(space, [w] * j, n)
        assert pair_with_sh(space, [w] * j, x) == pairing_bn(full, x)
    # and a monomial of two distinct classes
    v = tuple(data.draw(small_rationals) for _ in range(space.b2))
    assert pair_with_sh(space, [w, v], x) == pairing_bn(chain_psi(space, [w, v], n), x)


@pytest.mark.parametrize("family,n", [("K3n", n) for n in range(2, 7)] + [("Kumn", n) for n in range(2, 5)])
def test_one_pass_exp_sum_matches_per_k_loop(family, n):
    space = full_space(family, n)
    rnd = random.Random(n)
    lams = [[0] * space.b2, [1, 0] + [0] * (space.b2 - 2)]  # q = 0: zero and isotropic
    lams += [[rnd.randint(-2, 2) for _ in range(space.b2)] for _ in range(3)]
    lams.append([Q(1, 2), Q(3)] + [0] * (space.b2 - 2))
    for lam in lams:
        assert euler_char_line_bundle(space, lam) == per_k_exp_sum(space, lam, todd_argument)
        assert euler_char_from_sqrt_todd(space, lam) == per_k_exp_sum(space, lam, sqrt_todd_argument)


@pytest.mark.parametrize("gram", [RANK3, Mat([[Q(7, 2), Q(1, 3)], [Q(1, 3), Q(-5, 6)]]), Mat([[Q(2, 9)]])])
def test_integer_laplacian_and_kernel_pieces_match_references(gram):
    # the second and third Grams are non-integral (d = 6 and d = 9)
    for n in range(1, 5):
        space = ExtMukaiSpace(custom_type(n, Q(3), Q(n + 3, 4), gram))
        for degree in range(0, 4 * n + 1, 2):
            got = [tuple(el.coefficient(*key) for key in _degree_monomials(space, n, degree)) for el in kernel_piece_basis(space, n, degree)]
            want = reference_kernel_piece(space, n, degree)
            assert len(got) == len(want)
            if got:
                assert Mat(got).rref() == Mat(want).rref()
        if n >= 2:
            for _ in range(10):
                x = SymElement(space, n)
                x.coeffs = {k: Q(rng.randint(-4, 4), rng.randint(1, 3)) for k in _random_keys(space, n)}
                assert laplacian(x).coeffs == reference_laplacian(x)


@pytest.mark.parametrize("gram", [RANK3, Mat([[Q(7, 2), Q(1, 3)], [Q(1, 3), Q(-5, 6)]])])
def test_project_t_through_complementary_key_matches_fresh_space(gram):
    for n in (2, 3):
        kept = ExtMukaiSpace(custom_type(n, Q(2), Q(1), gram))
        for degree in range(0, 4 * n + 1, 2):
            if 2 * degree >= 4 * n:
                continue
            low, high = _degree_monomials(kept, n, degree), _degree_monomials(kept, n, 4 * n - degree)
            x_low = SymElement(kept, n, {k: Q(i + 1, 2) for i, k in enumerate(low)})
            project_t(x_low)  # a projection in the complementary degree first
            fresh = ExtMukaiSpace(custom_type(n, Q(2), Q(1), gram))
            coeffs = {k: Q(3 - i, 5) for i, k in enumerate(high)}
            got = project_t(SymElement(kept, n, coeffs))
            want = project_t(SymElement(fresh, n, coeffs))
            assert got.coeffs == want.coeffs
            assert laplacian(got).is_zero() and project_t(got) == got


def test_non_integral_gram_restricted_space():
    # a restricted space of half-integral vectors has an H^2 Gram with d > 1
    full = full_space("K3n", 3)
    small = restricted_space(full, [[Q(1, 2), Q(1, 3)] + [0] * 21, [0, 0, Q(1, 2), 1] + [0] * 19])
    assert small.dtype.h2_gram.denominator_lcm() > 1
    small.dtype.family = "K3n"
    for bar, arg in ((sqrt_todd_bar, sqrt_todd_argument), (todd_bar, todd_argument)):
        tb = bar(small)
        assert laplacian(tb).is_zero() and project_t(tb) == tb
        for w in ((Q(1), Q(0)), (Q(2, 3), Q(-1))):
            for j in range(0, 7):
                # b_SH(w^j, T(x)) = b_[n](psi(w^j), x) for the kernel element tb
                assert pair_with_sh(small, [w] * j, tb) == all_pairs_pairing(chain_psi(small, [w] * j, 3), tb)
                assert pair_with_sh(small, [w] * j, arg(small)) == all_pairs_pairing(chain_psi(small, [w] * j, 3), arg(small))


# -- the integer representation: canonical form, round trip, and the kernels
# against Fraction references on non-integral Grams ---------------------------

NON_INTEGRAL_GRAMS = [Mat([[Q(7, 2), Q(1, 3)], [Q(1, 3), Q(-5, 6)]]), Mat([[Q(2, 9)]])]  # d = 6, 9


def assert_canonical(x):
    """One stored form: den > 0, integer numerators, none zero, gcd 1 with den."""
    den, nums = x._denom, x._nums
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in nums.values())
    assert gcd(den, *nums.values()) == 1
    assert all(a + len(m) + c == x.n and list(m) == sorted(m) for a, m, c in nums)


@given(st.data(), st.integers(1, 4), st.sampled_from([0, 1, 2]))
@settings(max_examples=60, deadline=None)
def test_integer_representation_round_trip(data, n, which):
    gram = [RANK3, *NON_INTEGRAL_GRAMS][which]
    space = ExtMukaiSpace(custom_type(n, Q(5, 2), Q(1), gram))
    x = data.draw(sym_elements(space, n))
    y = data.draw(sym_elements(space, n))
    w = tuple(data.draw(small_rationals) for _ in range(space.b2))
    made = [x, x + y, x - x, x.scale(data.draw(small_rationals)), x.scale(0), lefschetz_e(w, x)]
    made += list(x.degree_pieces().values())
    if n >= 2:
        made.append(laplacian(x))
    for el in made:
        assert_canonical(el)
        assert SymElement(space, el.n, el.coeffs) == el
        assert all(type(v) is Q for v in el.coeffs.values())
    assert (x - x).is_zero() and (x - x)._denom == 1


def reference_lefschetz(space, omega, coeffs):
    """e_omega on Fraction coefficients, one term per position of each
    monomial, with the pairings b(omega, e_i) from the Fraction Gram."""
    g = space.dtype.h2_gram
    gomega = [sum(g[i, j] * omega[j] for j in range(space.b2)) for i in range(space.b2)]
    out = {}
    for (a, m, c), v in coeffs.items():
        terms = [((a - 1, tuple(sorted(m + (i,))), c), a * omega[i]) for i in range(space.b2)] if a else []
        terms += [((a, m[:p] + m[p + 1 :], c + 1), gomega[m[p]]) for p in range(len(m))]
        for key, t in terms:
            out[key] = out.get(key, Q(0)) + v * t
    return {k: v for k, v in out.items() if v}


def reference_psi(space, omegas, n):
    coeffs = {(n, (), 0): Q(1, factorial(n))}
    for w in reversed(omegas):
        coeffs = reference_lefschetz(space, w, coeffs)
    return coeffs


@given(st.data(), st.integers(1, 4), st.sampled_from(NON_INTEGRAL_GRAMS))
@settings(max_examples=60, deadline=None)
def test_lefschetz_and_psi_match_fraction_reference(data, n, gram):
    space = ExtMukaiSpace(custom_type(n, Q(3), Q(n + 3, 4), gram))
    w = tuple(data.draw(small_rationals) for _ in range(space.b2))
    v = tuple(data.draw(small_rationals) for _ in range(space.b2))
    x = data.draw(sym_elements(space, n))
    assert lefschetz_e(w, x).coeffs == reference_lefschetz(space, w, x.coeffs)
    j = data.draw(st.integers(0, 2 * n))
    assert psi_monomial(space, [w] * j, n=n).coeffs == reference_psi(space, [w] * j, n)  # a repeated class
    mixed = [w, v] + [w] * data.draw(st.integers(0, 2 * n - 2))
    assert psi_monomial(space, mixed, n=n).coeffs == reference_psi(space, mixed, n)  # two distinct classes


def reference_project_t(x):
    """T(x) from the reference kernel pieces, the all-pairs pairing and one
    solve per degree piece, in Fractions; a singular cross Gram raises."""
    from extmukai.linalg import solve_linear

    space, n = x.space, x.n
    out = {}
    for degree in x.degrees():
        piece = x.degree_piece(degree)
        monos, dual_monos = _degree_monomials(space, n, degree), _degree_monomials(space, n, 4 * n - degree)
        kernel = [SymElement(space, n, dict(zip(monos, u))) for u in reference_kernel_piece(space, n, degree)]
        dual = [SymElement(space, n, dict(zip(dual_monos, u))) for u in reference_kernel_piece(space, n, 4 * n - degree)]
        if not kernel:
            continue
        gram = Mat([[all_pairs_pairing(u, t) for t in kernel] for u in dual])
        if gram.det() == 0:
            raise SymError("degenerate pairing on a kernel piece")
        cfs = solve_linear(gram, [all_pairs_pairing(u, piece) for u in dual])
        for cf, t in zip(cfs, kernel):
            for k, c in t.coeffs.items():
                out[k] = out.get(k, Q(0)) + cf * c
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("gram", [RANK3] + NON_INTEGRAL_GRAMS)
def test_project_t_on_rational_input_matches_reference(gram):
    rnd = random.Random(23)
    for n in (2, 3):
        space = ExtMukaiSpace(custom_type(n, Q(2, 3), Q(1), gram))
        for _ in range(4):
            x = SymElement(space, n, {k: Q(rnd.randint(-5, 5), rnd.randint(1, 6)) for k in _random_keys(space, n)})
            x = x + SymElement.alpha_beta_binomial(space, n, Q(rnd.randint(-3, 3), rnd.randint(1, 4)))
            tx = project_t(x)
            assert_canonical(tx)
            assert tx.coeffs == reference_project_t(x)


@given(st.data(), st.integers(1, 5), st.sampled_from([1, 2, Mat([[0]]), Mat([[1, 1], [1, 1]]), Mat([])]))
@settings(max_examples=80, deadline=None)
def test_project_t_matches_reference_and_raises_alike(data, n, gram):
    # the closed form against the kernel pieces and cross Grams of the
    # reference, on random rational Grams of rank 1 and 2 (possibly
    # singular), two singular Grams and b_2 = 0: equal results, and SymError
    # on the same inputs
    if isinstance(gram, int):
        gram = Mat(data.draw(symmetric_grams(gram)))
    space = ExtMukaiSpace(custom_type(n, Q(3, 2), Q(1), gram))
    x = SymElement.alpha_beta_binomial(space, n, data.draw(small_rationals))
    if space.b2:
        x = x + data.draw(sym_elements(space, n, max_terms=4))
    try:
        want = reference_project_t(x)
    except SymError:
        with pytest.raises(SymError):
            project_t(x)
    else:
        assert project_t(x).coeffs == want


def test_project_t_on_full_k3n():
    # b_2 = 23: sparse x and y, the Todd argument and psi against both
    space = full_space("K3n", 2)
    rnd = random.Random(31)

    def sparse():
        keys = [(rnd.randint(0, 2 - k), tuple(sorted(rnd.randrange(23) for _ in range(k)))) for k in (0, 1, 2, 2)]
        return SymElement(space, 2, {(a, m, 2 - a - len(m)): Q(rnd.randint(-3, 3), rnd.randint(1, 2)) for a, m in keys})

    for _ in range(3):
        x, y = sparse(), sparse()
        tx, ty = project_t(x), project_t(y)
        assert laplacian(tx).is_zero() and project_t(tx) == tx
        assert pairing_bn(tx, y) == pairing_bn(x, ty)
    tb = todd_bar(space)
    assert laplacian(tb).is_zero()
    w = tuple(Q(rnd.randint(-2, 2)) for _ in range(23))
    for j in range(5):
        assert pair_with_sh(space, [w] * j, tb) == pair_with_sh(space, [w] * j, todd_argument(space))


def test_project_t_returns_a_new_element():
    space = rank3_space(2)
    for x in (psi_monomial(space, [(Q(1), Q(1), Q(1)), (Q(0), Q(2), Q(1))]), SymElement.alpha_power(space, 2)):
        before = x.coeffs
        tx = project_t(x)
        assert tx == x and tx is not x
        tx.coeffs = {(0, (), 2): 1}
        assert x.coeffs == before


# -- the apolar evaluation of pair_with_sh against the psi-building pairing ------

APOLAR_GRAMS = ["rank1", "rank2", RANK3, Mat([[0]]), Mat([[1, 1], [1, 1]]), Mat([])]


@st.composite
def apolar_cases(draw):
    """(space, monomial, x): random rational or singular Grams and b_2 = 0;
    k = 0 ... 2n + 1 classes drawn from a pool of up to three, so repeated,
    mixed and partly repeated; x with monomials of every degree; now and then
    a class of the wrong length or an x on a twin space."""
    n = draw(st.integers(1, 4))
    gram = draw(st.sampled_from(APOLAR_GRAMS))
    if isinstance(gram, str):
        gram = Mat(draw(symmetric_grams(int(gram[-1]))))
    make = lambda: ExtMukaiSpace(custom_type(n, draw(small_rationals.filter(lambda q: q > 0)), Q(1), gram))
    space = make()
    x_space = make() if draw(st.integers(0, 9)) == 0 else space
    x = SymElement.alpha_beta_binomial(x_space, n, draw(small_rationals))
    if space.b2:
        x = x + draw(sym_elements(x_space, n, max_terms=5))
    pool = [tuple(draw(small_rationals) for _ in range(space.b2)) for _ in range(draw(st.integers(1, 3)))]
    k = draw(st.integers(0, 2 * n + 1 if draw(st.integers(0, 9)) == 0 else 2 * n))
    monomial = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(k)]
    if monomial and draw(st.integers(0, 9)) == 0:
        monomial[0] = monomial[0] + (Q(1),)
    return space, monomial, x


@given(apolar_cases())
@settings(max_examples=300, deadline=None)
def test_pair_with_sh_matches_psi_pairing(case):
    space, monomial, x = case
    try:
        want = psi_pairing(space, monomial, x, with_detail=True)
    except SymError as err:
        with pytest.raises(SymError) as got:
            pair_with_sh(space, monomial, x)
        assert str(got.value) == str(err)
        return
    assert pair_with_sh(space, monomial, x, with_detail=True) == want
    assert want[0] == pairing_bn(chain_psi(space, monomial, x.n), x)


def test_pair_with_sh_every_k_on_full_k3n():
    # dense classes on b_2 = 23 against the Todd bar: one class, two mixed
    # classes and a partly repeated triple, for every k <= 2n
    space = full_space("K3n", 2)
    rnd = random.Random(41)
    tb = todd_bar(space)
    u, v, w = ([Q(rnd.randint(-2, 2), rnd.randint(1, 2)) for _ in range(23)] for _ in range(3))
    for k in range(5):
        for monomial in ([u] * k, ([u, v] * k)[:k], ([u, u, v, w] * k)[:k]):
            assert pair_with_sh(space, monomial, tb) == psi_pairing(space, monomial, tb)


def binom(x, n):
    """The generalized binomial coefficient x (x - 1) ... (x - n + 1) / n!."""
    return prod(x - i for i in range(n)) / factorial(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_euler_char_closed_forms(n):
    # chi(L) = binom(q/2 + n + 1, n) on K3[n] (Ellingsrud-Goettsche-Lehn) and
    # (n + 1) binom(q/2 + n, n) on Kum_n (Britze-Nieper-Wisskirchen), q = b(lam, lam)
    rnd = random.Random(n)
    for family, chi in (("K3n", lambda h: binom(h + n + 1, n)), ("Kumn", lambda h: (n + 1) * binom(h + n, n))):
        space = full_space(family, n)
        for _ in range(4):
            lam = [Q(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in range(space.b2)]
            assert euler_char_line_bundle(space, lam) == chi(space.bbf(lam, lam) / 2)
    custom = ExtMukaiSpace(custom_type(n, 1, 1, RANK3))
    with pytest.raises(SymError, match="no Todd formula"):
        euler_char_line_bundle(custom, (Q(1), Q(0), Q(0)))
