import ast
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import extmukai
from extmukai.linalg import (
    Mat,
    congruence_diagonalize,
    hnf_row_basis,
    identity_plus_outer,
    integer_kernel_basis,
    kept,
    kernel_basis,
    product,
    saturation_basis,
    smith_normal_form,
    solve_linear,
)
from extmukai.spaces import ExtMukaiSpace, custom_type, k3n_lattices, k3n_type, kumn_type


def test_smith_already_diagonal():
    m = Mat([[2, 0], [0, 0]])
    u, d, v = smith_normal_form(m)
    assert d == Mat([[2, 0], [0, 0]])
    assert u * m * v == d


def test_smith_unimodular_input():
    u, d, v = smith_normal_form(Mat([[0, 1], [1, 0]]))
    assert d == Mat.identity(2)


def test_smith_rank_one_negative():
    # Gram of <2-2n> at n = 3
    u, d, v = smith_normal_form(Mat([[-4]]))
    assert d == Mat([[4]])
    assert u * Mat([[-4]]) * v == d


def test_smith_requires_integrality():
    with pytest.raises(ValueError):
        smith_normal_form(Mat([[Q(1, 2)]]))


int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(int_matrices)
@settings(max_examples=60, deadline=None)
def test_smith_properties(rows):
    m = Mat(rows)
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    k = min(d.rows, d.cols)
    diag = [d[i, i] for i in range(k)]
    assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(3)) == []


def test_kernel_zero_matrix():
    ker = kernel_basis(Mat.zero(2, 3))
    assert len(ker) == 3


def test_kernel_annihilates_and_counts():
    rng = random.Random(0)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Mat([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        ker = kernel_basis(m)
        assert len(ker) == c - m.rank()
        for v in ker:
            assert all(x == 0 for x in m.apply(v))


def test_solve_identity_and_inconsistent():
    assert solve_linear(Mat.identity(3), (Q(1), Q(2), Q(3))) == (Q(1), Q(2), Q(3))
    assert solve_linear(Mat([[1], [1]]), (Q(0), Q(1))) is None


def test_solve_substitutes_back():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        x0 = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
        b = m.apply(x0)
        x = solve_linear(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_operations_are_pure():
    m = Mat([[6, 4], [2, 0]])
    assert smith_normal_form(m) == smith_normal_form(m)
    assert kernel_basis(m) == kernel_basis(m)


def test_hnf_and_saturation():
    rows = [[2, 4, 0], [0, 6, 0]]
    basis = hnf_row_basis(rows)
    # spans the same subgroup
    assert len(basis) == 2
    sat = saturation_basis(rows)
    assert len(sat) == 2
    # saturation contains [1, 2, 0] (half of the first generator)
    m = Mat([[Q(c) for c in r] for r in sat]).transpose()
    assert solve_linear(m, (Q(1), Q(2), Q(0))) is not None


def test_integer_kernel_is_saturated():
    m = Mat([[2, 4, 6]])
    ker = integer_kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert all(c.denominator == 1 for c in v)
        assert sum(a * b for a, b in zip(m.row(0), v)) == 0


# -- the integer Gram form against plain Fraction sums ------------------------

rationals = st.one_of(
    st.just(Q(0)),
    st.integers(min_value=-6, max_value=6).map(Q),
    st.builds(Q, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=12)),
)


def vectors(n):
    """Mixed plain-int / Fraction vectors of length n."""
    return st.lists(
        st.one_of(st.integers(min_value=-9, max_value=9), rationals), min_size=n, max_size=n
    )


small_rationals = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)),
)


@st.composite
def matrices(draw, rows=None, cols=None, entries=rationals):
    r = rows if rows is not None else draw(st.integers(min_value=1, max_value=5))
    c = cols if cols is not None else draw(st.integers(min_value=1, max_value=5))
    m = [draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)]
    for i in draw(st.sets(st.integers(min_value=0, max_value=r - 1), max_size=r)):
        m[i] = [Q(0)] * c  # zero rows
    return m


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_bilinear_matches_fraction_sum(data):
    m = data.draw(matrices())
    x = data.draw(vectors(len(m)))
    y = data.draw(vectors(len(m[0])))
    want = sum(
        (Q(x[i]) * m[i][j] * Q(y[j]) for i in range(len(m)) for j in range(len(m[0]))),
        Q(0),
    )
    mat = Mat(m)
    got = mat.bilinear(x, y)
    assert isinstance(got, Q) and got == want
    assert mat.bilinear(x, y) == want  # a second call gives the same value


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_apply_matches_fraction_sum(data):
    m = data.draw(matrices())
    v = data.draw(vectors(len(m[0])))
    want = tuple(sum((a * Q(b) for a, b in zip(row, v)), Q(0)) for row in m)
    got = Mat(m).apply(v)
    assert got == want
    assert all(isinstance(c, Q) for c in got)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_matmul_matches_fraction_sum(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=len(a[0])))
    want = [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]
    prod = Mat(a) * Mat(b)
    assert prod == Mat(want)
    # every Mat is canonical, products included: a product equals, and hashes
    # like, a fresh Mat of its entries (chains of three products over
    # denominators 1-6 with zero rows, and a product that comes out zero)
    x = Mat(data.draw(matrices(entries=small_rationals)))
    y = Mat(data.draw(matrices(rows=x.cols, entries=small_rationals)))
    z = Mat(data.draw(matrices(rows=y.cols, entries=small_rationals)))
    products = [prod, x * y, (x * y) * z, x * (y * z)]
    ker = kernel_basis(x)
    if ker:
        products.append(x * Mat.from_columns(ker))
        assert products[-1] == Mat.zero(x.rows, len(ker))
    assert products[2] == products[3]
    for p in products:
        assert p == Mat(p.entries())
        assert hash(p) == hash(Mat(p.entries()))


def _sparse_rational_rows(rng, r, c):
    """An r x c rational matrix with denominators up to 6, about a third of
    its entries zero, and some whole rows and columns zeroed."""
    m = [[Q(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6))) if rng.random() < 0.7 else Q(0)
          for _ in range(c)] for _ in range(r)]
    for i in rng.sample(range(r), rng.randint(0, r // 2)):
        m[i] = [Q(0)] * c
    for j in rng.sample(range(c), rng.randint(0, c // 2)):
        for row in m:
            row[j] = Q(0)
    return m


def test_int_product_apply_bilinear_match_fraction_reference():
    rng = random.Random(12)
    seen = set()
    for _ in range(400):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        m = _sparse_rational_rows(rng, r, c)
        mat = Mat(m) if r else Mat.zero(0, c)
        assert (mat.rows, mat.cols) == (r, c)
        x = [rng.choice((0, rng.randint(-5, 5), Q(rng.randint(-5, 5), rng.randint(1, 4))))
             for _ in range(r)]
        y = [rng.choice((0, rng.randint(-5, 5), Q(rng.randint(-5, 5), rng.randint(1, 4))))
             for _ in range(c)]
        want = tuple(sum((m[i][j] * y[j] for j in range(c)), Q(0)) for i in range(r))
        d = mat.denominator_lcm()
        e, yi, my = mat.int_product(y)
        assert all(type(t) is int for t in yi + my) and len(my) == r
        assert tuple(Q(t, e) for t in yi) == tuple(map(Q, y))
        assert tuple(Q(t, d * e) for t in my) == want
        got = mat.apply(y)
        assert got == want and all(type(t) is Q for t in got)
        assert mat.bilinear(x, y) == sum((a * b for a, b in zip(x, want)), Q(0))
        assert mat.nonzero_columns() == tuple(
            tuple((i, m[i][j] * d) for i in range(r) if m[i][j]) for j in range(c)
        )
        with pytest.raises(ValueError):
            mat.int_product(y + [1])
        seen.add("square" if r == c else "non-square")
        seen.update(
            label
            for label, hit in (
                ("d > 1", d > 1),
                ("no rows", r == 0),
                ("no columns", c == 0),
                ("zero row", c and any(not any(row) for row in m)),
                ("zero column", r and any(not any(row[j] for row in m) for j in range(c))),
                ("non-symmetric", r == c and not mat.is_symmetric()),
            )
            if hit
        )
    assert len(seen) == 8


def test_product_matches_pairwise_products():
    # product(a, b, c) canonicalises once; it must equal (a * b) * c, keep
    # shapes with no rows or no columns, and refuse a shape mismatch
    rng = random.Random(31)
    for _ in range(200):
        r, k, l, c = (rng.randint(0, 5) for _ in range(4))
        a, b, cc = (Mat(_sparse_rational_rows(rng, x, y)) if x else Mat.zero(0, y)
                    for x, y in ((r, k), (k, l), (l, c)))
        got = product(a, b, cc)
        assert got == (a * b) * cc == a * (b * cc)
        assert (got.rows, got.cols) == (r, c)
        if r:
            assert got == Mat(got.entries()) and hash(got) == hash(Mat(got.entries()))
        assert product(a) == a and product(a, b) == a * b
    assert product(Mat.zero(2, 0), Mat.zero(0, 3), Mat.identity(3)) == Mat.zero(2, 3)
    assert product(Mat.zero(0, 2), Mat.identity(2), Mat.zero(2, 4)) == Mat.zero(0, 4)
    for mats in ((Mat.identity(2), Mat.identity(3)), (Mat.identity(2), Mat.identity(2), Mat.zero(3, 1))):
        with pytest.raises(ValueError):
            product(*mats)


def _outer_reference(n, terms):
    """I + sum of u w^T / d, entry by entry in Fractions."""
    m = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for d, u, w in terms:
        for i in range(n):
            for j in range(n):
                m[i][j] += Q(u[i] * w[j], d)
    return Mat(m)


def test_identity_plus_outer_matches_fraction_reference():
    # terms that touch overlapping rows, a zero u, an all-dense u, and
    # denominators that do and do not cancel
    rng = random.Random(32)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        terms = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("sparse", "zero", "dense"))
            u = [0] * n if kind == "zero" else [
                rng.randint(1, 9) * rng.choice((1, -1)) if kind == "dense" or rng.random() < 0.4 else 0
                for _ in range(n)]
            w = [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(n)]
            terms.append((rng.choice((1, 2, 3, 4, 6, 12, -2, -6)), u, w))
            seen.add(kind)
        got = identity_plus_outer(n, terms)
        assert got == _outer_reference(n, terms)
        assert got == Mat(got.entries()) and hash(got) == hash(Mat(got.entries()))
        touched = [{i for i in range(n) if u[i]} for _, u, _ in terms]
        if any(s & t for k, s in enumerate(touched) for t in touched[:k]):
            seen.add("overlapping rows")
    assert seen == {"sparse", "zero", "dense", "overlapping rows"}
    assert identity_plus_outer(4, []) == Mat.identity(4)


def test_entries_match_per_entry_fractions():
    # one Fraction per distinct value must read out as Fraction(x, d) per
    # entry: integral matrices, d > 1, and 200-bit entries
    rng = random.Random(33)
    for _ in range(100):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        bits = rng.choice((3, 200))
        den = rng.choice((1, 1, 2, 6, 2**199 + 1))
        m = [[Q(rng.getrandbits(bits) - rng.getrandbits(bits), den) if rng.random() < 0.6 else Q(0)
              for _ in range(c)] for _ in range(r)]
        mat = Mat(m) if r else Mat.zero(0, c)
        d, ints = mat.cleared()
        got = mat.entries()
        assert got == tuple(tuple(Q(x, d) for x in row) for row in ints)
        assert got == tuple(map(tuple, m))
        assert all(type(x) is Q for row in got for x in row)


def test_empty_matrices_keep_their_shape():
    for r, c in ((0, 5), (5, 0), (0, 0)):
        z = Mat.zero(r, c)
        assert (z.rows, z.cols) == (r, c)
        assert (z.transpose().rows, z.transpose().cols) == (c, r)
        assert z.transpose().transpose() == z
        assert z.apply([0] * c) == (0,) * r
    assert Mat.zero(0, 5) != Mat.zero(0, 3)
    assert len({Mat.zero(0, 5), Mat.zero(0, 3), Mat.zero(0, 5).transpose().transpose()}) == 2
    assert Mat.zero(2, 0) * Mat.zero(0, 3) == Mat.zero(2, 3)
    assert (Mat.zero(0, 2) * Mat.identity(2)).cols == 2
    assert Mat.zero(0, 4).rref()[0] == Mat.zero(0, 4)


def test_bilinear_shape_mismatch():
    with pytest.raises(ValueError):
        Mat.identity(3).bilinear((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        Mat.identity(3).bilinear((1, 2, 3), (1, 2))


# -- congruence diagonalisation ------------------------------------------------


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(rationals)
    return m


@given(symmetric_matrices())
@settings(max_examples=80, deadline=None)
def test_congruence_diagonalize_is_a_congruence(m):
    g = Mat(m)
    diag, t = congruence_diagonalize(g)
    assert t * g * t.transpose() == Mat.diagonal(diag)
    assert t.det() != 0


def test_congruence_diagonalize_zero_diagonal_and_zero_block():
    # no nonzero diagonal entry: the first off-diagonal pair is folded in
    g = Mat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    diag, t = congruence_diagonalize(g)
    assert t * g * t.transpose() == Mat.diagonal(diag)
    assert sorted(diag) == [Q(-1, 2), 0, 2]


def _sympy_inertia(sympy, m):
    """(positive, negative) eigenvalue counts of a rational symmetric matrix:
    Descartes' rule of signs is exact on its real-rooted characteristic
    polynomial."""
    coeffs = sympy.Matrix(m).charpoly().all_coeffs()
    while coeffs and coeffs[-1] == 0:  # factor out the zero eigenvalues
        coeffs.pop()

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    neg = changes([c * (-1) ** k for k, c in enumerate(reversed(coeffs))][::-1])
    return changes(coeffs), neg


@given(symmetric_matrices())
@settings(max_examples=60, deadline=None)
def test_congruence_inertia_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    diag, _ = congruence_diagonalize(Mat(m))
    got = (sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0))
    assert got == _sympy_inertia(sympy, [[sympy.Rational(a.numerator, a.denominator) for a in r] for r in m])


def reference_congruence_diagonalize(gram):
    """The symmetric elimination on Fractions: the Gram's entries, with T
    carried alongside; pivots as in `congruence_diagonalize`."""
    n = gram.rows
    m = [list(r) for r in gram.entries()]
    trans = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for step in range(n):
        p = next((i for i in range(step, n) if m[i][i] != 0), None)
        if p is None:
            pair = next(
                ((i, j) for i in range(step, n) for j in range(i + 1, n) if m[i][j] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            trans[i] = [a + b for a, b in zip(trans[i], trans[j])]
            p = i
        if p != step:
            m[step], m[p] = m[p], m[step]
            for row in m:
                row[step], row[p] = row[p], row[step]
            trans[step], trans[p] = trans[p], trans[step]
        d = m[step][step]
        for i in range(step + 1, n):
            if m[i][step] != 0:
                f = m[i][step] / d
                for k in range(n):
                    m[i][k] -= f * m[step][k]
                for k in range(n):
                    m[k][i] -= f * m[k][step]
                trans[i] = [a - f * b for a, b in zip(trans[i], trans[step])]
    return [m[i][i] for i in range(n)], Mat(trans)


def _assert_same_diagonalisation(gram):
    diag, t = congruence_diagonalize(gram)
    want_diag, want_t = reference_congruence_diagonalize(gram)
    assert diag == want_diag and all(type(d) is Q for d in diag)
    assert t == want_t


@given(symmetric_matrices())
@settings(max_examples=80, deadline=None)
def test_congruence_diagonalize_matches_fraction_reference(m):
    _assert_same_diagonalisation(Mat(m))


def _named_grams():
    grams = {"Kum3": ExtMukaiSpace(kumn_type(3)).gram}
    for n in (2, 3, 5, 10):
        space = ExtMukaiSpace(k3n_type(n))
        lats = k3n_lattices(space)
        grams["K3n-%d" % n] = space.gram
        grams.update({"%s-%d" % (lat.name, n): lat.gram for lat in (lats.lam, lats.lam_g, lats.lam_s)})
    # b2 = 0: the hyperbolic corner alone
    grams["b2-0"] = ExtMukaiSpace(custom_type(1, 1, 1, Mat([]))).gram
    grams["zero-1x1"] = Mat([[0]])
    grams["zero-4x4"] = Mat.zero(4, 4)
    grams["zero-diagonal"] = Mat([[0, Q(1, 2), 3, 0], [Q(1, 2), 0, 0, -1], [3, 0, 0, 2], [0, -1, 2, 0]])
    grams["zero-diagonal-zero-block"] = Mat([[0, 0, 5], [0, 0, 0], [5, 0, 0]])
    return grams


NAMED_GRAMS = _named_grams()


@pytest.mark.parametrize("name", list(NAMED_GRAMS))
def test_congruence_diagonalize_matches_reference_on_named_grams(name):
    _assert_same_diagonalisation(NAMED_GRAMS[name])


def test_congruence_diagonalize_reads_no_fraction(monkeypatch):
    # runs on the stored integer rows: the Fraction read-outs may all fail
    gram = ExtMukaiSpace(k3n_type(3)).gram
    want = reference_congruence_diagonalize(gram)

    def refuse(*args):
        raise AssertionError("Fraction read-out")

    for name in ("entries", "row", "__getitem__"):
        monkeypatch.setattr(Mat, name, refuse)
    got = congruence_diagonalize(gram)
    monkeypatch.undo()
    assert got == want


# -- integer normal forms, rank and det against sympy ---------------------------


def _sympy_matrix(sympy, rows):
    return sympy.Matrix([[sympy.Rational(Q(a).numerator, Q(a).denominator) for a in r] for r in rows])


def _sympy_invariants(sympy, rows):
    """Nonzero Smith invariants of the integer row span, from sympy."""
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith

    if not any(any(r) for r in rows):
        return []
    d = sympy_smith(sympy.Matrix(rows), domain=sympy.ZZ)
    return sorted(abs(d[i, i]) for i in range(min(d.shape)) if d[i, i])


@given(int_matrices)
@settings(max_examples=60, deadline=None)
def test_smith_normal_form_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    m = Mat(rows)
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    got = [d[i, i] for i in range(min(m.rows, m.cols))]
    want = _sympy_invariants(sympy, rows)
    assert got == want + [0] * (len(got) - len(want))


@given(int_matrices)
@settings(max_examples=60, deadline=None)
def test_hnf_row_basis_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    basis = hnf_row_basis(rows)
    assert len(basis) == sympy.Matrix(rows).rank()
    # the row span, the basis span and the span of both have equal invariants:
    # each of the first two is then of index 1 in the third, so all agree
    inv = _sympy_invariants(sympy, rows)
    assert _sympy_invariants(sympy, basis) == inv
    assert _sympy_invariants(sympy, [list(r) for r in rows] + basis) == inv


def test_hnf_row_basis_is_the_canonical_form():
    # echelon rows, positive pivots, entries in [0, pivot) above each pivot:
    # the Hermite form is unique, so equal spans give equal bases
    rng = random.Random(9)
    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        basis = hnf_row_basis(rows)
        pivots = [next(j for j, x in enumerate(v) if x) for v in basis]
        assert pivots == sorted(set(pivots))
        for i, (v, p) in enumerate(zip(basis, pivots)):
            assert v[p] > 0
            assert all(0 <= w[p] < v[p] for w in basis[:i]), (rows, basis)
        assert hnf_row_basis(basis + rows[::-1]) == basis


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rank_and_det_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    m = data.draw(matrices())
    assert Mat(m).rank() == _sympy_matrix(sympy, m).rank()
    n = data.draw(st.integers(min_value=1, max_value=5))
    sq = data.draw(matrices(rows=n, cols=n))
    assert Mat(sq).det() == _sympy_matrix(sympy, sq).det()


# -- the elimination kernels against sympy --------------------------------------


@st.composite
def eliminable(draw, square=False):
    """Rational matrices up to 5 x 6, with zero rows and, half the time with
    three rows or more, a last row that is a combination of the first two."""
    r = draw(st.integers(min_value=1, max_value=5))
    c = r if square else draw(st.integers(min_value=1, max_value=6))
    m = draw(matrices(rows=r, cols=c))
    if r >= 3 and draw(st.booleans()):
        a, b = draw(rationals), draw(rationals)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def _from_sympy(mat):
    return Mat([[Q(int(x.p), int(x.q)) for x in mat.row(i)] for i in range(mat.rows)])


@given(eliminable())
@settings(max_examples=80, deadline=None)
def test_rref_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    r, pivots = Mat(m).rref()
    want, want_pivots = _sympy_matrix(sympy, m).rref()
    assert pivots == tuple(want_pivots)
    assert r == _from_sympy(want)


@given(eliminable(square=True))
@settings(max_examples=80, deadline=None)
def test_inverse_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    s = _sympy_matrix(sympy, m)
    if s.det() == 0:
        with pytest.raises(ValueError):
            Mat(m).inverse()
    else:
        assert Mat(m).inverse() == _from_sympy(s.inv())


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_solve_linear_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    m = data.draw(eliminable())
    a = Mat(m)
    if data.draw(st.booleans()):
        b = a.apply(data.draw(vectors(a.cols)))  # consistent
    else:
        b = tuple(Q(x) for x in data.draw(vectors(a.rows)))
    s = _sympy_matrix(sympy, m)
    inconsistent = s.row_join(_sympy_matrix(sympy, [[x] for x in b])).rank() > s.rank()
    x = solve_linear(a, b)
    if inconsistent:
        assert x is None
        return
    assert x is not None and a.apply(x) == b
    pivots = s.rref()[1]
    assert all(x[j] == 0 for j in range(a.cols) if j not in pivots)


@given(eliminable())
@settings(max_examples=80, deadline=None)
def test_kernel_basis_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    want = [tuple(_from_sympy(v.T).row(0)) for v in _sympy_matrix(sympy, m).nullspace()]
    assert kernel_basis(Mat(m)) == want


# -- the representations of Mat and SymElement stay inside their modules --------


def _private_readers(cls, home):
    """(module, line, name) for every read of a private slot or method of cls
    (any `x._den`, ...) and every import of a private name of the module
    `home`, in the package modules other than home."""
    private = {n for n in vars(cls) if n.startswith("_") and not n.startswith("__")}
    offenders = []
    for path in sorted(Path(extmukai.__file__).parent.glob("*.py")):
        if path.name == home + ".py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == home:
                offenders += [(path.name, node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return private, offenders


def test_no_module_reads_mat_internals():
    """Only linalg.py knows how a Mat is stored."""
    private, offenders = _private_readers(Mat, "linalg")
    assert {"_den", "_ints", "_kept_nonzero_columns"} <= private
    assert offenders == []


# the functions that may write private attributes of an object other than
# self: the memo helper, and the fillers of a fresh Mat and a fresh SymElement
PRIVATE_WRITERS = {("linalg.py", "kept"), ("linalg.py", "_make"), ("verbitsky.py", "_sym")}


def test_no_module_writes_private_state_of_another_object():
    """A value derived from an object is kept through `kept`, never stashed
    on it by another module or function: no package module assigns a
    private attribute (`x._name = ...`) of anything but `self`, or calls
    setattr or delattr, outside PRIVATE_WRITERS."""
    offenders = []
    for path in sorted(Path(extmukai.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and (path.name, fn.name) in PRIVATE_WRITERS for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = getattr(node, "targets", None) or [node.target]
                for a in (a for t in targets for a in (t.elts if isinstance(t, ast.Tuple) else [t])):
                    if (isinstance(a, ast.Attribute) and a.attr.startswith("_")
                            and not (isinstance(a.value, ast.Name) and a.value.id == "self")):
                        offenders.append((path.name, node.lineno, ast.unparse(a)))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("setattr", "delattr"):
                offenders.append((path.name, node.lineno, node.func.id))
    assert offenders == []


class _Kept:
    __slots__ = ("calls", "_kept_value")

    def __init__(self):
        self.calls = 0

    @kept
    def value(self):
        self.calls += 1
        if self.calls == 1:
            raise ValueError("first call fails")
        return [self.calls]


def test_kept_computes_once_per_object_and_keeps_nothing_on_raise():
    a, b = _Kept(), _Kept()
    with pytest.raises(ValueError):
        a.value()
    v = a.value()
    assert v == [2] and a.value() is v and a.calls == 2
    assert b.calls == 0 and not hasattr(a, "__dict__")  # kept in the declared slot


def test_no_module_reads_sym_element_internals():
    """Only verbitsky.py knows how a SymElement is stored (its denominator
    and integer numerators)."""
    from extmukai.verbitsky import SymElement

    private, offenders = _private_readers(SymElement, "verbitsky")
    assert {"_denom", "_nums"} <= private
    assert offenders == []


def test_no_module_has_an_unused_import():
    """Every name a package module imports (at the top or inside a function)
    is read somewhere in that module; __init__.py imports to re-export."""
    unused = []
    for path in sorted(Path(extmukai.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append((path.name, node.lineno, name))
    assert unused == []


def test_no_function_has_an_unused_local():
    """Every name a package function binds is read in that function, nested
    functions included; names starting with "_" are exempt."""
    unused = []
    for path in sorted(Path(extmukai.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
                read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
                unused += sorted({
                    (path.name, node.id) for node in names
                    if isinstance(node.ctx, ast.Store)
                    and node.id not in read
                    and not node.id.startswith("_")
                })
    assert unused == []


def test_no_function_imports_a_package_module():
    """A package module imports its siblings at the top, never inside a
    function: no relative `from .x import ...` sits in a function body."""
    inside = []
    for path in sorted(Path(extmukai.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [
                    (path.name, node.lineno)
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert inside == []


# -- the integer kernel against sympy's saturated nullspace ----------------------


def _check_saturated_kernel(sympy, m):
    """integer_kernel_basis(m) is integral, killed by m, of the nullity's
    size, spans sympy's nullspace over Q and has all Smith invariants 1, so
    its Z-span is the saturated nullspace."""
    basis = integer_kernel_basis(Mat(m))
    a = Mat(m)
    assert all(c.denominator == 1 for v in basis for c in v)
    assert all(not any(a.apply(v)) for v in basis)
    null = [list(v) for v in _sympy_matrix(sympy, m).nullspace()]
    assert len(basis) == len(null)
    if basis:
        rows = [[int(c) for c in v] for v in basis]
        assert _sympy_matrix(sympy, rows + null).rank() == len(basis)
        assert _sympy_invariants(sympy, rows) == [1] * len(basis)
    return basis


def test_integer_kernel_of_a_rational_5x6_returns_at_once():
    # the alternating-Euclid Smith form let this matrix's entries grow past a
    # million bits, for the kernel, for the saturation of its integer rows and
    # for the Smith form of those rows alike
    import time

    sympy = pytest.importorskip("sympy")
    m = [
        [Q(16, 5), 0, 6, -6, 0, 0],
        [0, Q(9, 5), Q(-29, 8), 0, 9, 0],
        [0, -6, 1, 0, Q(-3, 10), 6],
        [Q(23, 7), -3, Q(-1, 2), 0, 0, Q(7, 5)],
        [6, -7, 8, -1, 0, -8],
    ]
    start = time.perf_counter()
    integer_kernel_basis(Mat(m))
    saturation_basis(Mat(m).scale(840).int_entries())
    u, d, v = smith_normal_form(Mat(m).scale(840))
    assert time.perf_counter() - start < 1.0
    assert len(_check_saturated_kernel(sympy, m)) == 1
    _check_saturation(sympy, Mat(m).scale(840).int_entries())
    assert u * Mat(m).scale(840) * v == d
    assert [d[i, i] for i in range(5)] == _sympy_invariants(sympy, Mat(m).scale(840).int_entries())


def _check_saturation(sympy, rows):
    """saturation_basis(rows) has the rank of the rows, the same span over Q
    and all Smith invariants 1: it spans the saturation."""
    sat = saturation_basis(rows)
    rank = _sympy_matrix(sympy, rows).rank()
    assert len(sat) == rank
    if sat:
        assert _sympy_matrix(sympy, [list(r) for r in rows] + sat).rank() == rank
        assert _sympy_invariants(sympy, sat) == [1] * rank


@given(int_matrices)
@settings(max_examples=60, deadline=None)
def test_saturation_basis_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    _check_saturation(sympy, rows)


@given(eliminable())
@settings(max_examples=80, deadline=None)
def test_integer_kernel_basis_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    _check_saturated_kernel(sympy, m)
