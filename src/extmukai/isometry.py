"""Isometries of rational quadratic spaces.

Constructors: reflections s_v, B-field maps B_lambda on extended Mukai
spaces, Eichler transvections t(e, a).  Invariants: determinant, real
spinor norm, induced action on discriminant groups, lattice preservation.
Constructive tools: Cartan-Dieudonne decomposition into reflections,
Eichler transport of primitive vectors by words of transvections, and
bounded subgroup generation.

On a full-rank lattice L an isometry keeps its matrix in lattice coordinates
(`Isometry.on_lattice`), which decides both g(L) = L and the action on A(L);
it keeps the matrices of its last LATTICE_MATRICES_KEPT bases, by value.

Generators, spinor norm, Eichler transport and transport words run on the
integer products (d G) v of the Gram's sparse columns (`Mat.int_product`);
`Fraction`s appear only where a result is handed out, such as a word.

Spinor norm convention: spin(s_v) = +1 iff b(v, v) < 0.  With this choice
every transvection and every reflection along a negative-square vector has
spinor norm +1, so the realized generators of the plus-subgroups below all
land on the +1 side.  Computationally the norm is evaluated as the sign of
det of the isometry compressed to a maximal positive-definite subspace,
which agrees with the product of sign(-b(v_i, v_i)) over any reflection
decomposition and is manifestly decomposition-independent.
"""

from collections import defaultdict
from math import gcd
from operator import mul

from .lattice import LatticeError, NotFound, discriminant_group, divisibility, is_primitive
from .linalg import (
    Mat,
    Q,
    QONE,
    QZERO,
    cleared,
    congruence_diagonalize,
    identity_plus_outer,
    kept,
    product,
    vec_add,
    vec_is_integral,
    vec_is_zero,
    vec_primitive_part,
    vec_sub,
)


# an op of the plus-group test reads Lambda, then Lambda_g, then Lambda again
LATTICE_MATRICES_KEPT = 2


class IsometryError(ValueError):
    pass


def _require_space(gram, other):
    """Raise unless the Gram `other` is `gram`: the one test that an isometry
    or a lattice lives in a given space, "space mismatch" when the
    dimensions agree and "dimension mismatch" when they differ."""
    if other is not gram and other != gram:
        raise IsometryError("space mismatch" if other.rows == gram.rows else "dimension mismatch")


class QuadSpace:
    """A rational quadratic space: a dimension and a symmetric Gram matrix."""

    def __init__(self, gram):
        if not gram.is_symmetric():
            raise IsometryError("gram must be symmetric")
        self.gram = gram
        self.dim = gram.rows

    @kept
    def gram_inverse(self):
        return self.gram.inverse()

    def pairing(self, x, y):
        return self.gram.bilinear(x, y)

    def norm(self, x):
        return self.pairing(x, x)

    def basis_vector(self, i):
        return (QZERO,) * i + (QONE,) + (QZERO,) * (self.dim - 1 - i)

    def positive_basis(self):
        """A basis of a maximal positive-definite subspace, kept."""
        return self._positive_frame()[0]

    @kept
    def _positive_frame(self):
        """(basis, rows): `positive_basis` and, for `spinor_norm`, per basis
        vector its integer row P and (d G) P, sparse."""
        diag, trans = congruence_diagonalize(self.gram)
        basis = [trans.row(i) for i, d in enumerate(diag) if d > 0]
        prods = map(self.gram.int_product, basis)
        return basis, [(_sparse(p), _sparse(gp)) for _, p, gp in prods]

    def __eq__(self, other):
        return isinstance(other, QuadSpace) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)


def _sparse(v):
    """The nonzero entries of v as (index, entry) pairs."""
    return tuple((i, c) for i, c in enumerate(v) if c)


class Isometry:
    """An exact isometry of a QuadSpace, acting on column vectors."""

    __slots__ = ("space", "matrix", "word", "_kept_det", "_on_bases")

    def __init__(self, space, matrix, word=None, check=True):
        if check and (matrix.rows, matrix.cols) != (space.dim, space.dim):
            raise IsometryError("dimension mismatch")
        if check and product(matrix.transpose(), space.gram, matrix) != space.gram:
            raise IsometryError("matrix does not preserve the form")
        self.space = space
        self.matrix = matrix
        self.word = word
        self._on_bases = {}  # (basis, ambient Gram) of a full-rank lattice -> matrix

    @property
    @kept
    def det(self):
        return self.matrix.det()

    def __call__(self, v):
        return self.matrix.apply(v)

    def on_lattice(self, lat):
        """C^-1 M C for a full-rank lattice with basis change C, kept for the
        last LATTICE_MATRICES_KEPT bases (equal bases in the same ambient
        Gram share one entry)."""
        bases = self._on_bases
        key = (lat.basis_in_ambient, lat.ambient_gram)
        m = bases.get(key)
        if m is None:
            _require_in_space(self, lat)
            if lat.rank != self.space.dim:
                raise IsometryError("dimension mismatch")
            c, cinv = lat.basis_change()
            m = product(cinv, self.matrix, c)
            # one assignment of a new store: no thread sees it past its bound
            self._on_bases = dict(list({**bases, key: m}.items())[-LATTICE_MATRICES_KEPT:])
        return m

    def compose(self, other, word=None):
        """self after other (matrix product self * other)."""
        _require_space(self.space.gram, other.space.gram)
        return Isometry(self.space, self.matrix * other.matrix, word=word, check=False)

    def inverse(self):
        # for an isometry, M^{-1} = G^{-1} M^T G
        ginv = self.space.gram_inverse()
        inv = product(ginv, self.matrix.transpose(), self.space.gram)
        return Isometry(self.space, inv, check=False)

    def __eq__(self, other):
        return (
            isinstance(other, Isometry)
            and self.space == other.space
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def is_identity(self):
        return self.matrix == Mat.identity(self.space.dim)

    def __repr__(self):
        w = " word=%s" % (self.word,) if self.word else ""
        return "<Isometry dim %d det %s%s>" % (self.space.dim, self.det, w)


def identity_isometry(space):
    return Isometry(space, Mat.identity(space.dim), word=(), check=False)


def minus_identity(space):
    return Isometry(space, Mat.identity(space.dim).scale(-1), check=False)


def reflection(space, v):
    """Reflection along an anisotropic vector: x -> x - 2 b(x,v)/b(v,v) v,
    that is I - (2 / q) vi gv^T for v = vi / e, gv = (d G) vi, q = vi . gv."""
    _, vi, gv = space.gram.int_product(v)
    q = sum(map(mul, vi, gv))
    if q == 0:
        raise IsometryError("isotropic vector")
    terms = [(q, vi, [-2 * x for x in gv])]
    return Isometry(space, identity_plus_outer(space.dim, terms), check=False)


def eichler_transvection(space, e, a):
    """t(e, a): x -> x - b(a,x) e + b(e,x) a - (b(a,a)/2) b(e,x) e.

    Requires b(e, e) = 0 and b(e, a) = 0.  Determinant +1, spinor norm +1,
    trivial on any discriminant group of a lattice containing e and a.
    """
    de, ei, ge = space.gram.int_product(e)
    if sum(map(mul, ei, ge)):
        raise IsometryError("e must be isotropic")
    da, ai, ga = space.gram.int_product(a)
    if sum(map(mul, ei, ga)):
        raise IsometryError("a must be orthogonal to e")
    # t = I + e (-G a - b(a,a)/2 G e)^T + a (G e)^T, and with s = d de da
    # and b(a, a) = qa / (d da^2) that is ei w^T / (2 s^2) + ai ge^T / s
    s = space.gram.denominator_lcm() * de * da
    qa = sum(map(mul, ai, ga))
    w = [-2 * s * x - qa * y for x, y in zip(ga, ge)]
    terms = [(2 * s * s, ei, w), (s, ai, ge)]
    return Isometry(space, identity_plus_outer(space.dim, terms), check=False)


# -- Cartan-Dieudonne ---------------------------------------------------------


def cartan_dieudonne(g):
    """Reflection vectors v_1, ..., v_k with g = s_{v_1} o ... o s_{v_k}.

    Anisotropic vectors, scaled primitive.  The orthogonal basis walked is
    the rows of the congruence diagonalisation of the Gram.  The
    isotropic-difference case is handled by the standard two-step fix
    through g(u) + u.
    """
    space = g.space
    diag, trans = congruence_diagonalize(space.gram)
    if 0 in diag:
        raise IsometryError("degenerate form")
    refs = []
    h = g
    for i in range(space.dim):
        u = vec_primitive_part(trans.row(i))
        hu = h(u)
        w = vec_sub(hu, u)
        if vec_is_zero(w):
            continue
        if space.norm(w) != 0:
            w = vec_primitive_part(w)
            refs.append(w)
            h = reflection(space, w).compose(h)
        else:
            w2 = vec_primitive_part(vec_add(hu, u))
            refs.append(w2)
            refs.append(u)
            h = reflection(space, u).compose(reflection(space, w2)).compose(h)
    if not h.is_identity():
        raise IsometryError("decomposition failed to terminate at the identity")
    return refs


def spinor_norm(g):
    """Real spinor norm in the convention spin(s_v) = +1 iff b(v,v) < 0.

    Computed as sign det of g compressed to a maximal positive-definite
    subspace; equals the product of sign(-b(v,v)) over any reflection
    decomposition of g.  Read off det P (d G) m P^T, for P the integer rows
    of that basis and M = m / d_M: positive scalings keep the sign.
    """
    pos = g.space._positive_frame()[1]
    if not pos:
        return 1
    m = g.matrix.cleared()[1]
    rows = [[sum(x * sum(m[i][j] * y for j, y in p) for i, x in gp) for p, _ in pos]
            for _, gp in pos]
    d = Mat(rows).det()
    if d == 0:
        raise IsometryError("not an isometry of the real form")
    return 1 if d > 0 else -1


# -- lattice interaction ------------------------------------------------------


def _require_in_space(g, lat):
    """Raise unless L is embedded in the space of g, with the same Gram."""
    if lat.basis_in_ambient is None:
        raise IsometryError("lattice must be embedded in the isometry's space")
    _require_space(g.space.gram, lat.ambient_gram)


def preserves_lattice(g, lat):
    """True iff g(L) = L as subsets of the ambient space.

    When the Gram G_L of L is nondegenerate, g(L) in L is enough: the matrix
    M of g on L is then integral with M^T G_L M = G_L, so det M = +-1 and
    M^{-1} is integral too.  A degenerate G_L needs g^{-1}(L) in L as well.
    """
    _require_in_space(g, lat)
    if lat.rank < g.space.dim:
        return lattice_witness(g, lat) is None
    # full rank: g preserves L iff its matrix in lattice coordinates is integral
    return g.on_lattice(lat).is_integral() and (
        lat.is_nondegenerate() or g.inverse().on_lattice(lat).is_integral()
    )


def lattice_witness(g, lat):
    """A basis vector of L whose image leaves L (for a degenerate Gram of L,
    possibly the preimage of one that leaves L), or None."""
    _require_in_space(g, lat)
    ginv = None if lat.is_nondegenerate() else g.inverse()
    for i in range(lat.rank):
        v = lat.basis_in_ambient.row(i)
        if not lat.contains_ambient(g(v)):
            return v
        if ginv is not None and not lat.contains_ambient(ginv(v)):
            return ginv(v)
    return None


def disc_action(g, lat):
    """Classify the action induced on A(L): identity, minus_identity, other.

    Returns (label, witness).  For "other" the witness is the first dual
    generator, in ambient coordinates, at which neither +id nor -id holds on
    the generators so far; else it is None.  A full-rank L is Z^r in lattice
    coordinates, where g acts by `g.on_lattice(lat)`.
    """
    if not preserves_lattice(g, lat):
        raise IsometryError("isometry does not preserve the lattice")
    disc = discriminant_group(lat)
    full = lat.rank == g.space.dim
    if full:
        gens, act, in_lat = disc.generators, g.on_lattice(lat).apply, vec_is_integral
    else:
        gens = [lat.ambient_vector(gen) for gen in disc.generators]
        act, in_lat = g, lat.contains_ambient
    is_id = is_minus = True
    for w in gens:
        gw = act(w)
        is_id = is_id and in_lat(vec_sub(gw, w))
        is_minus = is_minus and in_lat(vec_add(gw, w))
        if not (is_id or is_minus):
            return "other", lat.ambient_vector(w) if full else w
    return "identity" if is_id else "minus_identity", None


def generate_bounded(gens, depth, cap=20000):
    """All distinct products of word length <= depth (the empty product, the
    identity, included), deduplicated by exact matrix."""
    if not gens:
        raise IsometryError("no generators")
    space = gens[0].space
    for g in gens:
        _require_space(space.gram, g.space.gram)
    seen = {Mat.identity(space.dim): identity_isometry(space)}
    frontier = [seen[Mat.identity(space.dim)]]
    for _ in range(depth):
        nxt = []
        for h in frontier:
            for g in gens:
                prod = g.compose(h)
                if prod.matrix not in seen:
                    if len(seen) >= cap:
                        raise IsometryError("generation cap exceeded")
                    seen[prod.matrix] = prod
                    nxt.append(prod)
        frontier = nxt
        if not frontier:
            break
    return set(seen.values())


# -- Eichler transport --------------------------------------------------------


class TransvectionWord:
    """A word of Eichler transvections: (e, a) pairs in the carrier's
    coordinates, applied by apply() in list order (pairs[0] acts first)."""

    def __init__(self, carrier, pairs):
        self.carrier = carrier
        self.pairs = list(pairs)

    def apply(self, v):
        """The word applied to v (ints or Fractions), in integers: v = x / den,
        and a step pairs x with (d G) e and (d G) a (`Mat.int_product`), taken
        once per distinct vector of the word."""
        gram = self.carrier.gram
        d = gram.denominator_lcm()
        den, x = cleared(v)
        products = {}  # by id: the vectors are held by self.pairs during the call
        for e, a in self.pairs:
            for u in (e, a):
                if id(u) not in products:
                    products[id(u)] = gram.int_product(u)
            (de, ei, ge), (da, ai, ga) = products[id(e)], products[id(a)]
            s = d * de * da
            pe, pa, qa = sum(map(mul, ge, x)), sum(map(mul, ga, x)), sum(map(mul, ai, ga))
            # t(e, a)(v) = v + (-b(a, v) - b(a, a)/2 b(e, v)) e + b(e, v) a, over 2 s^2 den
            ce, ca = -2 * s * pa - qa * pe, 2 * s * pe
            x = [2 * s * s * c + ce * y + ca * z for c, y, z in zip(x, ei, ai)]
            g = gcd(2 * s * s * den, *x)
            den, x = 2 * s * s * den // g, [c // g for c in x]
        return tuple(Q(c, den) for c in x)

    def __len__(self):
        return len(self.pairs)


@kept
def _hyperbolic_frame(lat):
    """The first two split hyperbolic planes of an even integral lattice, in
    index order, as sparse units (E1, F1, E2, F2) with q(E) = q(F) = 0 and
    b(E, F) = 1, and the list of the other basis indices, kept on L; else
    raises.  Basis vectors i < j span a split plane exactly when rows i and
    j of the Gram hold one nonzero entry each, +-1 at the other's index.
    """
    rows, d = lat.gram.nonzero_columns(), lat.gram.denominator_lcm()
    found = [(i, j, c // d) for i, row in enumerate(rows) if len(row) == 1
             for j, c in row if j > i and abs(c) == d and len(rows[j]) == 1]
    if len(found) < 2:
        raise IsometryError("lattice does not expose 2 orthogonal hyperbolic planes")
    if not lat.is_even():
        raise IsometryError("transport needs an even integral lattice")
    (i1, j1, s1), (i2, j2, s2) = found[:2]
    rest = [k for k in range(lat.rank) if k not in (i1, j1, i2, j2)]
    return ((i1, 1),), ((j1, s1),), ((i2, 1),), ((j2, s2),), rest


def _nearest_quot(r, p):
    """Quotient t with |r - t p| <= |p| / 2 (balanced Euclid step)."""
    t, rem = divmod(r, p)
    if 2 * abs(rem) > abs(p):
        t += 1
    return t


class _Reducer:
    """Drives the transvection reduction of a vector over L = U1 + U2 + L0.

    Works in plain integers on the sparse rows of the symmetric (even
    integral) Gram, its `nonzero_columns`: v is a list of ints, and E1, F1,
    E2, F2, the rest units and every (e, a) of a word are tuples of (index,
    coefficient) pairs, so a step touches only the support of e and a.

    On the plane part v sees the matrix X = [[p, q], [r, s]] = [[a1, -a2],
    [b2, b1]], v = a1 E1 + b1 F1 + a2 E2 + b2 F2 + z.  Each elementary move
    of X is one transvection t(e, sign t unit), kept in `moves` by kind.
    """

    def __init__(self, rows, frame):
        self.rows = rows
        self.E1, self.F1, self.E2, self.F2, self.rest = frame
        self.x_reads = (self.E1[0], (self.E2[0][0], -1), self.F2[0], self.F1[0])
        self.moves = {  # kind: (e, unit, sign)
            "row1": (self.E1, self.E2, -1),  # row1 += t row2
            "row2": (self.F1, self.F2, 1),  # row2 += t row1
            "col1": (self.E1, self.F2, 1),  # col1 += t col2
            "col2": (self.F1, self.E2, -1),  # col2 += t col1
        }
        self.word = []
        self.v = None

    def _pair(self, x, y):
        """b(x, y) for a sparse x and a list (or a defaultdict) y."""
        total = 0
        for i, c in x:
            for j, g in self.rows[i]:
                total += c * g * y[j]
        return total

    # elementary actions -----------------------------------------------------

    def step(self, v, e, a):
        """t(e, a)(v) as a new list."""
        be = self._pair(e, v)
        qa = self._pair(a, defaultdict(int, a))
        coef_e = -self._pair(a, v) - (qa // 2) * be
        v = list(v)
        for i, c in e:
            v[i] += coef_e * c
        for i, c in a:
            v[i] += be * c
        return v

    def t(self, e, a):
        """Apply and record t(e, a); an empty a is the identity and is skipped."""
        if a:
            self.v = self.step(self.v, e, a)
            self.word.append((e, a))

    def move(self, kind, t):
        e, unit, sign = self.moves[kind]
        self.t(e, tuple((i, sign * t * c) for i, c in unit) if t else ())

    def rot(self, first, second, sigma):
        """(first, second) -> (sigma second, -sigma first), rows or columns."""
        self.move(first, sigma)
        self.move(second, -sigma)
        self.move(first, sigma)

    def X(self):
        """[p, q, r, s] = [a1, -a2, b2, b1], read off coordinates: the planes
        split off (`_hyperbolic_frame`), so G F1 = e_i1 for F1 = s1 e_j1 and
        b(F1, v) = v[i1]; likewise b(F2, v) = v[i2], b(E2, v) = s2 v[j2] and
        b(E1, v) = s1 v[j1]."""
        return [c * self.v[i] for i, c in self.x_reads]

    def plane_smith(self):
        """Clear the U2-component: bring X to [[p, 0], [0, s]] with
        p = gcd of the four plane coefficients, p > 0.

        The pivot is steered positive by choosing rotation signs, so no
        final sign pass is needed and words stay short.  At most two passes
        leave a pivot 0 < p <= max |X|, which no later pass makes <= 0; then
        a pass returns, or replaces p by a balanced remainder 0 < |r - t p|
        <= p / 2, or clears r and q and moves s (not a multiple of p) into
        r for the next pass to replace p.  So it ends within 2 bitlen(max
        |X|) + 1 passes (balanced Euclid; Knuth, TAOCP vol. 2, 4.5.3)."""
        while True:
            p, q, r, s = self.X()
            if p == q == r == s == 0:
                return
            if p == 0:
                if r != 0:
                    self.move("row1", 1 if r > 0 else -1)
                elif q != 0:
                    self.move("col1", 1 if q > 0 else -1)
                else:  # only s nonzero
                    self.move("row1", 1)
            elif p < 0:
                if r != 0:
                    self.rot("row1", "row2", 1 if r > 0 else -1)
                elif q != 0:
                    self.rot("col1", "col2", 1 if q > 0 else -1)
                else:
                    self.move("row2", 1)  # r = p < 0, then rotate it in
            elif r % p == 0 and q % p == 0:
                self.move("row2", -(r // p))
                self.move("col2", -(q // p))
                if self.X()[3] % p == 0:  # the moves keep p
                    return
                self.move("col1", 1)
            elif r % p != 0:
                self.move("row2", -_nearest_quot(r, p))
                self.rot("row1", "row2", 1 if self.X()[2] > 0 else -1)
            else:
                self.move("col2", -_nearest_quot(q, p))
                self.rot("col1", "col2", 1 if self.X()[1] > 0 else -1)

    # full reduction -----------------------------------------------------------

    def rest_pairings(self):
        return [sum(g * self.v[j] for j, g in self.rows[k]) for k in self.rest]

    def reduce(self, v):
        """Carry v to d E1 + b F1 + d*zeta, d = div(v) > 0, zeta canonical."""
        self.v = v
        self.word = []
        if not any(self.X()):
            for k, pk in zip(self.rest, self.rest_pairings()):
                if pk != 0:
                    self.t(self.F1, ((k, 1),))
                    break
            else:
                raise IsometryError("vector pairs to zero with the whole lattice")
        self.plane_smith()
        # shrink the pivot p to the divisibility using L0 pairings: on X =
        # [[p, 0], [0, s]], t(E2, e_k) sets q to the pairing p_k and keeps the
        # L0 part, so plane_smith leaves gcd(p, p_k) <= p / 2
        while True:
            a1 = self.X()[0]
            k = next((k for k, pk in zip(self.rest, self.rest_pairings()) if pk % a1), None)
            if k is None:
                break
            self.t(self.E2, ((k, 1),))
            self.plane_smith()
        d = self.X()[0]
        # canonicalize the L0 part to d * (class representative): subtract the
        # integer part of each rest coordinate divided by d
        self.t(self.F1, tuple((k, -(self.v[k] // d)) for k in self.rest if self.v[k] // d))
        return self.word, self.v


def disc_class_rep(lat, v):
    """Canonical representative of [v / div(v)] in A(L) for an integral v:
    (D, nums) with v / div(v) = nums / D mod Z, in lowest terms."""
    if vec_is_zero(v) or not vec_is_integral(v):
        raise LatticeError("nonzero integral vector required")
    div = divisibility(lat, v)
    nums = [c.numerator % div for c in v]
    g = gcd(div, *nums)
    return div // g, tuple(x // g for x in nums)


def _dense(v, n):
    """The sparse integer vector v as n Fractions."""
    out = [QZERO] * n
    for i, c in v:
        out[i] = Q(c)
    return tuple(out)


def eichler_transport(lat, v, w):
    """Word of Eichler transvections carrying v to w inside L = U + U + L0.

    Preconditions checked: v, w (ints or Fractions) primitive, equal
    square, equal class in A(L).  Mismatches return NotFound('primitivity' |
    'square' | 'disc class'); reduced forms that differ return
    NotFound('reduction mismatch'), and a word that does not carry v to w
    NotFound('verification failed'): the word is verified by application
    before returning.  Runs on the integer rows kept on L; the word becomes
    Fractions on return.
    """
    if not (is_primitive(lat, v) and is_primitive(lat, w)):
        return NotFound("primitivity")
    (_, vi, gv), (_, wi, gw) = lat.gram.int_product(v), lat.gram.int_product(w)
    if sum(map(mul, vi, gv)) != sum(map(mul, wi, gw)):
        return NotFound("square")
    if disc_class_rep(lat, v) != disc_class_rep(lat, w):
        return NotFound("disc class")
    if vi == wi:
        return TransvectionWord(lat, [])
    red = _Reducer(lat.gram.nonzero_columns(), _hyperbolic_frame(lat))
    word_v, v_red = red.reduce(vi)
    word_w, w_red = red.reduce(wi)
    if v_red != w_red:
        return NotFound("reduction mismatch")
    # the word of v, then the inverse of the word of w: t(e, a)^-1 = t(e, -a)
    pairs = word_v + [(e, tuple((i, -c) for i, c in a)) for e, a in reversed(word_w)]
    x = vi
    for e, a in pairs:
        x = red.step(x, e, a)
    if x != wi:
        return NotFound("verification failed")
    q = {t: _dense(t, lat.rank) for t in {t for pair in pairs for t in pair}}
    return TransvectionWord(lat, [(q[e], q[a]) for e, a in pairs])
