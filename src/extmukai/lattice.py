"""Integral and rational quadratic lattices.

A `QuadLattice` is a free Z-module of finite rank with a symmetric rational
Gram matrix, optionally embedded into an ambient rational quadratic space
(basis vectors given as rows of a matrix, with the ambient Gram recorded so
the embedding can be certified against the lattice Gram).

Standard constructors cover the hyperbolic plane U, E8(-1) in Bourbaki node
order, the K3 lattice U^3 + E8(-1)^2, rank-one lattices <k>, and the rank-24
Mukai lattice U + K3 with pairing <(r,c,s),(r',c',s')> = c.c' - rs' - r's.
"""

import itertools
from math import gcd, prod

from .linalg import (
    Mat,
    Q,
    congruence_diagonalize,
    integer_kernel_basis,
    kept,
    product,
    smith_normal_form,
    solve_linear,
    vec_is_integral,
    vec_is_zero,
)


class LatticeError(ValueError):
    pass


class QuadLattice:
    """Finite-rank lattice with rational Gram, optionally in an ambient space."""

    def __init__(self, gram, basis_in_ambient=None, ambient_gram=None, name=None):
        if not gram.is_symmetric():
            raise LatticeError("gram must be symmetric")
        self.gram = gram
        self.rank = gram.rows
        self.name = name
        self.basis_in_ambient = basis_in_ambient
        self.ambient_gram = ambient_gram
        if basis_in_ambient is not None:
            if ambient_gram is None:
                raise LatticeError("embedded lattice needs the ambient gram")
            if self.rank > 0:
                pullback = product(basis_in_ambient, ambient_gram, basis_in_ambient.transpose())
                if pullback != gram:
                    raise LatticeError("gram does not match the ambient pullback")

    # -- bookkeeping ---------------------------------------------------------

    @staticmethod
    def from_basis(basis_rows, ambient_gram, name=None):
        b = Mat.from_rows(basis_rows)
        lat = QuadLattice(product(b, ambient_gram, b.transpose()), name=name)
        lat.basis_in_ambient, lat.ambient_gram = b, ambient_gram
        return lat

    def pairing(self, x, y):
        """Gram pairing of two vectors given in lattice coordinates."""
        return self.gram.bilinear(x, y)

    def norm(self, x):
        return self.pairing(x, x)

    def ambient_vector(self, coords):
        return self._columns().apply(coords)

    @kept
    def _columns(self):
        """C, the basis as columns, kept."""
        if self.basis_in_ambient is None:
            raise LatticeError("lattice has no ambient embedding")
        return self.basis_in_ambient.transpose()

    @kept
    def basis_change(self):
        """(C, C^-1), kept; C^-1 is None below full rank."""
        c = self._columns()
        return c, c.inverse() if self.rank == c.rows else None

    def coords_of_ambient(self, v):
        """Rational coordinates of an ambient vector on this basis, or None."""
        c, cinv = self.basis_change()
        return cinv.apply(v) if cinv is not None else solve_linear(c, v)

    def contains_ambient(self, v):
        x = self.coords_of_ambient(v)
        return x is not None and vec_is_integral(x)

    def is_even(self):
        return self.gram.is_integral() and all(
            self.gram[i, i].numerator % 2 == 0 for i in range(self.rank)
        )

    @kept
    def det(self):
        """det(gram), kept."""
        return self.gram.det()

    def is_nondegenerate(self):
        return self.det() != 0

    def signature(self):
        """(positive, negative) inertia indices of the Gram form."""
        diag, _ = congruence_diagonalize(self.gram)
        return sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0)

    def same_subset_as(self, other):
        """Equality as subsets of a common ambient space."""
        if self.basis_in_ambient is None or other.basis_in_ambient is None:
            raise LatticeError("both lattices need ambient embeddings")
        if self.rank != other.rank:
            return False
        return all(
            other.contains_ambient(self.basis_in_ambient.row(i)) for i in range(self.rank)
        ) and all(
            self.contains_ambient(other.basis_in_ambient.row(i)) for i in range(other.rank)
        )

    def __repr__(self):
        label = self.name or "lattice"
        return "<QuadLattice %s rank %d>" % (label, self.rank)


class DiscGroup:
    """Discriminant group A(L) = L^dual / L with its Q/2Z quadratic form."""

    def __init__(self, cyclic_orders, generators, q_values):
        self.cyclic_orders = tuple(cyclic_orders)
        self.generators = tuple(tuple(g) for g in generators)
        self.q_values = tuple(q_values)

    @property
    def order(self):
        return prod(self.cyclic_orders)

    def __repr__(self):
        if not self.cyclic_orders:
            return "<DiscGroup trivial>"
        return "<DiscGroup %s>" % " x ".join("Z/%d" % d for d in self.cyclic_orders)


_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def _e8_minus_gram():
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = -2
    for a, b in _E8_EDGES:
        m[a - 1][b - 1] = 1
        m[b - 1][a - 1] = 1
    return Mat(m)


def standard_lattice(name, k=None):
    """Standard lattices: U, E8_minus, K3, A1(k), MukaiK3."""
    if name == "U":
        return QuadLattice(Mat([[0, 1], [1, 0]]), name="U")
    if name == "E8_minus":
        return QuadLattice(_e8_minus_gram(), name="E8_minus")
    if name == "K3":
        u = Mat([[0, 1], [1, 0]])
        gram = Mat.block_diagonal([u, u, u, _e8_minus_gram(), _e8_minus_gram()])
        return QuadLattice(gram, name="K3")
    if name == "A1":
        if k is None or k == 0:
            raise LatticeError("A1(k) needs a nonzero integer k")
        return QuadLattice(Mat([[k]]), name="A1(%d)" % k)
    if name == "MukaiK3":
        # basis ((1,0,0),(0,0,1), K3-basis); <(r,c,s),(r',c',s')> = c.c' - rs' - r's
        gram = Mat.block_diagonal([Mat([[0, -1], [-1, 0]]), standard_lattice("K3").gram])
        return QuadLattice(gram, name="MukaiK3")
    raise LatticeError("unknown standard lattice %r" % (name,))


@kept
def discriminant_group(lat):
    """Invariant-factor presentation of L^dual/L with q-values mod 2Z.

    Requires an even integral, nondegenerate Gram.  Generators are returned
    in lattice coordinates (rational); q-values are representatives in
    [0, 2).  The DiscGroup is kept on `lat`: later calls return that same
    (immutable) object.
    """
    if not lat.gram.is_integral():
        raise LatticeError("integrality required")
    if not lat.is_even():
        raise LatticeError("even lattice required")
    if not lat.is_nondegenerate():
        raise LatticeError("nondegenerate lattice required")
    _, d, v = smith_normal_form(lat.gram)
    # A(L) ~ Z^r / G Z^r via x -> G^{-1} x; invariant factor i has generator
    # G^{-1} U^{-1} e_i of order d_i.  From U G V = D, G^{-1} = V D^{-1} U,
    # so that generator is V D^{-1} e_i = V e_i / d_i: no inverse is needed.
    orders = []
    gens = []
    qvals = []
    for i in range(lat.rank):
        di = int(d[i, i])
        if di <= 1:
            continue
        gen = tuple(x / di for x in v.column(i))
        orders.append(di)
        gens.append(gen)
        qvals.append(lat.norm(gen) % 2)
    return DiscGroup(orders, gens, qvals)


def divisibility(lat, v):
    """gcd of the pairings of v against a basis of L (v integral, nonzero)."""
    if vec_is_zero(v):
        raise LatticeError("zero vector")
    if not vec_is_integral(v):
        raise LatticeError("integral vector required")
    d = lat.gram.denominator_lcm()
    gv = lat.gram.int_product(v)[2]  # d times the pairings
    if any(p % d for p in gv):
        raise LatticeError("integral lattice required")
    return gcd(*gv) // d


def is_primitive(lat, v):
    """True iff the integral vector v is not in kL for any k >= 2."""
    if vec_is_zero(v):
        raise LatticeError("zero vector")
    if not vec_is_integral(v):
        raise LatticeError("integral vector required")
    return gcd(*(c.numerator for c in v)) == 1


def orthogonal_complement(lat, generators):
    """Saturated sublattice {x in L : b(x, s) = 0 for all s}, with its Gram.

    Generators are given in lattice coordinates.  The result is embedded in
    the same ambient space when the input lattice is embedded, otherwise it
    is embedded in L itself (ambient gram = L's gram).
    """
    for s in generators:
        if not vec_is_integral(s):
            raise LatticeError("generators must lie in L")
    if generators:
        pairing_rows = Mat.from_rows([lat.gram.apply(s) for s in generators])
        basis = integer_kernel_basis(pairing_rows)
    else:
        basis = [tuple(Q(1) if i == j else Q(0) for j in range(lat.rank)) for i in range(lat.rank)]
    if not basis:
        return QuadLattice(Mat.zero(0, 0), Mat.zero(0, lat.rank), lat.gram,
                           name="0")
    if lat.basis_in_ambient is not None:
        rows = [lat.ambient_vector(b) for b in basis]
        return QuadLattice.from_basis(rows, lat.ambient_gram)
    return QuadLattice.from_basis(basis, lat.gram)


class NotFound:
    """Verdict value for searches that end without a witness."""

    def __init__(self, reason=""):
        self.reason = reason

    def __bool__(self):
        return False

    def __repr__(self):
        return "NotFound(%r)" % self.reason


def brute_force_isometric(l1, l2, bound):
    """Search for an exact isometry L1 -> L2 with images bounded by `bound`.

    Rank must agree and be at most 4.  Returns the matrix (columns = images
    of the basis of L1 in L2-coordinates) or NotFound.  NotFound is only a
    statement about the search box, except when determinant or signature
    already obstruct.
    """
    if l1.rank != l2.rank:
        return NotFound("rank")
    n = l1.rank
    if n > 4:
        raise LatticeError("brute force limited to rank <= 4")
    if n == 0:
        return Mat.zero(0, 0)
    if l1.signature() != l2.signature():
        return NotFound("signature")
    if l1.det() != l2.det():
        return NotFound("determinant")

    rng = range(-bound, bound + 1)
    g1, g2 = l1.gram, l2.gram

    vectors = [tuple(Q(c) for c in t) for t in itertools.product(rng, repeat=n)]
    norms = {}
    for v in vectors:
        norms.setdefault(l2.norm(v), []).append(v)

    def extend(cols):
        k = len(cols)
        if k == n:
            m = Mat.from_columns(cols)
            if (m.transpose() * g2 * m) == g1 and abs(m.det()) == 1:
                return m
            return None
        for v in norms.get(g1[k, k], ()):
            ok = True
            for j, c in enumerate(cols):
                if l2.pairing(c, v) != g1[j, k]:
                    ok = False
                    break
            if ok:
                res = extend(cols + [v])
                if res is not None:
                    return res
        return None

    res = extend([])
    return res if res is not None else NotFound("search box exhausted")
