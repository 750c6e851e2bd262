"""The extended Mukai lattice of a hyper-Kaehler deformation type.

The rational quadratic space is Q.alpha + H^2(X, Q) + Q.beta with alpha,
beta isotropic, orthogonal to H^2, and b(alpha, beta) = -1.  A deformation
type contributes the rank and Gram of H^2, the Fujiki constant c_X and the
Todd parameter r_X.  Built-in parameter sets:

    K3n   (Hilbert schemes of K3s):  c_X = 1,     r_X = (n+3)/4,  b_2 = 23
    Kumn  (generalized Kummers):     c_X = n + 1, r_X = (n+1)/4,  b_2 = 7
    OG10:                            c_X = 1,     r_X = (n+3)/4,  b_2 = 24
    OG6:                             c_X = 4,     r_X = (n+1)/4,  b_2 = 8

For the K3n family the module also builds the distinguished rank-25
integral lattices: the B-field shift Lambda of the integral extended Mukai
lattice, its unimodular part Lambda_S, the index-two overlattice Lambda_g,
and the span Lambda_LB of all line-bundle Mukai vectors, generated by
v(O) = alpha + r_X beta, the e_i + (G_ii / 2) beta and gcd(G_ij) beta.

Hodge structures are modeled combinatorially: an optional designated
algebraic sublattice NS of H^2 splits every lattice into an algebraic and a
transcendental part, and "Hodge isometry" means "isometry preserving that
split".
"""

from math import factorial, gcd, isqrt

from .isometry import (QuadSpace, _require_in_space, _require_space, disc_action,
                       eichler_transvection, preserves_lattice, spinor_norm)
from .lattice import QuadLattice, orthogonal_complement, standard_lattice
from .linalg import (Mat, Q, hnf_row_basis, integer_kernel_basis, kept, kernel_basis, product,
                     saturation_basis, vec_is_integral, vec_is_zero)


class SpaceError(ValueError):
    pass


class DeformationType:
    """Numerical invariants of a deformation type of hyper-Kaehler 2n-folds."""

    def __init__(self, family, n, c_x, r_x, h2_gram):
        if n < 1:
            raise SpaceError("n must be >= 1")
        self.family = family
        self.n = n
        self.c_x = Q(c_x)
        self.r_x = Q(r_x)
        self.h2_gram = h2_gram
        self.b2 = h2_gram.rows
        if self.c_x <= 0:
            raise SpaceError("Fujiki constant must be positive")

    def __repr__(self):
        return "<DeformationType %s n=%d b2=%d>" % (self.family, self.n, self.b2)


def k3n_type(n):
    """Hilbert-scheme family: H^2 = K3 + <2-2n>, delta last."""
    if n < 2:
        raise SpaceError("the K3n family needs n >= 2")
    gram = Mat.block_diagonal([standard_lattice("K3").gram, Mat([[2 - 2 * n]])])
    return DeformationType("K3n", n, 1, Q(n + 3, 4), gram)


def kumn_type(n):
    """Generalized Kummer family: H^2 = U^3 + <-2n-2>."""
    if n < 2:
        raise SpaceError("the Kumn family needs n >= 2")
    u = standard_lattice("U").gram
    gram = Mat.block_diagonal([u, u, u, Mat([[-2 * n - 2]])])
    return DeformationType("Kumn", n, n + 1, Q(n + 1, 4), gram)


def og10_type():
    u = standard_lattice("U").gram
    e8 = standard_lattice("E8_minus").gram
    a2m = Mat([[-2, 1], [1, -2]])
    gram = Mat.block_diagonal([u, u, u, e8, e8, a2m])
    return DeformationType("OG10", 5, 1, Q(2), gram)


def og6_type():
    u = standard_lattice("U").gram
    gram = Mat.block_diagonal([u, u, u, Mat([[-2]]), Mat([[-2]])])
    return DeformationType("OG6", 3, 4, Q(1), gram)


def k3_surface_type():
    """n = 1 convenience: the extended lattice of a K3 surface itself."""
    return DeformationType("K3", 1, 1, Q(1), standard_lattice("K3").gram)


def custom_type(n, c_x, r_x, h2_gram):
    return DeformationType("custom", n, c_x, r_x, h2_gram)


class ExtMukaiSpace(QuadSpace):
    """Q.alpha + H^2 + Q.beta with basis order (alpha, h2 basis..., beta)."""

    def __init__(self, dtype, ns_sublattice=None):
        b2 = dtype.b2
        dim = b2 + 2
        # the integer H^2 Gram d * G bordered by the hyperbolic corner -d,
        # over d
        d, h2 = dtype.h2_gram.cleared()
        rows = [[0] * (dim - 1) + [-d]]
        rows += [[0, *r, 0] for r in h2]
        rows.append([-d] + [0] * (dim - 1))
        super().__init__(Mat(rows) if d == 1 else Mat(rows).scale(Q(1, d)))
        self.dtype = dtype
        self.b2 = b2
        self.alpha = self.basis_vector(0)
        self.beta = self.basis_vector(dim - 1)
        self.ns_sublattice = None
        if ns_sublattice is not None:
            self.ns_sublattice = [tuple(Q(c) for c in v) for v in ns_sublattice]
            for v in self.ns_sublattice:
                if len(v) != b2 or not vec_is_integral(v):
                    raise SpaceError("NS generators must be integral H^2 vectors")
            ints = [[int(c) for c in v] for v in self.ns_sublattice]
            sat = saturation_basis(ints)
            # NS lies in its saturation, and Hermite bases are unique
            if len(sat) != len(ints) or hnf_row_basis(ints) != hnf_row_basis(sat):
                raise SpaceError("NS must be primitive (saturated) in H^2")

    # -- coordinates ---------------------------------------------------------

    def h2_embed(self, h2coords):
        """Lift an H^2 coordinate vector to the ambient space."""
        if len(h2coords) != self.b2:
            raise SpaceError("H^2 vector of length %d expected" % self.b2)
        return (Q(0),) + tuple(Q(c) for c in h2coords) + (Q(0),)

    def h2_part(self, v):
        return tuple(v[1 : 1 + self.b2])

    def is_h2(self, v):
        return v[0] == 0 and v[self.dim - 1] == 0

    def bbf(self, x, y):
        """BBF pairing of two H^2 coordinate vectors."""
        return self.dtype.h2_gram.bilinear(x, y)

    def vector(self, a_coeff, h2coords, b_coeff):
        return (Q(a_coeff),) + tuple(Q(c) for c in h2coords) + (Q(b_coeff),)

    def integral_lattice(self):
        """Z.alpha + H^2(X, Z) + Z.beta inside the space."""
        return QuadLattice.from_basis(
            [self.basis_vector(i) for i in range(self.dim)], self.gram,
            name="extended integral lattice",
        )

    def __repr__(self):
        return "<ExtMukaiSpace %s n=%d dim=%d>" % (
            self.dtype.family, self.dtype.n, self.dim,
        )


ORBIT_TAGS = ("line_bundle", "O_orbit", "kx_orbit", "plain")


class ExtVector:
    """A vector of the extended Mukai space with an orbit tag."""

    def __init__(self, space, coords, orbit_tag="plain"):
        if orbit_tag not in ORBIT_TAGS:
            raise SpaceError("unknown orbit tag %r" % (orbit_tag,))
        self.space = space
        self.coords = tuple(Q(c) for c in coords)
        if len(self.coords) != space.dim:
            raise SpaceError("coordinate length mismatch")
        sq = space.norm(self.coords)
        if orbit_tag in ("line_bundle", "O_orbit") and sq != -2 * space.dtype.r_x:
            raise SpaceError("O-orbit vectors must have square -2 r_X")
        if orbit_tag == "kx_orbit" and sq != 0:
            raise SpaceError("k(x)-orbit vectors must be isotropic")
        self.orbit_tag = orbit_tag

    def square(self):
        return self.space.norm(self.coords)

    def __repr__(self):
        return "<ExtVector %s %s>" % (self.orbit_tag, [str(c) for c in self.coords])


def ext_vector_line_bundle(space, lam):
    """v(L) = alpha + lambda + (r_X + b(lambda, lambda)/2) beta."""
    lam = tuple(Q(c) for c in lam)
    if len(lam) != space.b2:
        raise SpaceError("lambda must be an H^2 vector")
    s = space.dtype.r_x + space.bbf(lam, lam) / 2
    return ExtVector(space, space.vector(1, lam, s), "line_bundle")


def ext_vector_point(space):
    """v(k(x)) = beta."""
    return ExtVector(space, space.beta, "kx_orbit")


def signum_normalize(space, v, omega=None, epsilon=1):
    """Sign normalization of an extended Mukai vector.

    The sign is fixed by the alpha coefficient when nonzero, else by the
    sign of b(omega, lambda) for the Kaehler surrogate omega, else by the
    beta coefficient; the result is additionally multiplied by epsilon.
    """
    if epsilon not in (1, -1):
        raise SpaceError("epsilon must be +-1")
    coords = v.coords if isinstance(v, ExtVector) else tuple(Q(c) for c in v)
    r = coords[0]
    lam = space.h2_part(coords)
    if r != 0:
        sgn = 1 if r > 0 else -1
    elif not vec_is_zero(lam):
        if omega is None:
            raise SpaceError("very-general class required")
        c = space.bbf(tuple(Q(x) for x in omega), lam)
        if c == 0:
            raise SpaceError("very-general class required")
        sgn = 1 if c > 0 else -1
    else:
        s = coords[-1]
        if s == 0:
            raise SpaceError("zero vector has no signum")
        sgn = 1 if s > 0 else -1
    out = tuple(epsilon * sgn * c for c in coords)
    tag = v.orbit_tag if isinstance(v, ExtVector) else "plain"
    return ExtVector(space, out, tag)


class K3nLattices:
    """The distinguished lattices of a K3n-type space, of deformation type
    dtype and ambient Gram gram.  Lambda_LB and 3 Lambda_S + Z delta~ are
    made on the first read of `lam_lb` and `gamma_k`, and kept."""

    def __init__(self, dtype, gram, lam, lam_s, lam_g, alpha_tilde, delta_tilde):
        self.dtype = dtype
        self.gram = gram
        self.lam = lam
        self.lam_s = lam_s
        self.lam_g = lam_g
        self.alpha_tilde = alpha_tilde
        self.delta_tilde = delta_tilde

    @property
    @kept
    def lam_lb(self):
        return _line_bundle_lattice(self.dtype, self.gram)

    @property
    @kept
    def gamma_k(self):
        """3 Lambda_S + Z delta~, which B_{delta/3} preserves at n = 10."""
        rows = [tuple(3 * c for c in row) for row in self.lam_s.basis_in_ambient.entries()]
        return QuadLattice.from_basis(rows + [self.delta_tilde], self.gram,
                                      name="3 Lambda_S + Z delta~")


def k3n_tilde_vectors(space):
    """(alpha~, delta~) = (alpha - delta/2 + (1-n)/4 beta, delta + (n-1) beta)
    on a K3n-type space, delta the last H^2 basis vector."""
    if space.dtype.family != "K3n":
        raise SpaceError("the distinguished lattices need the K3n family")
    n = space.dtype.n
    delta = space.basis_vector(space.dim - 2)
    alpha_tilde = tuple(
        a - Q(1, 2) * d + Q(1 - n, 4) * b
        for a, d, b in zip(space.alpha, delta, space.beta)
    )
    delta_tilde = tuple(d + (n - 1) * b for d, b in zip(delta, space.beta))
    return alpha_tilde, delta_tilde


@kept
def k3n_lattices(space):
    """Lambda, Lambda_S, Lambda_g, Lambda_LB (made on first use) and the
    vectors involved, kept on the space.

    Basis orders:
      Lambda_S: (alpha~, K3 basis, beta)              (unimodular, rank 24)
      Lambda:   (alpha~, K3 basis, beta, delta~)      (rank 25)
      Lambda_g: (alpha~, K3 basis, beta, delta~/2)
    with alpha~ = alpha - delta/2 + (1-n)/4 beta and
    delta~ = delta + (n-1) beta.
    """
    alpha_tilde, delta_tilde = k3n_tilde_vectors(space)
    dim = space.dim
    k3_basis = [space.basis_vector(i) for i in range(1, dim - 2)]
    lam_s_rows = [alpha_tilde] + k3_basis + [space.beta]
    lam_s = QuadLattice.from_basis(lam_s_rows, space.gram, name="Lambda_S")
    lam = QuadLattice.from_basis(lam_s_rows + [delta_tilde], space.gram, name="Lambda")
    half_dt = tuple(Q(1, 2) * c for c in delta_tilde)
    lam_g = QuadLattice.from_basis(lam_s_rows + [half_dt], space.gram, name="Lambda_g")
    return K3nLattices(space.dtype, space.gram, lam, lam_s, lam_g, alpha_tilde, delta_tilde)


def _line_bundle_lattice(dtype, gram):
    """Integral span of all line-bundle vectors v(lambda), lambda in H^2(X,Z),
    in the extended Mukai space of dtype with Gram gram: that of v(0), the
    v(e_i) - v(0) = e_i + (G_ii / 2) beta and gcd(G_ij) beta, as v(lambda) -
    v(0) - sum l_i (v(e_i) - v(0)) is a Z-combination of the G_ij beta,
    each a second difference of v."""
    b2 = dtype.b2
    d, g = dtype.h2_gram.cleared()
    c = Q(gcd(*(x for r in g for x in r)), d)
    gens = [[1] + [0] * b2 + [dtype.r_x], [0] * (b2 + 1) + [c]]
    gens += [[0] + [int(i == j) for j in range(b2)] + [Q(g[i][i], 2 * d)] for i in range(b2)]
    den, ints = Mat(gens).cleared()
    rows = [tuple(Q(x, den) for x in row) for row in hnf_row_basis(ints)]
    return QuadLattice.from_basis(rows, gram, name="Lambda_LB")


def shifted_integral_lattice(space, gamma):
    """B_{-gamma/2}(Z.alpha + H^2(X,Z) + Z.beta) for an H^2 class gamma."""
    b = b_field(space, tuple(-Q(c) / 2 for c in gamma))
    rows = [b(space.basis_vector(i)) for i in range(space.dim)]
    return QuadLattice.from_basis(rows, space.gram, name="shifted integral lattice")


def membership(lat, v):
    """(contained, coords) for an ambient vector against an embedded lattice."""
    coords = v.coords if isinstance(v, ExtVector) else tuple(Q(c) for c in v)
    x = lat.coords_of_ambient(coords)
    if x is None or not vec_is_integral(x):
        return False, None
    return True, x


@kept
def _algebraic_span(space):
    """(S, F): the rows of S span Q.alpha + NS_Q + Q.beta and the rows of F
    are the linear forms that cut it out (a form f vanishes on the span iff
    S f = 0), F = Mat.zero(0, dim) when S spans the space; kept on the space."""
    span = Mat.from_rows([space.alpha, *map(space.h2_embed, space.ns_sublattice), space.beta])
    forms = kernel_basis(span)
    return span, Mat.from_rows(forms) if forms else Mat.zero(0, space.dim)


def split_algebraic(space, lat):
    """(algebraic, transcendental) parts of an embedded lattice.

    The algebraic part is the saturated intersection with
    Q.alpha + NS x Q + Q.beta; the transcendental part is its orthogonal
    complement inside the lattice.  Requires a designated NS and L in the
    space.
    """
    _require_in_space(space, lat)
    if space.ns_sublattice is None:
        raise SpaceError("no designated algebraic sublattice")
    # rows: one per form, evaluated on the lattice basis; kernel = coords of
    # lattice vectors inside the span (saturated automatically)
    coords = integer_kernel_basis(_algebraic_span(space)[1] * lat.basis_in_ambient.transpose())
    if coords:
        alg_rows = [lat.ambient_vector(c) for c in coords]
        alg = QuadLattice.from_basis(alg_rows, space.gram, name="algebraic part")
    else:
        alg = QuadLattice(Mat.zero(0, 0), Mat.zero(0, space.dim), space.gram,
                          name="algebraic part")
    if alg.rank == 0:
        return alg, lat
    gens = [lat.coords_of_ambient(alg.basis_in_ambient.row(i)) for i in range(alg.rank)]
    tr = orthogonal_complement(lat, gens)
    tr.name = "transcendental part"
    return alg, tr


def is_hodge_isometry(g, space):
    """Isometry preserving the (algebraic, transcendental) split; vacuous
    when no NS is designated.

    It suffices to check that the algebraic span is carried into itself,
    F M S^T = 0: the transcendental side is its orthogonal complement and g
    is an isometry.  g must be an isometry of `space`.
    """
    _require_space(space.gram, g.space.gram)
    if space.ns_sublattice is None:
        return True
    span, forms = _algebraic_span(space)
    return product(forms, g.matrix, span.transpose()) == Mat.zero(forms.rows, span.rows)


def b_field(space, lam):
    """The unipotent isometry B_lambda of the extended Mukai space:

        B(r alpha + mu + s beta)
            = r alpha + mu + r lambda + (s + b(lambda, mu) + r b(lambda, lambda)/2) beta

    for lambda in H^2, given by its b_2 coordinates.  B_lambda o B_mu =
    B_{lambda + mu}.  It is the Eichler transvection t(-beta, lambda).
    """
    lam = tuple(Q(c) for c in lam)
    if len(lam) != space.b2:
        raise SpaceError("lambda must be an H^2 vector")
    return eichler_transvection(space, (0,) * (space.dim - 1) + (-1,), (0,) + lam + (0,))


def rank_predicate_o_orbit(r, n):
    """|r| = a^n for an integer a; returns (ok, a or None).  n >= 1, and r
    an integer (an integral Fraction is taken as one)."""
    if n < 1:
        raise SpaceError("n must be >= 1")
    if type(r) is not int:
        r = _integral_rank(r)
    if r == 0:
        return True, 0
    a = _integer_nth_root(abs(r), n)
    if a is not None:
        return True, a
    return False, None


def _integral_rank(r):
    """int(r) for an integral r; a non-integral rank raises."""
    if r != int(r):
        raise SpaceError("rank must be an integer, got %r" % (r,))
    return int(r)


def kx_rank_core(r, n, c_int):
    """Integer core: the signed n-th-root numerator a_p when r = (a_p/a_q)^n
    n!/c for integers a_p, a_q, else None.  With g = gcd(r c, n!), a_q^n is
    n!/g; then a_q^n | n! and v_p(n!) < n for every prime p force a_q = 1,
    so r c must be a multiple of n! and a_p^n is r c / n!."""
    p, rem = divmod(r * c_int, factorial(n))
    if rem:
        return None
    if p < 0 and n % 2 == 0:
        return None
    a = _integer_nth_root(-p if p < 0 else p, n)
    if a is None:
        return None
    return -a if p < 0 else a


def rank_predicate_kx_orbit(r, n, c_x):
    """r = a^n n!/c_X for rational a; returns (ok, a, a_is_integral).

    For even n only |a| is determined; the returned witness is nonnegative.
    An integral c_X runs on integers: a = p/q in lowest terms needs
    q^n | n!, and v_p(n!) < n for every prime p, so q = 1 and a is the
    integer root of `kx_rank_core`.  n >= 1, r an integer and c_X nonzero."""
    if n < 1:
        raise SpaceError("n must be >= 1")
    if type(r) is not int:
        r = _integral_rank(r)
    c = c_x if type(c_x) is int else Q(c_x)  # an int has numerator and denominator too
    if not c:
        raise SpaceError("c_X must be nonzero")
    if c.denominator == 1:
        a = kx_rank_core(r, n, c.numerator)
        return (False, None, None) if a is None else (True, Q(a), True)
    x = Q(r) * c / factorial(n)  # a^n = x, a = p / q: integer roots of both
    p = _integer_nth_root(abs(x.numerator), n)
    q = _integer_nth_root(x.denominator, n)
    if p is None or q is None or (x < 0 and n % 2 == 0):
        return False, None, None
    return True, Q(-p if x < 0 else p, q), q == 1


def _integer_nth_root(m, n):
    """The integer a >= 0 with a^n = m, or None; exact for integers of any
    size.  n = 2 uses isqrt; otherwise Newton's method runs down to
    floor(m^(1/n)) from 2^ceil(bitlen(m) / n), which is above the root."""
    if m < 0:
        return None
    if m == 0 or n == 1:
        return m
    if n == 2:
        a = isqrt(m)
    else:
        a = 1 << -(-m.bit_length() // n)
        while True:
            b = ((n - 1) * a + m // a ** (n - 1)) // n
            if b >= a:
                break
            a = b
    return a if a**n == m else None


def in_hat_aut_plus(g, space, lattices=None):
    """Membership test for the plus-subgroup of the Lambda stabilizer.

    Conjunction of: preserves Lambda; preserves the algebraic/transcendental
    split when an NS is designated; real spinor norm +1; acts as +-id on the
    discriminant group.  Returns (ok, reasons) with one entry per check.
    """
    if lattices is None:
        lattices = k3n_lattices(space)
    reasons = {}
    reasons["preserves_lattice"] = preserves_lattice(g, lattices.lam)
    reasons["hodge"] = is_hodge_isometry(g, space)
    reasons["spinor_norm"] = spinor_norm(g) == 1
    if reasons["preserves_lattice"]:
        label, _ = disc_action(g, lattices.lam)
        reasons["disc_action"] = label in ("identity", "minus_identity")
    else:
        reasons["disc_action"] = False
    return all(reasons.values()), reasons
