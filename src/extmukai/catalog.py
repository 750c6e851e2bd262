"""Named isometries of the extended Mukai lattice induced by derived
equivalences of Hilbert schemes of K3 surfaces, with sign metadata.

Catalog keys:

  shift               the shift functor [1]: -id
  tensor_line_bundle  tensoring by a line bundle with class lambda: B_lambda
  sign_equivalence    the equivariant sign twist: v = delta~
  spherical_P         the P-twist along O lifted to the Hilbert scheme:
                      v = alpha~ + beta
  fm_ext1             the relative extension-sheaf twist (n = 2 only):
                      v = alpha~ + beta
  horja_EZ            the EZ-twist along the exceptional divisor (n = 2
                      only): v = delta~ + beta
  poincare            the relative Poincare kernel of a Lagrangian
                      fibration, on its rank-4 algebraic subspace
  dn_transfer         transfer of a surface-level derived action g to the
                      Hilbert scheme: det(g)^{n+1} B_{-delta/2} iota(g) B_{delta/2}

The four keys with a vector v are the reflection twists of REFLECTION_TWISTS,
and one rule builds them all: (-1)^{n+1} s_v, that is s_v composed with -id
for even n.

For even n the functor-level sign epsilon = det of the induced isometry is
stored alongside, never silently applied; for odd n it is None (the
convention fixes it to 1).
"""

from .isometry import Isometry, minus_identity, reflection
from .linalg import Mat, Q, solve_linear, vec_add
from .spaces import (
    ExtMukaiSpace,
    b_field,
    custom_type,
    ext_vector_line_bundle,
    k3_surface_type,
    k3n_tilde_vectors,
)


class CatalogError(ValueError):
    pass


class NamedAction:
    """A cataloged isometry with its sign metadata and origin label."""

    def __init__(self, key, space, iso, epsilon, provenance):
        self.key = key
        self.space = space
        self.iso = iso
        self.epsilon = epsilon
        self.provenance = provenance

    def __repr__(self):
        eps = "n/a" if self.epsilon is None else str(self.epsilon)
        return "<NamedAction %s eps=%s>" % (self.key, eps)


CATALOG_KEYS = (
    "shift",
    "tensor_line_bundle",
    "sign_equivalence",
    "spherical_P",
    "fm_ext1",
    "horja_EZ",
    "poincare",
    "dn_transfer",
)


def k3_extended_space():
    """The rank-24 extended Mukai space of a K3 surface itself."""
    return ExtMukaiSpace(k3_surface_type())


# key -> (the reflection vector v as a function of (alpha~, delta~, beta),
# the one n the key exists at or None, provenance)
REFLECTION_TWISTS = {
    "sign_equivalence": (lambda at, dt, beta: dt, None, "equivariant sign twist"),
    "spherical_P": (lambda at, dt, beta: vec_add(at, beta), None,
                    "spherical twist along the structure sheaf, lifted"),
    "fm_ext1": (lambda at, dt, beta: vec_add(at, beta), 2,
                "relative extension-sheaf twist (dim 4)"),
    "horja_EZ": (lambda at, dt, beta: vec_add(dt, beta), 2,
                 "EZ-twist along the exceptional divisor (dim 4)"),
}


def action(space, key, lam=None, g=None, genus=None):
    """Build a cataloged NamedAction on the given K3n-type space.

    Parameters: `lam` (H^2 class) for tensor_line_bundle; `g` (isometry of
    the rank-24 K3 extended space) for dn_transfer; `genus` for poincare
    (which ignores `space` and lives on its own rank-4 space).
    """
    if key not in CATALOG_KEYS:
        raise CatalogError("unknown catalog key %r" % (key,))
    if key == "poincare":
        if genus is None or genus < 2:
            raise CatalogError("poincare needs a genus parameter >= 2")
        model = PoincareModel(genus)
        return NamedAction(
            "poincare", model.space, model.exchange_isometry(), None,
            "relative Poincare kernel of a Lagrangian fibration (genus %d)" % genus,
        )
    n = space.dtype.n
    even = n % 2 == 0

    if key == "shift":
        iso = minus_identity(space)
        eps = -1 if even else None  # det(-id) = -1 on the odd-dimensional space
        return NamedAction(key, space, iso, eps, "shift functor [1]")

    if key == "tensor_line_bundle":
        if lam is None:
            raise CatalogError("tensor_line_bundle needs a class lambda")
        iso = b_field(space, lam)
        return NamedAction(key, space, iso, 1 if even else None,
                           "tensor by a line bundle")

    tilde = k3n_tilde_vectors(space)  # SpaceError off K3n, ahead of the checks below

    if key == "dn_transfer":
        if g is None:
            raise CatalogError("dn_transfer needs an isometry of the K3 extended space")
        iso = dn_transfer(space, g)
        return NamedAction(key, space, iso, None,
                           "Hilbert-scheme transfer of a surface derived action")

    vector, only_n, provenance = REFLECTION_TWISTS[key]
    if only_n not in (None, n):
        raise CatalogError("%s is only defined for n = %d" % (key, only_n))
    iso = reflection(space, vector(*tilde, space.beta))
    if even:
        iso = minus_identity(space).compose(iso)
    return NamedAction(key, space, iso, 1 if even else None, provenance)


def dn_transfer(space, g):
    """det(g)^{n+1} B_{-delta/2} o iota(g) o B_{delta/2} on the K3n space.

    iota extends an isometry of the rank-24 K3 extended space by fixing the
    exceptional half-class direction delta.
    """
    if space.dtype.family != "K3n":
        raise CatalogError("dn_transfer lands on a K3n-type space")
    if g.space.gram != k3_extended_space().gram:
        raise CatalogError("dn_transfer starts from the rank-24 K3 extended space")
    n = space.dtype.n
    dim = space.dim
    # g's rows and columns are alpha, the K3 basis, beta; delta (dim - 2) is
    # inserted before beta as a fixed direction
    rows = [(*row[:-1], 0, row[-1]) for row in g.matrix.entries()]
    rows.insert(dim - 2, (0,) * (dim - 2) + (1, 0))
    iota_g = Isometry(space, Mat(rows), check=False)
    half_delta = (0,) * (space.b2 - 1) + (Q(1, 2),)
    b_minus = b_field(space, [-c for c in half_delta])
    b_plus = b_field(space, half_delta)
    out = b_minus.compose(iota_g).compose(b_plus)
    if g.det ** (n + 1) == -1:
        out = minus_identity(space).compose(out)
    return out


# -- relative Poincare --------------------------------------------------------


class PoincareModel:
    """The rank-4 algebraic space of the degree-0 relative compactified
    Jacobian of a genus-g linear system: span(alpha, lambda, f, beta) with
    NS Gram [[2g-2, 2], [2, 0]]."""

    def __init__(self, genus):
        if genus < 2:
            raise CatalogError("genus must be >= 2")
        self.genus = genus
        ns = Mat([[2 * genus - 2, 2], [2, 0]])
        self.space = ExtMukaiSpace(custom_type(genus, 1, Q(genus + 3, 4), ns))
        g = genus
        # h = -lambda/2 + (g-1)/4 f + (g+1)/2 beta
        self.h = (Q(0), Q(-1, 2), Q(g - 1, 4), Q(g + 1, 2))
        self.f = self.space.basis_vector(2)
        self.lam = self.space.basis_vector(1)

    def exchange_isometry(self):
        """alpha -> h, h -> alpha, beta -> f, f -> beta (determines lambda)."""
        g = self.genus
        # lambda image solved from h -> alpha
        lam_img = (Q(-2), Q(0), Q(g + 1), Q(g - 1, 2))
        cols = [self.h, lam_img, self.space.beta, self.f]
        return Isometry(self.space, Mat.from_columns(cols))

    def section_vector(self):
        """Extended Mukai vector of the structure sheaf of the zero section:
        lambda/2 - (g+1)/2 f + (g+1)/2 beta."""
        g = self.genus
        return (Q(0), Q(1, 2), Q(-(g + 1), 2), Q(g + 1, 2))


def poincare_checks(genus):
    """Verification report for the Poincare exchange at the given genus."""
    model = PoincareModel(genus)
    sp = model.space
    g = genus
    iso = model.exchange_isometry()
    checks = []

    def add(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": str(detail)})

    qh = sp.norm(model.h)
    add("q(h) = 0", qh == 0, qh)
    bfh = sp.pairing(model.f, tuple(-c for c in model.h))
    add("b(f, -h) = 1", bfh == 1, bfh)
    eq = (iso.matrix.transpose() * sp.gram * iso.matrix) == sp.gram
    add("isometry of the rank-4 space", eq)
    # exchanges the hyperbolic planes span(alpha, beta) and span(f, h)
    img_a, img_b = iso(sp.alpha), iso(sp.beta)
    in_fh = lambda v: _in_span(v, [model.f, model.h])
    in_ab = lambda v: _in_span(v, [sp.alpha, sp.beta])
    add("alpha, beta map into span(f, h)", in_fh(img_a) and in_fh(img_b))
    add("f, h map into span(alpha, beta)",
        in_ab(iso(model.f)) and in_ab(iso(model.h)))
    add("h maps to alpha", iso(model.h) == sp.alpha)
    # the image of the section vector is minus a line-bundle vector with
    # first Chern class -(g+1) f
    img_s = iso(model.section_vector())
    lb = ext_vector_line_bundle(sp, (Q(0), Q(-(g + 1))))
    add("section vector maps to -v(line bundle with class -(g+1) f)",
        img_s == tuple(-c for c in lb.coords), img_s)
    # involution on the rank-4 space
    add("exchange squares to the identity", iso.compose(iso).is_identity())
    # remark-level comparison map into the principally-polarized partner:
    # beta -> f', f -> beta', alpha -> -e' + (g+1)/2 beta', h -> alpha'
    ns2 = Mat([[0, 1], [1, 0]])
    sp2 = ExtMukaiSpace(custom_type(g, 1, Q(g + 3, 4), ns2))
    e2 = sp2.basis_vector(1)
    f2 = sp2.basis_vector(2)
    src = [sp.alpha, model.h, model.f, sp.beta]
    img = [
        tuple(-a + Q(g + 1, 2) * b for a, b in zip(e2, sp2.beta)),
        sp2.alpha,
        sp2.beta,
        f2,
    ]
    ok = all(
        sp.pairing(src[i], src[j]) == sp2.pairing(img[i], img[j])
        for i in range(4)
        for j in range(4)
    )
    add("comparison map to the U-polarized partner preserves pairings", ok)
    return checks


def _in_span(v, gens):
    return solve_linear(Mat.from_rows(gens).transpose(), v) is not None
