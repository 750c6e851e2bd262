"""Mukai vectors on a K3 surface and lattice invariants of their moduli.

Only the algebraic Mukai lattice U + NS(S) is modeled, with basis
((1,0,0), (0,0,1), NS-basis) and pairing

    <(r, c, s), (r', c', s')> = c.c' - r s' - r' s.

Operations: dimension of the moduli space, its Neron-Severi lattice as a
saturated orthogonal complement, the fineness criterion (existence of w
with <v, w> = 1), the discriminant index identity

    disc(NS(M)) * disc(Zv) = |K|^2 * disc(U + NS),   K = L / (Zv + v_perp),

and the summary of lattice-level invariants shared by derived partners.
"""

from collections import Counter
from itertools import product
from math import gcd

from .isometry import QuadSpace, eichler_transvection
from .lattice import (
    QuadLattice,
    discriminant_group,
    divisibility,
    is_primitive,
    orthogonal_complement,
)
from .linalg import Mat, Q, xgcd


class ModuliError(ValueError):
    pass


class AlgebraicMukaiLattice:
    """U + NS(S) with basis ((1,0,0), (0,0,1), NS-basis)."""

    def __init__(self, ns_gram):
        if not ns_gram.is_symmetric():
            raise ModuliError("NS gram must be symmetric")
        self.ns_gram = ns_gram
        self.rho = ns_gram.rows
        self.lattice = QuadLattice(
            Mat.block_diagonal([Mat([[0, -1], [-1, 0]]), ns_gram]),
            name="U + NS",
        )
        if not self.lattice.is_even():
            raise ModuliError("NS must be an even lattice")
        self.rank = self.lattice.rank

    def vector(self, r, c, s):
        """Coordinates of the Mukai vector (r, c, s)."""
        c = tuple(Q(x) for x in c)
        if len(c) != self.rho:
            raise ModuliError("NS part of length %d expected" % self.rho)
        return (Q(r), Q(s)) + c

    def pairing(self, v, w):
        return self.lattice.pairing(v, w)

    def square(self, v):
        return self.lattice.pairing(v, v)

    def b_field(self, mu):
        """The isometry (r, c, s) -> (r, c + r mu, s + c.mu + r mu^2/2): the
        Eichler transvection t(-(0,0,1), mu)."""
        e, a = self.vector(0, (0,) * self.rho, -1), self.vector(0, mu, 0)
        return eichler_transvection(QuadSpace(self.lattice.gram), e, a).matrix


def _require_primitive(lat, v):
    if not is_primitive(lat.lattice, v):
        raise ModuliError("Mukai vector must be primitive")


def moduli_dimension(lat, v):
    """<v, v> + 2 for a primitive vector of square >= -2."""
    _require_primitive(lat, v)
    sq = lat.square(v)
    if sq < -2:
        raise ModuliError("square below -2")
    return int(sq) + 2


def ns_of_moduli(lat, v):
    """Saturated orthogonal complement of v: the NS lattice of the moduli space."""
    _require_primitive(lat, v)
    return orthogonal_complement(lat.lattice, [v])


def fineness(lat, v):
    """(fine, obstruction_order) with obstruction_order = gcd of <v, basis>.

    Fine iff the order is 1, i.e. iff some w pairs to 1 with v.
    """
    _require_primitive(lat, v)
    order = divisibility(lat.lattice, v)
    return order == 1, order


def pairing_witness(lat, v):
    """A vector w with <v, w> = 1, or None (independent fineness route)."""
    pairings = [int(p) for p in lat.lattice.gram.apply(v)]
    # extended euclid across the pairing values
    g, coeffs = _ext_gcd_list(pairings)
    if abs(g) != 1:
        return None
    sign = 1 if g == 1 else -1
    return tuple(Q(sign * c) for c in coeffs)


def _ext_gcd_list(values):
    g = 0
    coeffs = [0] * len(values)
    for i, a in enumerate(values):
        if a == 0:
            continue
        if g == 0:
            g = a
            coeffs = [0] * len(values)
            coeffs[i] = 1
            continue
        d, x, y = xgcd(g, a)
        coeffs = [x * c for c in coeffs]
        coeffs[i] += y
        g = d
    return g, coeffs


def disc_lemma_check(lat, v):
    """The discriminant identity around N = Zv inside L = U + NS.

    Computes disc(NS(M)), |K| = [L : Zv + v_perp], verifies

        disc(NS(M)) * disc(Zv) = |K|^2 * disc(L)

    exactly, and the equivalences: fine <=> |K| = <v,v> <=> disc(NS(M)) =
    <v,v> * disc(L).  Requires <v, v> > 0.
    """
    _require_primitive(lat, v)
    sq = lat.square(v)
    if sq <= 0:
        raise ModuliError("the discriminant identity needs <v, v> > 0")
    ns_m = ns_of_moduli(lat, v)
    disc_ns = ns_m.det()
    disc_l = lat.lattice.det()
    # index of Zv + v_perp in L via the coordinate matrix
    rows = [v] + [ns_m.basis_in_ambient.row(i) for i in range(ns_m.rank)]
    m = Mat.from_rows(rows)
    if m.rows != lat.rank:
        raise ModuliError("unexpected corank")
    index = abs(m.det())
    if index.denominator != 1:
        raise ModuliError("non-integral index")
    index = index.numerator
    fine, order = fineness(lat, v)
    identity_holds = disc_ns * sq == index**2 * disc_l
    divides = int(sq) % index == 0
    equiv = (fine == (index == sq)) and (fine == (disc_ns == sq * disc_l))
    witness = pairing_witness(lat, v)
    witness_ok = (witness is not None) == fine
    if witness is not None:
        witness_ok = witness_ok and lat.pairing(v, witness) == 1
    return {
        "square": int(sq),
        "disc_ns_moduli": disc_ns,
        "disc_ambient": disc_l,
        "index_K": index,
        "obstruction_order": order,
        "fine": fine,
        "identity_holds": identity_holds,
        "K_divides_square": divides,
        "fineness_equivalences": equiv,
        "witness_consistent": witness_ok,
        "all": identity_holds and divides and equiv and witness_ok,
    }


def disc_form_profile(lat, disc, cap=4096):
    """Canonical profile of the discriminant form: the sorted multiset of
    q-values over all group elements (a presentation-free invariant).  With
    B the Gram of the generators g_i over its denominator D, q(sum k_i g_i) =
    k^T B k mod 2Z is the integer k^T (D B) k mod 2D, over D."""
    if disc.order > cap:
        return None
    gens = disc.generators
    d, m = Mat([[lat.pairing(g, h) for h in gens] for g in gens]).cleared()
    counts = Counter(
        sum(a * b * x for a, row in zip(ks, m) for b, x in zip(ks, row)) % (2 * d)
        for ks in product(*map(range, disc.cyclic_orders))
    )
    return tuple(q for x, n in sorted(counts.items()) for q in (Q(x, d),) * n)


def partner_invariants(lat, v):
    """Lattice-level invariants shared by derived partners of the moduli space.

    The discriminant form enters through its canonical element-wise
    q-profile; per-generator q-values depend on the chosen presentation
    and are not invariants.
    """
    _require_primitive(lat, v)
    ns_m = ns_of_moduli(lat, v)
    disc = discriminant_group(ns_m) if ns_m.is_even() and ns_m.is_nondegenerate() else None
    fine, order = fineness(lat, v)
    return {
        "square": int(lat.square(v)),
        "obstruction_order": int(order),
        "fine": fine,
        "ns_disc_orders": tuple(disc.cyclic_orders) if disc else (),
        "ns_disc_profile": disc_form_profile(ns_m, disc) if disc else (),
        "ns_det": ns_m.det(),
    }


def primitive_vectors_in_box(lat, bound):
    """All primitive vectors of U + NS with coordinates in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    return [tuple(map(Q, t)) for t in product(rng, repeat=lat.rank) if gcd(*t) == 1]
