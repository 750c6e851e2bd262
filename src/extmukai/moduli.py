"""Mukai vectors on a K3 surface and lattice invariants of their moduli.

Only the algebraic Mukai lattice U + NS(S) is modeled, with basis
((1,0,0), (0,0,1), NS-basis) and pairing

    <(r, c, s), (r', c', s')> = c.c' - r s' - r' s.

Operations: dimension of the moduli space, its Neron-Severi lattice as a
saturated orthogonal complement, the fineness criterion (existence of w
with <v, w> = 1), the discriminant index identity

    disc(NS(M)) * disc(Zv) = |K|^2 * disc(U + NS),   K = L / (Zv + v_perp),

and the summary of lattice-level invariants shared by derived partners.

Every operation reads the report of its Mukai vector, `lat.report(v)`: the
primitivity verdict, the integer square <v, v> and the divisibility, computed
at once, and NS(M), built when first asked for.  The lattice keeps the report
of the last v only, by value, since callers ask all their questions of one v
before the next.  A v that is not primitive raises on every call and leaves
nothing behind.
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
from .linalg import Mat, Q, kept, xgcd


class ModuliError(ValueError):
    pass


class MukaiReport:
    """A primitive Mukai vector v of the lattice L = U + NS: its integer
    square <v, v>, its divisibility (the gcd of <v, basis>) and, on first
    request, NS(M) = v_perp."""

    __slots__ = ("lattice", "v", "square", "order", "_kept_ns")

    def __init__(self, lattice, v):
        if not is_primitive(lattice, v):
            raise ModuliError("Mukai vector must be primitive")
        self.lattice, self.v = lattice, v
        self.square = int(lattice.norm(v))
        self.order = divisibility(lattice, v)

    @property
    @kept
    def ns(self):
        return orthogonal_complement(self.lattice, [self.v])


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
        self._last = None  # the report of the last v asked about

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

    def report(self, v):
        """The MukaiReport of a primitive v, kept for the last v only (a
        list and a tuple share it); a v that is not primitive raises."""
        v = tuple(v)
        last = self._last
        if last is None or last.v != v:
            last = self._last = MukaiReport(self.lattice, v)
        return last


def moduli_dimension(lat, v):
    """<v, v> + 2 for a primitive vector of square >= -2."""
    sq = lat.report(v).square
    if sq < -2:
        raise ModuliError("square below -2")
    return sq + 2


def ns_of_moduli(lat, v):
    """Saturated orthogonal complement of v: the NS lattice of the moduli space."""
    return lat.report(v).ns


def fineness(lat, v):
    """(fine, obstruction_order) with obstruction_order = gcd of <v, basis>.

    Fine iff the order is 1, i.e. iff some w pairs to 1 with v.
    """
    order = lat.report(v).order
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
        g, x, y = xgcd(g, a)
        coeffs = [x * c for c in coeffs]
        coeffs[i] += y
    return g, coeffs


def disc_lemma_check(lat, v):
    """The discriminant identity around N = Zv inside L = U + NS.

    Computes disc(NS(M)), |K| = [L : Zv + v_perp], verifies

        disc(NS(M)) * disc(Zv) = |K|^2 * disc(L)

    exactly, and the equivalences: fine <=> |K| = <v,v> <=> disc(NS(M)) =
    <v,v> * disc(L).  Requires <v, v> > 0.
    """
    sq = lat.report(v).square
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
    divides = sq % index == 0
    equiv = (fine == (index == sq)) and (fine == (disc_ns == sq * disc_l))
    witness = pairing_witness(lat, v)
    witness_ok = (witness is not None) == fine
    if witness is not None:
        witness_ok = witness_ok and lat.pairing(v, witness) == 1
    return {
        "square": sq,
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
    B the Gram of the generators g_i over its denominator D and m = D B,
    q(sum k_i g_i) = k^T B k mod 2Z is the integer k^T m k mod 2D, over D.

    The group is walked one generator at a time, each element carrying
    k^T m k mod 2D and m k mod D:  q(k + e_j) = q(k) + 2 (m k)_j + m_jj and
    m (k + e_j) = m k + m e_j, so an element costs O(rank) additions."""
    if disc.order > cap:
        return None
    gens = disc.generators
    d, m = Mat([[lat.pairing(g, h) for h in gens] for g in gens]).cleared()
    walk = [(0, (0,) * len(gens))]
    for j, n in enumerate(disc.cyclic_orders):
        steps = []
        for q, mk in walk:
            for _ in range(n):
                steps.append((q, mk))
                q = (q + 2 * mk[j] + m[j][j]) % (2 * d)
                mk = tuple((a + b) % d for a, b in zip(mk, m[j]))  # m e_j = row j
        walk = steps
    counts = Counter(q for q, _ in walk)
    return tuple(q for x, n in sorted(counts.items()) for q in (Q(x, d),) * n)


def partner_invariants(lat, v):
    """Lattice-level invariants shared by derived partners of the moduli space.

    The discriminant form enters through its canonical element-wise
    q-profile; per-generator q-values depend on the chosen presentation
    and are not invariants.
    """
    ns_m = ns_of_moduli(lat, v)
    disc = discriminant_group(ns_m) if ns_m.is_even() and ns_m.is_nondegenerate() else None
    fine, order = fineness(lat, v)
    return {
        "square": lat.report(v).square,
        "obstruction_order": order,
        "fine": fine,
        "ns_disc_orders": tuple(disc.cyclic_orders) if disc else (),
        "ns_disc_profile": disc_form_profile(ns_m, disc) if disc else (),
        "ns_det": ns_m.det(),
    }


def primitive_vectors_in_box(lat, bound):
    """All primitive vectors of U + NS with coordinates in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    return [tuple(map(Q, t)) for t in product(rng, repeat=lat.rank) if gcd(*t) == 1]
