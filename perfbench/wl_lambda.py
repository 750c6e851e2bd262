"""lambda-membership: plus-group words on the K3[n] lattice Lambda.

Puts the 25x25 exact linear algebra of linalg, lattice and isometry under
load.  The K3[n] lattice bundle is built once per n in set-up, so caching it
can show only in setup_s.

One round is, for each n in (2, 3, 5), in an order the seed shuffles:
  3 x word     a product of five plus-group generators in seed-shuffled
               order: B_lambda (lambda integral, entries in [-2, 2]),
               s_{alpha~+beta}, s_{delta~}, t(alpha~, a) and t(e1, a') with
               a, a' in Lambda cap e-perp (Lambda coordinates in [-2, 2])
  1 x half-B   control: a word with B_lambda ([-2, 2], one half-integral
               K3 coordinate) mixed in, which must move Lambda and Lambda_g
  1 x refl-2   control: a word with the reflection in a square-2 vector of
               the first two hyperbolic planes ([-3, 3]) mixed in, which
               keeps both lattices but has spinor norm -1
Controls cost about as much as words, so op_p50_ms sits in the middle of
one distribution.
Every op then runs preserves_lattice on Lambda and Lambda_g, spinor_norm,
disc_action on Lambda, and eichler_transport in Lambda from a primitive v
(coordinates in [-4, 4]) to its image under three transvections.  The kinds
and their counts are fixed; the seed draws only values and orders.
"""

from fractions import Fraction as Q

from common import (
    Op,
    draw_primitive,
    extended_gram,
    is_isometry_int,
    k3n_h2_gram,
    k3n_vectors,
    lambda_basis,
    lambda_gram,
    lambda_to_ambient,
    pair,
    transvect_int,
)

NAME = "lambda-membership"
ROUND_SECONDS = 12.0
PACED = True  # times scaled to the reference pace (pace.py)
PEAK_RSS_OF_CHILDREN = False
NS = (2, 3, 5)


class Fixed:
    """The fixed objects of one n: the program's and the oracle's."""

    def __init__(self, E, n):
        self.E = E
        self.n = n
        self.space = E.ExtMukaiSpace(E.k3n_type(n))
        self.lats = E.k3n_lattices(self.space)
        self.gram = extended_gram(k3n_h2_gram(n))
        self.lam_gram = lambda_gram(n)
        self.alpha_t, self.delta_t, self.beta = k3n_vectors(n)
        # lazy state the ops would otherwise fill on first use
        self.space.positive_basis()
        self.space.gram_inverse()
        self.lats.lam.coords_of_ambient(self.space.basis_vector(0))
        self.lats.lam_g.coords_of_ambient(self.space.basis_vector(0))


def setup(E, trace=False, lap=lambda: None):
    """`lap` marks the end of a set-up stage (a kernel sample, untimed)."""
    fixed = []
    for n in NS:
        fixed.append(Fixed(E, n))
        lap()
    return {"fixed": fixed}


def check_setup(state):
    for fx in state["fixed"]:
        lam, lam_g = fx.lats.lam, fx.lats.lam_g
        if [[int(x) for x in r] for r in fx.space.gram.entries()] != fx.gram:
            return False, "ambient Gram n=%d" % fx.n
        if [list(r) for r in lam.gram.entries()] != fx.lam_gram:
            return False, "Lambda Gram n=%d" % fx.n
        basis = lambda_basis(fx.n)
        if [tuple(r) for r in lam.basis_in_ambient.entries()] != basis:
            return False, "Lambda basis n=%d" % fx.n
        half = basis[:-1] + [tuple(c / 2 for c in basis[-1])]
        if [tuple(r) for r in lam_g.basis_in_ambient.entries()] != half:
            return False, "Lambda_g basis n=%d" % fx.n
    return True, ""


def _unit(i, dim=25):
    return tuple(Q(1) if j == i else Q(0) for j in range(dim))


def _add(u, v, c=1):
    return tuple(a + c * b for a, b in zip(u, v))


def _transport_pair(fx, rng):
    """(v, w): v primitive in Lambda coordinates, w = v moved by transvections
    along alpha~, beta, alpha~ (a in [-2, 2]), applied with plain integers."""
    g = fx.lam_gram
    v = draw_primitive(rng, 25, 4)
    w = v
    for idx, partner in ((0, 23), (23, 0), (0, 23)):  # b(e, f) = -1
        e = tuple(1 if i == idx else 0 for i in range(25))
        f = tuple(1 if i == partner else 0 for i in range(25))
        a0 = tuple(rng.randint(-2, 2) for _ in range(25))
        a = _add(a0, f, pair(g, e, a0))
        w = transvect_int(g, e, a, w)
    return v, w


def _transvection_data(fx, e, f, rng):
    """a in Lambda cap e-perp (Lambda coordinates in [-2, 2]), with b(e, f) = 1."""
    a0 = lambda_to_ambient(fx.n, [Q(rng.randint(-2, 2)) for _ in range(25)])
    return e, _add(a0, f, -pair(fx.gram, e, a0))


def _word_gens(fx, rng):
    lam = [rng.randint(-2, 2) for _ in range(23)]
    return [("B", lam), ("s", _add(fx.alpha_t, fx.beta)), ("s", fx.delta_t),
            ("t", _transvection_data(fx, fx.alpha_t, tuple(-c for c in fx.beta), rng)),
            ("t", _transvection_data(fx, _unit(1), _unit(2), rng))]


def _word_label(fx):
    """The word's one s_{delta~} acts as -1 on A(Lambda) = Z/(2n-2), which is
    +1 when n = 2; the other generators act trivially."""
    return "identity" if fx.n == 2 else "minus_identity"


def _word_op(fx, rng, kind="word", extra=None, want=None):
    """A plus-group word, optionally with one control generator mixed in."""
    gens = _word_gens(fx, rng) + ([extra] if extra else [])
    rng.shuffle(gens)
    return _op(kind, fx, gens, want or (True, True, 1, _word_label(fx)), rng)


def _half_b_op(fx, rng):
    """Control: a B-field with one half-integral K3 coordinate moves Lambda
    and Lambda_g, so the product does too and disc_action must raise."""
    lam = [rng.randint(-2, 2) for _ in range(23)]
    i = rng.randrange(22)
    lam[i] = Q(2 * lam[i] + 1, 2)
    return _word_op(fx, rng, "half-B", ("B", lam), (False, False, 1, "raised"))


def _refl2_op(fx, rng):
    """Control: the reflection in a square-2 vector of U + U keeps both
    lattices, acts trivially on A(Lambda) and flips the spinor norm."""
    p, q = rng.randint(-3, 3), rng.randint(-3, 3)
    v = [Q(0)] * 25
    v[1], v[2], v[3], v[4] = Q(1), Q(1 - p * q), Q(p), Q(q)  # square 2(1-pq) + 2pq
    return _word_op(fx, rng, "refl-2", ("s", tuple(v)), (True, True, -1, _word_label(fx)))


def _op(kind, fx, gens, want, rng):
    v, w = _transport_pair(fx, rng)
    vq, wq = tuple(Q(c) for c in v), tuple(Q(c) for c in w)

    def run():
        E, sp, lats = fx.E, fx.space, fx.lats
        g = None
        for tag, data in gens:
            if tag == "B":
                h = E.b_field(sp, data)
            elif tag == "s":
                h = E.reflection(sp, data)
            else:
                h = E.eichler_transvection(sp, *data)
            g = h if g is None else g.compose(h)
        pres = E.preserves_lattice(g, lats.lam)
        pres_g = E.preserves_lattice(g, lats.lam_g)
        spin = E.spinor_norm(g)
        try:
            label = E.disc_action(g, lats.lam)[0]
        except E.IsometryError:
            label = "raised"
        word = E.eichler_transport(lats.lam, vq, wq)
        return g.matrix.entries(), (pres, pres_g, spin, label), word

    def check(out):
        matrix, verdicts, word = out
        if not is_isometry_int(matrix, fx.gram):
            return False, "M^T G M != G"
        spin = 1
        for tag, data in gens:
            if tag == "s" and pair(fx.gram, data, data) > 0:
                spin = -spin
        if want[2] != spin:
            return False, "spinor oracle disagrees with the prediction"
        if verdicts != want:
            return False, "verdicts %r, expected %r" % (verdicts, want)
        if not hasattr(word, "pairs"):
            return False, "transport: %r" % (word,)
        x = v
        for e, a in word.pairs:
            x = transvect_int(fx.lam_gram, [int(c) for c in e], [int(c) for c in a], x)
        if x != w:
            return False, "transport word does not map v to w"
        return True, ""

    return Op(kind, run, check)


def make_round(state, rng):
    ops = []
    for fx in state["fixed"]:
        ops += [_word_op(fx, rng) for _ in range(3)]
        ops.append(_half_b_op(fx, rng))
        ops.append(_refl2_op(fx, rng))
    rng.shuffle(ops)
    return ops
