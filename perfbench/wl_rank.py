"""rank-moduli: the integer arithmetic of the rank predicates and of moduli.

No 25x25 matrices: the target of the kx_rank_core work and a bypass case
for linalg.

One round is 20 ops in an order the seed shuffles:
  12 x window   one op per pair (n, c_X), n = 1..6, c_X in {1, n+1}: the
                WINDOW consecutive r from a start drawn in
                [-10^6, 10^6 - WINDOW], each through kx_rank_core and
                rank_predicate_kx_orbit; oracle: an enumeration of
                {a^n n!/c_X : a in Q} in the window, and a^n n!/c_X = r for
                every witness
   6 x moduli   two ops per NS in {<2>, <4>, U}: a primitive Mukai vector v
                of U + NS with coordinates in [-3, 3] and v^2 > 0, through
                moduli_dimension, fineness, ns_of_moduli, disc_lemma_check
                and partner_invariants; oracle: dimension v^2 + 2, fine iff
                the gcd of <v, basis> is 1, v-perp orthogonal to v with the
                right rank, all discriminant checks true
   2 x bigroot  fixed inputs above 2^1024: rank_predicate_o_orbit on a
                perfect square and its neighbours, and rank_predicate_kx_orbit
                on a^3 3! and its neighbours.  These fail every time while
                the predicates take float n-th roots (OverflowError).
"""

from fractions import Fraction as Q
from math import factorial, gcd

from common import Op, draw_primitive, int_nth_root_floor, pair

NAME = "rank-moduli"
ROUND_SECONDS = 0.1
PACED = False  # times stay as measured (README, "Host pace")
PEAK_RSS_OF_CHILDREN = False
WINDOW = 64
BOUND = 10**6
PAIRS = [(n, c) for n in range(1, 7) for c in (1, n + 1)]
NS_GRAMS = {"<2>": [[2]], "<4>": [[4]], "U": [[0, 1], [1, 0]]}
FAULT_FLOAT_ROOT = "float n-th root in spaces._integer_nth_root / kx_rank_core"
BIG_SQUARE_ROOT = 2**600 + 12345
BIG_CUBE_ROOT = 2**400 + 7


def setup(E, trace=False, lap=lambda: None):
    state = {"E": E, "lattices": {}}
    for name, g in NS_GRAMS.items():
        state["lattices"][name] = (E.AlgebraicMukaiLattice(E.Mat(g)), mukai_gram(g))
    # fill the residue tables of every (n, c_X) pair
    for n, c in PAIRS:
        E.spaces.kx_rank_core(0, n, c)
    return state


def check_setup(state):
    return True, ""


def mukai_gram(ns):
    """U(-1) + NS on the basis ((1,0,0), (0,0,1), NS basis)."""
    k = len(ns)
    g = [[0] * (k + 2) for _ in range(k + 2)]
    g[0][1] = g[1][0] = -1
    for i in range(k):
        for j in range(k):
            g[2 + i][2 + j] = ns[i][j]
    return g


def realisable(n, c, lo, hi):
    """{a^n n!/c : a in Q} cap Z cap [lo, hi].

    With a = p/q in lowest terms, q^n divides n!, so q is small; for each q
    the p with p^n n!/(q^n c) in range come from integer n-th roots.
    """
    fact = factorial(n)
    out = set()
    q = 1
    while q**n <= fact:
        den = q**n * c
        for sign in ((1, -1) if n % 2 else (1,)):
            # sign * p^n * fact / den in [lo, hi], p >= 0
            a, b = (lo, hi) if sign == 1 else (-hi, -lo)
            if b < 0:
                continue
            first = int_nth_root_floor(max(0, a) * den // fact, n)
            last = int_nth_root_floor(b * den // fact, n)
            for p in range(first, last + 1):
                num = p**n * fact
                if gcd(p, q) == 1 and num % den == 0 and a <= num // den <= b:
                    out.add(sign * (num // den))
        q += 1
    return out


def _window_op(E, n, c, rng):
    lo = rng.randint(-BOUND, BOUND - WINDOW)
    hi = lo + WINDOW - 1

    def run():
        core = [E.spaces.kx_rank_core(r, n, c) for r in range(lo, hi + 1)]
        pred = [E.rank_predicate_kx_orbit(r, n, c) for r in range(lo, hi + 1)]
        return core, pred

    def check(out):
        core, pred = out
        want = realisable(n, c, lo, hi)
        for r, got_core, (ok, a, _integral) in zip(range(lo, hi + 1), core, pred):
            if (got_core is not None) != (r in want) or ok != (r in want):
                return False, "n=%d c=%d r=%d realisable=%s" % (n, c, r, r in want)
            if ok and a**n * factorial(n) / c != r:
                return False, "witness n=%d c=%d r=%d" % (n, c, r)
        return True, ""

    return Op("window", run, check)


def _moduli_op(E, lat, g, rng):
    v = draw_primitive(rng, len(g), 3, lambda v: pair(g, v, v) > 0)
    vq = tuple(Q(x) for x in v)

    def run():
        return (
            E.moduli_dimension(lat, vq),
            E.fineness(lat, vq),
            E.ns_of_moduli(lat, vq),
            E.disc_lemma_check(lat, vq),
            E.partner_invariants(lat, vq),
        )

    def check(out):
        dim, (fine, order), ns_m, disc, inv = out
        sq = pair(g, v, v)
        d = 0
        for row in g:
            d = gcd(d, sum(a * b for a, b in zip(row, v)))
        if dim != sq + 2:
            return False, "dimension %s for v^2 = %d" % (dim, sq)
        if fine != (d == 1) or order != d:
            return False, "fineness (%s, %s), gcd %d" % (fine, order, d)
        rows = [[x for x in r] for r in ns_m.basis_in_ambient.entries()]
        if len(rows) != len(v) - 1 or any(pair(g, r, v) for r in rows):
            return False, "v-perp is not orthogonal to v or has the wrong rank"
        if not disc["all"] or disc["square"] != sq or disc["fine"] != (d == 1):
            return False, "disc_lemma_check %r" % (disc,)
        if inv["square"] != sq or inv["fine"] != (d == 1) or inv["obstruction_order"] != d:
            return False, "partner_invariants %r" % (inv,)
        return True, ""

    return Op("moduli", run, check)


def _bigroot_ops(E):
    m = BIG_SQUARE_ROOT**2

    def run_o():
        return [E.rank_predicate_o_orbit(x, 2) for x in (m - 1, m, m + 1)]

    def check_o(out):
        want = [(False, None), (True, BIG_SQUARE_ROOT), (False, None)]
        return out == want, "o-orbit verdicts %r" % (out,)

    r = BIG_CUBE_ROOT**3 * factorial(3)

    def run_kx():
        return [E.rank_predicate_kx_orbit(x, 3, 1) for x in (r - 1, r, r + 1)]

    def check_kx(out):
        want = [(False, None, None), (True, Q(BIG_CUBE_ROOT), True), (False, None, None)]
        return out == want, "k(x)-orbit verdicts %r" % (out,)

    return [Op("bigroot", run_o, check_o, FAULT_FLOAT_ROOT),
            Op("bigroot", run_kx, check_kx, FAULT_FLOAT_ROOT)]


def make_round(state, rng):
    E = state["E"]
    ops = [_window_op(E, n, c, rng) for n, c in PAIRS]
    for lat, g in state["lattices"].values():
        ops += [_moduli_op(E, lat, g, rng) for _ in range(2)]
    ops += _bigroot_ops(E)
    rng.shuffle(ops)
    return ops
