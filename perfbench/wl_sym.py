"""sym-identities: the Verbitsky layer on small restricted spaces.

Puts verbitsky under load where linalg does little: it is the bypass case
for 25x25 kernel work.  Each op builds fresh restricted spaces, so inputs
share nothing and every per-space cache misses.

One round is 4 ops.  An op draws, for each of K3[n] (n = 2..6) and Kum_n
(n = 2..4), a class lambda and a second class nu (H^2 entries in [-2, 2],
nu redrawn until b(nu, nu) != 0) and an
isotropic class mu = (st, -uw, su, tw) on the first two hyperbolic planes
(s, t, u, w in [-3, 3], mu != 0), and runs on that entry:
  euler_char_line_bundle(lambda)                      oracle: EGL / BNW
  sum_k (-1)^k/k! pair_with_sh(lambda^k, sqrt-Todd)    oracle: closed form
  sqrt_todd_bar and todd_bar on <nu>                 oracle: in ker(Laplacian),
                                                      project_t idempotent
  laplacian(mu^n)                                     oracle: zero
  e_lambda^j(alpha^8/8!) for j = 1..8                 oracle: j!/((j-2k)! k! 2^k)
"""

import random
from collections import defaultdict
from fractions import Fraction as Q
from math import factorial

from common import (
    Op,
    chi_k3n,
    chi_kumn,
    k3n_h2_gram,
    kumn_h2_gram,
    lefschetz_coefficient,
    pair,
    sqrt_todd_exp_value,
)

NAME = "sym-identities"
ROUND_SECONDS = 0.9
PACED = True  # times scaled to the reference pace (pace.py)
PEAK_RSS_OF_CHILDREN = False
ENTRIES = [("K3n", n) for n in range(2, 7)] + [("Kumn", n) for n in range(2, 5)]
CHAIN = 8  # Lefschetz chain length and symmetric degree of its start


class Entry:
    def __init__(self, E, family, n):
        self.family, self.n = family, n
        if family == "K3n":
            self.space = E.ExtMukaiSpace(E.k3n_type(n))
            self.h2 = k3n_h2_gram(n)
            self.c_x, self.r_x = Q(1), Q(n + 3, 4)
        else:
            self.space = E.ExtMukaiSpace(E.kumn_type(n))
            self.h2 = kumn_h2_gram(n)
            self.c_x, self.r_x = Q(n + 1), Q(n + 1, 4)


def setup(E, trace=False, lap=lambda: None):
    state = {"E": E, "entries": [Entry(E, fam, n) for fam, n in ENTRIES]}
    make_op(state, random.Random(0)).run()  # warm-up on fixed inputs
    return state


def check_setup(state):
    for en in state["entries"]:
        got = [[int(x) for x in r] for r in en.space.dtype.h2_gram.entries()]
        if got != en.h2 or en.space.dtype.c_x != en.c_x or en.space.dtype.r_x != en.r_x:
            return False, "invariants of %s n=%d" % (en.family, en.n)
    return True, ""


def laplacian_oracle(coeffs, g):
    """Contraction over position pairs of each monomial (a, m, c)."""
    out = defaultdict(Q)
    for (a, m, c), v in coeffs.items():
        if a and c:
            out[(a - 1, m, c - 1)] -= v * a * c
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                b = g[m[i]][m[j]]
                if b:
                    out[(a, m[:i] + m[i + 1:j] + m[j + 1:], c)] += v * b
    return {k: v for k, v in out.items() if v}


def power_coeffs(vec, n):
    """vec^n in Sym^n on the monomial basis, keys (0, sorted multiset, 0)."""
    terms = {(): Q(1)}
    for _ in range(n):
        nxt = defaultdict(Q)
        for m, v in terms.items():
            for i, c in enumerate(vec):
                if c:
                    nxt[tuple(sorted(m + (i,)))] += v * c
        terms = nxt
    return {(0, m, 0): v for m, v in terms.items() if v}


def _draw(en, rng):
    b2 = len(en.h2)
    lam = [rng.randint(-2, 2) for _ in range(b2)]
    while True:
        nu = [rng.randint(-2, 2) for _ in range(b2)]
        if pair(en.h2, nu, nu):
            break
    while True:
        s, t, u, w = (rng.randint(-3, 3) for _ in range(4))
        mu = [s * t, -u * w, s * u, t * w] + [0] * (b2 - 4)
        if any(mu):
            break
    return lam, nu, mu


def make_op(state, rng):
    E = state["E"]
    inputs = []
    for en in state["entries"]:
        lam, nu, mu = _draw(en, rng)
        mu_n = E.SymElement(en.space, en.n, power_coeffs(mu, en.n))
        inputs.append((en, lam, nu, mu_n))

    def run():
        out = []
        for en, lam, nu, mu_n in inputs:
            sp, n = en.space, en.n
            chi = E.euler_char_line_bundle(sp, lam)
            small = E.restricted_space(sp, [lam])
            arg = E.sqrt_todd_argument(small)
            exp_total = Q(0)
            for k in range(2 * n + 1):
                exp_total += Q((-1) ** k, factorial(k)) * E.pair_with_sh(small, [(Q(1),)] * k, arg)
            rs = E.restricted_space(sp, [nu])
            bars = (E.sqrt_todd_bar(rs), E.todd_bar(rs))
            lap = E.laplacian(mu_n)
            y = E.SymElement.alpha_power(small, CHAIN)
            chain = [y]
            for _ in range(CHAIN):
                y = E.lefschetz_e((Q(1),), y)
                chain.append(y)
            out.append((chi, exp_total, bars, lap, chain))
        return out

    def check(out):
        for (en, lam, nu, mu_n), (chi, exp_total, bars, lap, chain) in zip(inputs, out):
            n, q = en.n, pair(en.h2, lam, lam)
            tag = "%s n=%d" % (en.family, n)
            want = chi_k3n(q, n) if en.family == "K3n" else chi_kumn(q, n)
            if chi != want:
                return False, "%s chi %s != %s" % (tag, chi, want)
            want = sqrt_todd_exp_value(q, n, en.c_x, en.r_x)
            if exp_total != want:
                return False, "%s sqrt-Todd exponential %s != %s" % (tag, exp_total, want)
            for x in bars:
                if laplacian_oracle(x.coeffs, [[pair(en.h2, nu, nu)]]):
                    return False, "%s projection leaves ker(Laplacian)" % tag
                if E.project_t(x) != x:
                    return False, "%s project_t is not idempotent" % tag
            if lap.coeffs or laplacian_oracle(mu_n.coeffs, en.h2):
                return False, "%s Laplacian(mu^n) != 0" % tag
            for j, y in enumerate(chain):
                seen = dict(y.coeffs)
                for k in range(j // 2 + 1):
                    key = (CHAIN - j + k, (0,) * (j - 2 * k), k)
                    want = lefschetz_coefficient(j, k) * Q(q) ** k / factorial(CHAIN - j + k)
                    if seen.pop(key, Q(0)) != want:
                        return False, "%s Lefschetz j=%d k=%d" % (tag, j, k)
                if seen:
                    return False, "%s Lefschetz j=%d extra monomials" % (tag, j)
        return True, ""

    return Op("entries", run, check)


def make_round(state, rng):
    return [make_op(state, rng) for _ in range(4)]
