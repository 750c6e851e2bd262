"""Shared pieces of the benchmark: the op record and the oracles.

Every oracle here is computed from the mathematical definitions with plain
integers and `fractions.Fraction`; nothing in this module imports extmukai.
"""

import json
from fractions import Fraction
from math import factorial, gcd

Q = Fraction


class Op:
    """One timed operation.

    `run()` makes the program calls and returns their outputs; it is the only
    part that is timed.  `check(out)` compares the outputs with an oracle and
    returns (ok, detail); it runs untimed and untraced.  `known_fault` names
    a fault of the program that makes this op fail every time on its fixed
    inputs; such an op counts in `failed` without making the run incorrect.
    """

    __slots__ = ("kind", "run", "check", "known_fault")

    def __init__(self, kind, run, check, known_fault=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.known_fault = known_fault


# -- Gram matrices from their definitions ------------------------------------

# E8(-1) in Bourbaki node numbering: -2 on the diagonal, +1 on the edges.
E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[k + i][k + j] = x
        k += len(b)
    return out


def e8_minus():
    m = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in E8_EDGES:
        m[a - 1][b - 1] = m[b - 1][a - 1] = 1
    return m


U = [[0, 1], [1, 0]]


def k3_gram():
    return block_diag([U, U, U, e8_minus(), e8_minus()])


def k3n_h2_gram(n):
    return block_diag([k3_gram(), [[2 - 2 * n]]])


def kumn_h2_gram(n):
    return block_diag([U, U, U, [[-2 * n - 2]]])


def extended_gram(h2):
    """Basis (alpha, H^2 basis, beta) with b(alpha, beta) = -1."""
    n = len(h2) + 2
    g = [[0] * n for _ in range(n)]
    g[0][n - 1] = g[n - 1][0] = -1
    for i, row in enumerate(h2):
        for j, x in enumerate(row):
            g[1 + i][1 + j] = x
    return g


def lambda_gram(n):
    """Gram of Lambda on the basis (alpha~, K3 basis, beta, delta~)."""
    g = block_diag([[[0]], k3_gram(), [[0]], [[2 - 2 * n]]])
    g[0][23] = g[23][0] = -1
    return g


def pair(g, x, y):
    return sum(xi * sum(gij * yj for gij, yj in zip(g[i], y)) for i, xi in enumerate(x) if xi)


# -- K3[n] distinguished vectors in ambient coordinates ----------------------


def k3n_vectors(n):
    """(alpha~, delta~, beta) in ambient coordinates (alpha, e1..e22, delta, beta)."""
    alpha_t = [Q(0)] * 25
    alpha_t[0] = Q(1)
    alpha_t[23] = Q(-1, 2)
    alpha_t[24] = Q(1 - n, 4)
    delta_t = [Q(0)] * 25
    delta_t[23] = Q(1)
    delta_t[24] = Q(n - 1)
    beta = [Q(0)] * 25
    beta[24] = Q(1)
    return tuple(alpha_t), tuple(delta_t), tuple(beta)


def lambda_basis(n):
    """Rows of the Lambda basis (alpha~, e1..e22, beta, delta~), ambient coords."""
    alpha_t, delta_t, beta = k3n_vectors(n)
    rows = [alpha_t]
    for i in range(1, 23):
        rows.append(tuple(Q(1) if j == i else Q(0) for j in range(25)))
    rows.append(beta)
    rows.append(delta_t)
    return rows


def lambda_to_ambient(n, x):
    rows = lambda_basis(n)
    return tuple(sum(xi * r[k] for xi, r in zip(x, rows)) for k in range(25))


# -- integer and rational arithmetic -----------------------------------------


def draw_primitive(rng, length, bound, accept=lambda v: True):
    """A primitive integer vector with entries in [-bound, bound] that
    `accept` takes, by rejection."""
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(length))
        d = 0
        for x in v:
            d = gcd(d, x)
        if d == 1 and accept(v):
            return v


def int_nth_root_floor(m, n):
    """floor(m^(1/n)) for an integer m >= 0, by integer Newton steps."""
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // n)  # an upper bound
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def binom(x, k):
    """Generalised binomial coefficient C(x, k) for rational x."""
    out = Q(1)
    for i in range(k):
        out *= Q(x) - i
    return out / factorial(k)


def chi_k3n(q, n):
    """Ellingsrud-Goettsche-Lehn: chi(L) = C(q/2 + n + 1, n) on K3[n]."""
    return binom(Q(q) / 2 + n + 1, n)


def chi_kumn(q, n):
    """Britze-Nieper-Wisskirchen: chi(L) = (n+1) C(q/2 + n, n) on Kum_n."""
    return (n + 1) * binom(Q(q) / 2 + n, n)


def sqrt_todd_exp_value(q, n, c_x, r_x):
    """(1 + q/(2 r_X))^n c_X r_X^n / n!."""
    return (1 + Q(q) / (2 * r_x)) ** n * c_x * r_x**n / factorial(n)


def lefschetz_coefficient(j, k):
    return Q(factorial(j), factorial(j - 2 * k) * factorial(k) * 2**k)


def matching_sum(b):
    """Sum over perfect matchings of prod b[i][j] (b symmetric, even size)."""

    def rec(idx):
        if not idx:
            return Q(1)
        i, rest = idx[0], idx[1:]
        return sum((b[i][j] * rec(rest[:p] + rest[p + 1:])
                    for p, j in enumerate(rest) if b[i][j]), Q(0))

    return rec(tuple(range(len(b))))


def clear_denominators(rows):
    d = 1
    for r in rows:
        for x in r:
            den = Q(x).denominator
            d = d * den // gcd(d, den)
    return d, [[int(Q(x) * d) for x in r] for r in rows]


def is_isometry_int(matrix_rows, gram):
    """M^T G M = G, checked on integers after clearing the denominators of M."""
    d, m = clear_denominators(matrix_rows)
    n = len(gram)
    gm = [[sum(gram[i][k] * m[k][j] for k in range(n) if gram[i][k]) for j in range(n)]
          for i in range(n)]
    mt, gmt = list(zip(*m)), list(zip(*gm))
    d2 = d * d
    return all(
        sum(a * b for a, b in zip(mt[i], gmt[j])) == d2 * gram[i][j]
        for i in range(n) for j in range(n)
    )


def transvect_int(g, e, a, x):
    """t(e, a)(x) = x - b(a,x) e + b(e,x) a - (b(a,a)/2) b(e,x) e, even g."""
    be = pair(g, e, x)
    ba = pair(g, a, x)
    half = pair(g, a, a) // 2
    ce = -ba - half * be
    return tuple(xi + ce * ei + be * ai for xi, ei, ai in zip(x, e, a))


def is_canonical_json(text):
    """stdout is exactly the sorted-key, compact-separator dump plus newline."""
    try:
        obj = json.loads(text)
    except ValueError:
        return False, None
    return text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", obj
