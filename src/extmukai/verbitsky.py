"""The graded Sym^n model of the Verbitsky component.

Elements of Sym^n of the extended Mukai space are stored on the monomial
basis alpha^a . m . beta^c with m a multiset of H^2 basis indices,
a + |m| + c = n, graded by cohomological degree 2(|m| + 2c).

The machinery implements:

  * the Mukai-type pairing b_[n](x_1...x_n, y_1...y_n)
        = (-1)^n c_X sum_sigma prod b(x_i, y_sigma(i)),
  * the Laplacian contraction Sym^n -> Sym^{n-2},
  * the Lefschetz action e_omega (alpha -> omega, mu -> b(omega, mu) beta,
    beta -> 0, extended as a derivation),
  * the embedding psi(omega_1...omega_k) = e_{omega_1}...e_{omega_k}(alpha^n / n!)
    of the Verbitsky component, and
    b_SH(m, T(x)) = b_[n](psi(m), x) without building psi (below),
  * the orthogonal projection T onto ker(Laplacian), the harmonic part
    sum_k c_k q*^k Laplacian^k(x), q* the dual form of the ambient Gram,
  * square-root-of-Todd and Todd linearisations, integrals of products of
    divisor classes, and Euler characteristics of line bundles.

A `SymElement` has one stored representation: a denominator d > 0 and a
dict of nonzero integer numerators, in lowest terms, as a `Mat` keeps d and
the integer rows of d * M.  Every kernel runs on those integers
and on the H^2 Gram read as integer rows d * G (`Mat.cleared`) or products
(d G) w (`Mat.int_product`), with H^2 classes cleared to integers over their
own denominator; a result is one denominator and one dict of numerators,
and a scalar (a pairing) is one `Fraction`.  `Fraction` coefficients appear
only at the boundary: `coeffs`, `coefficient` and `repr`.

The pairing buckets the monomials of y by their alpha and beta degrees, so
a monomial of x meets only the monomials it can pair with, and the H^2
block of a pair is a permanent computed by a dynamic program over the
multiplicities of its distinct columns (on a rank-r restricted space at most
r distinct columns, whatever the symmetric degree).

b_SH by apolarity (Iarrobino and Kanev, Power Sums, Gorenstein Algebras,
and Determinantal Loci, ch. 1): b_[n](l^n / n!, v_1...v_n) = (-1)^n c_X
prod b(l, v_i), and exp(sum t_i e_{omega_i})(alpha^n / n!) = l^n / n! for
l = alpha + omega + q/2 beta, omega = sum t_i omega_i, q = b(omega, omega).
So b_SH(omega_1^m_1 ... omega_s^m_s, T(x)) is (-1)^n c_X prod m_i! times
the coefficient of prod t_i^m_i in x, read as a polynomial, evaluated at
alpha -> -q/2, h_i -> (G omega)_i, beta -> -1 (`_apolar`): k! times one
value for one class, a finite difference over a grid of classes for mixed
ones.  An exponential sum sum_k (-1)^k / k! b_SH(lam^k, x) is the value at
omega = -lam, so chi(L) is c_X prod_s (q/2 + s) / n! for a Todd product of
shifts s (Ellingsrud, Goettsche and Lehn for K3[n]).

Every identity checked downstream is a universal polynomial identity in
the Gram entries, so expensive full-rank evaluations can be routed through
`restricted_space`, the subspace spanned by the vectors that actually
occur; the numbers produced are identical to the full computation.
"""

from math import comb, factorial, gcd, lcm, prod
from operator import mul

from .linalg import Mat, Q, cleared
from .spaces import DeformationType, ExtMukaiSpace


class SymError(ValueError):
    pass


def _mono_degree(key):
    _, m, c = key
    return 2 * (len(m) + 2 * c)


def _rationals(v):
    """v as a list of ints and Fractions (entries anything `Q` accepts)."""
    return [e if type(e) is int or type(e) is Q else Q(e) for e in v]


def _sym(space, n, den, nums):
    """The SymElement nums / den (den > 0, integer numerators keyed by sorted
    monomials) in lowest terms, zero numerators dropped."""
    nums = {k: v for k, v in nums.items() if v}
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    x = object.__new__(SymElement)
    x.space, x.n, x._denom, x._nums = space, n, den, nums
    return x


class SymElement:
    """An element of Sym^n of an extended Mukai space.

    Stored as a denominator d > 0 and a dict of nonzero integer numerators
    keyed by monomial (a, sorted-index-tuple, c), in lowest terms (d is
    coprime to the gcd of the numerators; the zero element has d = 1).
    `coeffs` maps the same keys to the rational coefficients; assigning it
    rebuilds the stored form.  The symmetric degree n may differ from the
    space's own n (powers of alpha in a large symmetric power are useful as
    a computational device).
    """

    __slots__ = ("space", "n", "_denom", "_nums")

    def __init__(self, space, n, coeffs=None):
        self.space = space
        self.n = n
        self.coeffs = coeffs or {}

    @property
    def coeffs(self):
        return {k: Q(v, self._denom) for k, v in self._nums.items()}

    @coeffs.setter
    def coeffs(self, coeffs):
        vals = {}
        for key, val in coeffs.items():
            if type(val) is not int and type(val) is not Q:
                val = Q(val)
            if val == 0:
                continue
            a, m, c = key
            if a + len(m) + c != self.n:
                raise SymError("monomial %r does not have total degree %d" % (key, self.n))
            vals[(a, tuple(sorted(m)), c)] = val
        # the lcm of reduced denominators leaves the numerators coprime to it
        self._denom, ints = cleared(list(vals.values()))
        self._nums = dict(zip(vals, ints))

    # -- construction --------------------------------------------------------

    @staticmethod
    def monomial(space, n, a, m=(), c=0, coeff=1):
        return SymElement(space, n, {(a, tuple(sorted(m)), c): coeff})

    @staticmethod
    def alpha_power(space, n, normalized=True):
        """alpha^n (divided by n! when normalized), the image of 1 under psi."""
        return _sym(space, n, factorial(n) if normalized else 1, {(n, (), 0): 1})

    @staticmethod
    def alpha_beta_binomial(space, n, s):
        """(alpha + s beta)^n / n!, the product of n equal factors."""
        return SymElement.alpha_beta_product(space, n, [s] * n)

    @staticmethod
    def alpha_beta_product(space, n, shifts):
        """prod_j (alpha + shifts[j] beta) / n!  (len(shifts) = n): with the
        shifts cleared to S_j / q, the coefficient of alpha^(n-k) beta^k is
        e_k(S) q^(n-k) / (n! q^n), e_k the elementary symmetric sums."""
        if len(shifts) != n:
            raise SymError("need exactly n linear factors")
        q, ints = cleared(_rationals(shifts))
        esym = [1] + [0] * n
        for s in ints:
            for k in range(n, 0, -1):
                esym[k] += s * esym[k - 1]
        nums = {(n - k, (), k): esym[k] * q ** (n - k) for k in range(n + 1)}
        return _sym(space, n, factorial(n) * q**n, nums)

    # -- vector space structure ------------------------------------------------

    def __add__(self, other):
        if self.space is not other.space or self.n != other.n:
            raise SymError("space mismatch")
        d = lcm(self._denom, other._denom)
        fa, fb = d // self._denom, d // other._denom
        out = {k: fa * v for k, v in self._nums.items()}
        for k, v in other._nums.items():
            out[k] = out.get(k, 0) + fb * v
        return _sym(self.space, self.n, d, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Q(c)
        nums = {k: c.numerator * v for k, v in self._nums.items()}
        return _sym(self.space, self.n, self._denom * c.denominator, nums)

    def is_zero(self):
        return not self._nums

    def __eq__(self, other):
        return (
            isinstance(other, SymElement)
            and self.n == other.n
            and self._denom == other._denom
            and self._nums == other._nums
        )

    def degree_piece(self, degree):
        nums = {k: v for k, v in self._nums.items() if _mono_degree(k) == degree}
        return _sym(self.space, self.n, self._denom, nums)

    def degrees(self):
        return sorted({_mono_degree(k) for k in self._nums})

    def degree_pieces(self):
        return {d: self.degree_piece(d) for d in self.degrees()}

    def coefficient(self, a, m=(), c=0):
        return Q(self._nums.get((a, tuple(sorted(m)), c), 0), self._denom)

    def __repr__(self):
        items = sorted(self.coeffs.items())[:6]
        body = ", ".join("%s: %s" % (k, v) for k, v in items)
        more = " ..." if len(self._nums) > 6 else ""
        return "<SymElement n=%d {%s}%s>" % (self.n, body, more)


# -- pairing -------------------------------------------------------------------


def _permanent(rows, mult):
    """Permanent of the square matrix whose distinct columns are the columns
    of `rows`, column j taken mult[j] times (sum(mult) == len(rows)).

    Dynamic program over the rows: the state is the number of free copies of
    each distinct column, and placing a row on column j weighs its entry by
    the copies of j still free.  At most prod(mult[j] + 1) states; with all
    columns distinct this is the subset DP, with one distinct column it is
    k! a^k in k steps.  Integer rows give an integer."""
    states = {tuple(mult): 1}
    for row in rows:
        nxt = {}
        for free, val in states.items():
            for j, a in enumerate(row):
                if a and free[j]:
                    key = free[:j] + (free[j] - 1,) + free[j + 1 :]
                    nxt[key] = nxt.get(key, 0) + val * a * free[j]
        states = nxt
    return states.get((0,) * len(mult), 0)


def pairing_bn(x, y):
    """b_[n](x, y) = (-1)^n c_X sum_sigma prod b(x_i, y_sigma(i)), extended
    bilinearly over the monomial basis.

    alpha pairs only with beta (value -1) and H^2 with H^2, so a monomial
    alpha^a m beta^c meets only the y monomials alpha^c m' beta^a (and then
    |m'| = |m|): y is bucketed by (c, a) once, as (sorted distinct H^2
    indices, their multiplicities, numerator), and each pair contributes
    (-1)^(a+c) a! c! times the permanent of the H^2 block.  The permanents
    run on the integer Gram d * G and the numerators of x and y; a monomial
    of x is scaled by d^(top - |m|), top the largest |m| in x, and the sum is
    divided by d^top and the two denominators once."""
    if x.space is not y.space or x.n != y.n:
        raise SymError("space mismatch")
    buckets = {}
    for (a, m, c), v in y._nums.items():
        cols = sorted(set(m))
        buckets.setdefault((c, a), []).append((cols, [m.count(j) for j in cols], v))
    d, g = x.space.dtype.h2_gram.cleared()
    top = max((len(m) for _, m, _ in x._nums), default=0)
    total = 0
    for (a, m, c), vx in x._nums.items():
        part = 0
        for cols, mult, vy in buckets.get((a, c), ()):
            part += vy * _permanent([[g[i][j] for j in cols] for i in m], mult)
        if part:
            part *= vx * factorial(a) * factorial(c) * d ** (top - len(m))
            total += -part if (a + c) % 2 else part
    c_x = x.space.dtype.c_x
    if x.n % 2:
        total = -total
    return Q(total * c_x.numerator, x._denom * y._denom * d**top * c_x.denominator)


# -- operators -----------------------------------------------------------------


def _contractions(key, g, d):
    """The Laplacian of one monomial as (monomial, e) pairs with value e / d,
    for the H^2 Gram g / d (g integer rows): an alpha-beta pair gives
    -a c, a pair of H^2 indices i, j the number of such pairs times g[i][j] / d."""
    a, m, c = key
    out = []
    if a and c:
        out.append(((a - 1, m, c - 1), -a * c * d))
    idxs = sorted(set(m))
    counts = {i: m.count(i) for i in idxs}
    for ii, i in enumerate(idxs):
        for j in idxs[ii:]:
            e = g[i][j]
            if not e or (j == i and counts[i] < 2):
                continue
            rest = list(m)
            rest.remove(i)
            rest.remove(j)
            pairs = counts[i] * (counts[i] - 1) // 2 if j == i else counts[i] * counts[j]
            out.append(((a, tuple(rest), c), pairs * e))
    return out


def laplacian(x):
    """Contraction sum_{i<j} b(v_i, v_j) v_1 ... v^_i ... v^_j ... v_n."""
    if x.n < 2:
        raise SymError("laplacian needs symmetric degree >= 2")
    d, g = x.space.dtype.h2_gram.cleared()
    out = {}
    for key, val in x._nums.items():
        for k2, e in _contractions(key, g, d):
            out[k2] = out.get(k2, 0) + val * e
    return _sym(x.space, x.n - 2, x._denom * d, out)


def lefschetz_e(omega, x):
    """Derivation action of e_omega: alpha -> omega, mu -> b(omega, mu) beta,
    beta -> 0.  omega is an H^2 coordinate vector.

    With omega = w / e (w integral) and the Gram g / d, both images are
    written over d e: alpha -> d w, mu_i -> (g w)_i beta."""
    space = x.space
    omega = _rationals(omega)
    if len(omega) != space.b2:
        raise SymError("omega must be an H^2 vector")
    h2 = space.dtype.h2_gram
    e, w, gw = h2.int_product(omega)  # gw: d e times the pairings with the basis
    d = h2.denominator_lcm()
    support = [i for i, c in enumerate(w) if c]
    out = {}
    for (a, m, c), val in x._nums.items():
        terms = [((a - 1, tuple(sorted(m + (i,))), c), a * d * w[i]) for i in support] if a else []
        for i in sorted(set(m)):
            if gw[i]:
                rest = list(m)
                rest.remove(i)
                terms.append(((a, tuple(rest), c + 1), m.count(i) * gw[i]))
        for key, t in terms:
            out[key] = out.get(key, 0) + val * t
    return _sym(space, x.n, x._denom * d * e, out)


def psi_monomial(space, omegas, n=None):
    """psi(omega_1 ... omega_k) = e_{omega_1} ... e_{omega_k}(alpha^n / n!),
    one `lefschetz_e` per class, the last class first; k <= 2n."""
    n = space.dtype.n if n is None else n
    omegas = list(omegas)
    if len(omegas) > 2 * n:
        raise SymError("monomial degree exceeds 2n")
    x = SymElement.alpha_power(space, n)
    for w in reversed(omegas):
        x = lefschetz_e(w, x)
    return x


def _h2_classes(space, ws):
    """(e, w, (d G) w) of `int_product` for each H^2 class w / e in ws."""
    ws = [_rationals(w) for w in ws]
    if any(len(w) != space.b2 for w in ws):
        raise SymError("omega must be an H^2 vector")
    return [space.dtype.h2_gram.int_product(w) for w in ws]


def _apolar(x, points, e, k=None):
    """(-1)^n c_X sum over (f, gw, p) in points of f times x evaluated at
    alpha -> -q/2, h_i -> (G omega)_i, beta -> -1, where (d G) omega = gw / e,
    q = p / (d e^2) and d is the denominator of G; with k given, only the
    monomials of degree k in omega (2a + |m| = k) are read.  A monomial
    alpha^a m beta^c is worth (-1)^(a+c) p^a prod gw_m / (2^a d^(n-c)
    e^(n+a-c)), so the sum runs in integers over 2^n d^n e^(2n)."""
    n, d = x.n, x.space.dtype.h2_gram.denominator_lcm()
    total = 0
    for (a, m, c), v in x._nums.items():
        if k is None or 2 * a + len(m) == k:
            t = 0
            for f, gw, p in points:
                for i in m:
                    f *= gw[i]
                t += f * p**a
            t *= v * d**c * e ** (n + c - a) << (n - a)
            total += -t if (a + c + n) % 2 else t
    c_x = x.space.dtype.c_x
    return Q(total * c_x.numerator, (x._denom * c_x.denominator * d**n * e ** (2 * n)) << n)


def pair_with_sh(space, monomial, x, with_detail=False):
    """b_SH(m, T(x)) = b_[n](psi(m), x) by apolar evaluation, without psi.

    `monomial` is a sequence of H^2 coordinate vectors; each distinct class
    is cleared once (`int_product`), over the lcm e of their denominators.
    Degree mismatches pair to zero; with_detail=True additionally returns
    whether the degrees matched.
    """
    n, k = x.n, len(monomial)
    if k > 2 * n:
        raise SymError("monomial degree exceeds 2n")
    distinct = [w for i, w in enumerate(monomial) if w not in monomial[:i]]
    classes = _h2_classes(space, distinct)
    if space is not x.space:
        raise SymError("space mismatch")
    e = lcm(*(c[0] for c in classes))
    # (f, gw, p): the class omega(j) = sum j_i omega_i, weighted by f
    if len(classes) <= 1:  # homogeneous of degree k in one class: k! times its value
        points = [(factorial(k), gw, sum(map(mul, w, gw))) for _, w, gw in classes] or [(1, (), 0)]
    else:  # the finite difference of order m at t = 0, m_i the multiplicities
        grid = [((), 1)]
        for m in map(monomial.count, distinct):
            grid = [(js + (j,), f * (-1) ** (m - j) * comb(m, j)) for js, f in grid for j in range(m + 1)]
        points = []
        for js, f in grid:
            s = [j * (e // c[0]) for j, c in zip(js, classes)]
            w = [sum(map(mul, s, col)) for col in zip(*(c[1] for c in classes))]
            gw = [sum(map(mul, s, col)) for col in zip(*(c[2] for c in classes))]
            points.append((f, gw, sum(map(mul, w, gw))))
    val = _apolar(x, points, e, k)
    if not with_detail:
        return val
    want = 4 * n - 2 * k
    matched = all(d == want for d in x.degrees()) if x._nums else False
    return val, {"degree_matched": matched, "pairing_degree": want}


# -- orthogonal projection -------------------------------------------------------


def _q_star(space):
    """The dual form q* = -2 alpha beta + sum_ij (G^-1)_ij h_i h_j of the
    ambient Gram as (e, terms): q* = (1/e) sum t alpha^a h_m beta^c over the
    terms ((a, m, c), t).  G^-1 is the H^2 block of the ambient inverse kept
    on the space (`gram_inverse`); the hyperbolic corner is its own inverse.
    Raises ValueError for a singular G."""
    e, inv = space.gram_inverse().cleared()
    terms = [((1, (), 1), -2 * e)]
    for i, row in enumerate(r[1:-1] for r in inv[1:-1]):
        terms += [((0, (i, j), 0), row[j] if j == i else 2 * row[j]) for j in range(i, len(row)) if row[j]]
    return e, terms


def _q_star_times(x, q_star, f):
    """f q* x in Sym^(n+2), for x in Sym^n, q* = `_q_star` and a rational f."""
    e, terms = q_star
    out = {}
    for (a, m, c), v in x._nums.items():
        v *= f.numerator
        for (da, dm, dc), t in terms:
            key = (a + da, tuple(sorted(m + dm)), c + dc)
            out[key] = out.get(key, 0) + v * t
    return _sym(x.space, x.n + 2, x._denom * e * f.denominator, out)


def project_t(x):
    """Orthogonal projection of x onto ker(Laplacian), the harmonic part.

    Sym^n = ker(Laplacian) + q* Sym^(n-2) for the dual form q* of the
    ambient Gram (`_q_star`), and b_[n](q* f, w) = 2 b_[n-2](f, Laplacian w),
    so the summands are b_[n]-orthogonal and the projection along q* Sym^(n-2)
    is the orthogonal one.  It is the closed form

        T(x) = sum_k c_k q*^k Laplacian^k(x),
        c_0 = 1,  c_(k+1) = -c_k / ((k + 1)(N + 2n - 2k - 4)),

    from [Laplacian, q*] = N + 2k on Sym^k, N = b_2 + 2 the dimension of the
    ambient space (the denominators are positive).  It is evaluated by Horner
    over the k with Laplacian^k(x) != 0: at most n/2 Laplacians and as many
    products by q*.

    A singular H^2 Gram has no q*; then b_[n] is degenerate on the kernel in
    every cohomological degree d with 0 < d < 4n (r z for a radical vector r
    and a harmonic z), and x with a nonzero piece in such a degree raises
    SymError.  The pieces of degree 0 and 4n (alpha^n, beta^n) are harmonic.
    The result is always a new element, also for a harmonic x.
    """
    space, n = x.space, x.n
    if not any(0 < _mono_degree(k) < 4 * n for k in x._nums):
        return _sym(space, n, x._denom, x._nums)
    try:
        q_star = _q_star(space)
    except ValueError:
        raise SymError("degenerate pairing on a kernel piece") from None
    chain = [x]
    while chain[-1].n >= 2:
        y = laplacian(chain[-1])
        if y.is_zero():
            break
        chain.append(y)
    t = chain.pop()
    dim = space.b2 + 2
    for k in reversed(range(len(chain))):
        t = chain[k] + _q_star_times(t, q_star, Q(-1, (k + 1) * (dim + 2 * n - 2 * k - 4)))
    return t if chain else _sym(space, n, x._denom, x._nums)


# -- Todd classes and integrals -------------------------------------------------


def sqrt_todd_argument(space):
    """(alpha + r_X beta)^n / n!  (the pre-projection linearisation)."""
    n = space.dtype.n
    return SymElement.alpha_beta_binomial(space, n, space.dtype.r_x)


def sqrt_todd_bar(space):
    """T((alpha + r_X beta)^n / n!)."""
    return project_t(sqrt_todd_argument(space))


def todd_argument(space):
    """The pre-projection Todd product for the built-in families:
    (alpha + 2 beta)...(alpha + (n+1) beta)/n! for K3n/OG10,
    (alpha + beta)...(alpha + n beta)/n! for Kumn/OG6."""
    n = space.dtype.n
    fam = space.dtype.family
    if fam in ("K3n", "OG10", "K3"):
        shifts = list(range(2, n + 2))
    elif fam in ("Kumn", "OG6"):
        shifts = list(range(1, n + 1))
    else:
        raise SymError("no Todd formula for family %r" % (fam,))
    return SymElement.alpha_beta_product(space, n, shifts)


def todd_bar(space):
    """T of the family Todd product."""
    return project_t(todd_argument(space))


def integrate(space, omegas):
    """Integral of a product of 2n H^2 classes: the full polarization

        c_X * sum over perfect matchings of prod b(omega_i, omega_j).

    With omega_i = w_i / e_i cleared once, (d G) w_j from `int_product`, each
    pairing is the integer w_i . (d G) w_j over d e_i e_j; a matching uses
    every class once, so the sum runs in integers over d^n prod e_i."""
    n = space.dtype.n
    omegas = list(omegas)
    if len(omegas) != 2 * n:
        raise SymError("need exactly 2n classes")
    h2 = space.dtype.h2_gram
    classes = _h2_classes(space, omegas)
    vals = [[sum(map(mul, vi, gv)) for _, _, gv in classes] for _, vi, _ in classes]

    def match(rest):  # the first class against each other one, then the others
        if not rest:
            return 1
        i, rest = rest[0], rest[1:]
        return sum(vals[i][j] * match(rest[:p] + rest[p + 1 :]) for p, j in enumerate(rest) if vals[i][j])

    c_x = space.dtype.c_x
    den = c_x.denominator * h2.denominator_lcm() ** n * prod(e for e, _, _ in classes)
    return Q(match(tuple(range(2 * n))) * c_x.numerator, den)


def integrate_via_pairing(space, omegas):
    """The same integral through psi and the pairing (cross-validation)."""
    x = psi_monomial(space, omegas)
    return pair_with_sh(space, [], x)


def restricted_space(space, h2_vectors):
    """The extended Mukai space of the subspace spanned by chosen H^2 vectors.

    Computations with elements supported on alpha, beta and the given
    vectors produce identical values here (the pairing only consults the
    cross Gram), at a fraction of the cost for large b_2.
    """
    h2 = space.dtype.h2_gram
    d = h2.denominator_lcm()
    vecs = [cleared(_rationals(v)) for v in h2_vectors]
    if any(len(v) != space.b2 for _, v in vecs):
        raise SymError("H^2 vectors of length %d expected" % space.b2)
    # every vector over the common denominator e: the Gram is the integer
    # Gram of those numerators over d e^2
    e = lcm(*(dv for dv, _ in vecs))
    vecs = [[e // dv * c for c in v] for dv, v in vecs]
    gvs = [h2.int_product(v)[2] for v in vecs]
    gram = Mat([[sum(map(mul, u, gv)) for gv in gvs] for u in vecs]).scale(Q(1, d * e * e))
    dt = space.dtype
    return ExtMukaiSpace(DeformationType(dt.family, dt.n, dt.c_x, dt.r_x, gram))


def euler_char_line_bundle(space, lam):
    """chi(L) for a line bundle class lam, via integral of exp(lam) . Todd.

    Evaluates sum_k (-1)^k / k! * b_SH(lam^k, T(td-product)) on the space
    given, as one apolar evaluation (`_exp_pairing_sum`): for the Todd
    product of shifts s it is c_X prod_s (q/2 + s) / n!, q = b(lam, lam).
    """
    return _exp_pairing_sum(space, lam, todd_argument)


def _exp_pairing_sum(space, lam, argument):
    """sum_k (-1)^k / k! * b_SH(lam^k, argument(space)) as one pairing:
    sum_k (-1)^k / k! psi(lam^k) = exp(-e_lam)(alpha^n / n!)
    = (alpha - lam + q/2 beta)^n / n!, so it is the apolar value at
    omega = -lam over every monomial of the argument."""
    ((e, w, gw),) = _h2_classes(space, [lam])
    point = (1, [-c for c in gw], sum(map(mul, w, gw)))
    return _apolar(argument(space), [point], e)


# -- expansion coefficients -------------------------------------------------------


def lefschetz_power_coefficient(j, k):
    """Coefficient of b(w,w)^k alpha^{N-j+k} w^{j-2k} beta^k / (N-j+k)! in
    e_w^j(alpha^N / N!):   j! / ((j-2k)! k! 2^k).

    The boundary values k = 0 and k = j/2 (even j) coincide with the Bessel
    polynomial coefficients (m+k)!/((m-k)! k! 2^k), m = floor(j/2)."""
    if k < 0 or 2 * k > j:
        return Q(0)
    return Q(factorial(j), factorial(j - 2 * k) * factorial(k) * 2**k)


def bessel_polynomial_coefficient(m, k):
    """(m+k)! / ((m-k)! k! 2^k), the x^k coefficient of the Bessel polynomial y_m."""
    if k < 0 or k > m:
        return Q(0)
    return Q(factorial(m + k), factorial(m - k) * factorial(k) * 2**k)


def sqrt_todd_pairing_value(space, i, q_omega):
    """Closed form for b_[n](psi(omega^{2n-2i}), (alpha + r_X beta)^n / n!):

        c_X * (r_X^i / i!) * (2n-2i)! / (2^{n-i} (n-i)!) * b(w,w)^{n-i}.
    """
    n, r, c = space.dtype.n, space.dtype.r_x, space.dtype.c_x
    m = n - i
    return c * r**i / factorial(i) * Q(factorial(2 * m), 2**m * factorial(m)) * Q(q_omega) ** m
