"""Exact rational dense linear algebra on integer rows.

Everything in this package runs over Q; there is no floating point anywhere.
A `Mat` has one stored representation: a denominator d > 0 and the integer
rows of d * M, in canonical form (d is coprime to the gcd of the entries, so
the zero matrix has d = 1).  Equality and hashing compare the shape and
those integers; products run on them (`product` multiplies a chain and
makes the result canonical once), and `identity_plus_outer`, behind every
reflection, transvection and B-field, builds only the rows it touches.  A
matrix keeps one sparse view: the nonzero entries of each column of d * M
(`nonzero_columns`).  `int_product` sums it over the nonzero entries of a
vector, and `apply` and `bilinear` (every quadratic-form pairing of the
package) run through it.  `cleared` and `int_product` hand integers to
callers that keep to them; `Fraction` values appear only at the boundary:
`entries` (one per distinct value), `row`, `column`, `__getitem__`, `repr`.

A value derived from one object and reused is kept on that object by
`kept`, the package's one memo: the first call computes it, later calls
return it.

One integer elimination, `_eliminate`, serves `rref`, `rank`, `det`,
`inverse`, `solve_linear` and `kernel_basis`: Gauss-Jordan that skips the
rows with a zero in the pivot column and divides every row it updates by its
content, so no fraction is formed.  One integer Hermite routine, `_hnf`,
serves every integer normal form: `hnf_row_basis` is its pivot rows,
`integer_kernel_basis` (and so `saturation_basis`) its form taken mod D, and
`smith_normal_form` alternates row and column Hermite passes until the
matrix is diagonal.  `congruence_diagonalize` is the one symmetric
elimination, also on integer rows: inertia indices, positive-definite bases
and the orthogonal basis that Cartan-Dieudonne walks are read off it.

Matrices are small (usually 25 rows or less); values are immutable and
every function is pure.
"""

from fractions import Fraction
from functools import update_wrapper
from itertools import chain, compress
from math import gcd, lcm, prod
from operator import mul

Q = Fraction

QZERO = Q(0)
QONE = Q(1)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v):
    c = Q(c)
    return tuple(c * a for a in v)


def vec_is_zero(v):
    return all(a == 0 for a in v)


def vec_is_integral(v):
    return all(a.denominator == 1 for a in v)


def vec_primitive_part(v):
    """Scale a nonzero rational vector to a primitive integer vector."""
    ints = cleared(v)[1]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(Q(x // g) for x in ints)


def cleared(v):
    """(d, ints): d the lcm of the denominators of v (ints or Fractions) and
    ints the integer vector d * v, in lowest terms (d is coprime to the gcd
    of ints, since each Fraction is reduced)."""
    d = 1
    for a in v:
        q = a.denominator
        if q != 1 and d % q:
            d = d * q // gcd(d, q)
    return d, [a.numerator * (d // a.denominator) for a in v]


def _fractions(ints, d):
    """The tuple of Fractions x / d."""
    return tuple(map(Q, ints)) if d == 1 else tuple(Q(x, d) for x in ints)


def kept(fn):
    """fn(obj), for a zero-argument method or a one-argument function,
    computed on the first call for obj and kept on obj under the name
    `_kept_<name of fn>` (a class with __slots__ declares that slot).  If fn
    raises, nothing is kept.  The computation is `__wrapped__`, read on each
    miss."""
    name = "_kept_" + fn.__name__.strip("_")

    def get(obj):
        try:
            return getattr(obj, name)
        except AttributeError:
            value = get.__wrapped__(obj)
            setattr(obj, name, value)
            return value

    return update_wrapper(get, fn)


def _make(d, rows, cols, reduced=False):
    """The r x cols Mat (1/d) * rows for d > 0 and integer rows, canonical;
    `reduced` says d is already coprime to the gcd of the rows."""
    if d != 1 and not reduced:
        g = gcd(d, *[x for r in rows for x in r])
        if g != 1:
            d //= g
            rows = [[x // g for x in r] for r in rows]
    m = object.__new__(Mat)
    m.rows, m.cols = len(rows), cols
    m._den, m._ints = d, tuple(map(tuple, rows))
    return m


class Mat:
    """Immutable dense matrix over Q, stored as (d, integer rows of d * M)."""

    __slots__ = ("rows", "cols", "_den", "_ints", "_kept_hash", "_kept_nonzero_columns")

    def __init__(self, rows_of_entries):
        # d = lcm of the reduced denominators is canonical already: the entry
        # that brings a prime power p^k into d has a numerator prime to p
        d = 1
        m = []
        for r in rows_of_entries:
            row = []
            for e in r:
                if type(e) is not int:
                    if type(e) is not Q:
                        e = Q(e)
                    if e.denominator == 1:
                        e = e.numerator
                    elif d % e.denominator:
                        d = lcm(d, e.denominator)
                row.append(e)
            m.append(row)
        self.rows = len(m)
        self.cols = len(m[0]) if m else 0
        if any(len(r) != self.cols for r in m):
            raise ValueError("ragged matrix")
        self._den = d
        self._ints = tuple(map(tuple, m)) if d == 1 else tuple(
            tuple(e * d if type(e) is int else e.numerator * (d // e.denominator) for e in r)
            for r in m
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n):
        return _make(1, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @staticmethod
    def zero(r, c):
        return _make(1, [(0,) * c] * r, c)

    @staticmethod
    def diagonal(entries):
        return Mat([[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)])

    @staticmethod
    def block_diagonal(blocks):
        d = lcm(*(b._den for b in blocks))
        c = sum(b.cols for b in blocks)
        out = []
        j0 = 0
        for b in blocks:
            f = d // b._den
            for r in b._ints:
                out.append([0] * j0 + [f * x for x in r] + [0] * (c - j0 - b.cols))
            j0 += b.cols
        return _make(d, out, c)

    @staticmethod
    def from_rows(vectors):
        return Mat([list(v) for v in vectors])

    @staticmethod
    def from_columns(vectors):
        return Mat([list(v) for v in vectors]).transpose()

    # -- basic access ------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return Q(self._ints[i][j]) if self._den == 1 else Q(self._ints[i][j], self._den)

    def row(self, i):
        return _fractions(self._ints[i], self._den)

    def column(self, j):
        return _fractions([r[j] for r in self._ints], self._den)

    def entries(self):
        """The rows as Fractions, one Fraction per distinct value."""
        d = self._den
        q = {x: Q(x, d) for x in set().union(*self._ints)}
        return tuple(tuple(map(q.__getitem__, r)) for r in self._ints)

    def __eq__(self, other):
        same = isinstance(other, Mat) and self.cols == other.cols
        return same and self._den == other._den and self._ints == other._ints

    @kept
    def __hash__(self):
        return hash((self.cols, self._den, self._ints))

    def __repr__(self):
        return "Mat(%r)" % [[str(e) for e in row] for row in self.entries()]

    # -- arithmetic --------------------------------------------------------

    def scale(self, c):
        c = Q(c)
        out = [[c.numerator * x for x in r] for r in self._ints]
        return _make(self._den * c.denominator, out, self.cols)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            raise TypeError("use .apply() for vectors, .scale() for scalars")
        return product(self, other)

    @kept
    def nonzero_columns(self):
        """Per column, its nonzero entries of d * M as (row, entry) pairs (the
        rows, for a symmetric M), kept."""
        cols = zip(*self._ints) if self.rows else [()] * self.cols
        return tuple(tuple(compress(enumerate(c), c)) for c in cols)

    def int_product(self, v):
        """(e, vi, mv) for v of ints or Fractions: v = vi / e with vi integral
        (`cleared`) and mv = (d M) vi for d = `denominator_lcm()`, so
        M v = mv / (d e).  Sums only the columns where vi is nonzero."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        e, vi = cleared(v)
        mv = [0] * self.rows
        for col, c in zip(self.nonzero_columns(), vi):
            if c:
                for i, x in col:
                    mv[i] += x * c
        return e, vi, mv

    def apply(self, v):
        """Matrix times column vector (entries ints or Fractions)."""
        e, _, mv = self.int_product(v)
        return _fractions(mv, self._den * e)

    def bilinear(self, x, y):
        """x^T M y as a Fraction, for vectors of ints or Fractions: the pairing
        of every Gram matrix in the package."""
        if len(x) != self.rows:
            raise ValueError("shape mismatch")
        e, _, my = self.int_product(y)
        dx, xs = cleared(x)
        return Q(sum(map(mul, xs, my)), self._den * dx * e)

    def transpose(self):
        rows = list(zip(*self._ints)) if self.rows else [()] * self.cols
        return _make(self._den, rows, self.rows)

    def denominator_lcm(self):
        return self._den

    def is_integral(self):
        return self._den == 1

    def is_symmetric(self):
        return self.rows == self.cols and self._ints == tuple(zip(*self._ints))

    def cleared(self):
        """(d, rows): the stored form, d > 0 and the integer rows of d * M
        (tuples), in lowest terms."""
        return self._den, self._ints

    def int_entries(self):
        if self._den != 1:
            raise ValueError("integrality required")
        return [list(r) for r in self._ints]

    # -- elimination kernels -------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        m = [list(r) for r in self._ints]
        pivots = _eliminate(m)[0]
        return _over_pivots(m, pivots, 0, 1, self.cols), tuple(pivots)

    def rank(self):
        return len(_eliminate([list(r) for r in self._ints])[0])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        n = self.rows
        m = [list(r) for r in self._ints]
        pivots, sign, f = _eliminate(m)
        if len(pivots) < n:
            return QZERO
        # the integer rows have det sign * prod(pivot * den / num), an integer
        top = sign * prod(m[r][c] * f[r][1] for r, c in enumerate(pivots))
        return Q(top // prod(num for num, _ in f), self._den**n)

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        n = self.rows
        m = [list(r) + [0] * i + [1] + [0] * (n - 1 - i) for i, r in enumerate(self._ints)]
        pivots = _eliminate(m)[0]
        if pivots != list(range(n)):
            raise ValueError("singular matrix")
        # (ints / d)^-1 = d ints^-1, whose row r is m[r][n:] / m[r][r]
        return _over_pivots(m, pivots, n, self._den, n)


def product(first, *rest):
    """first * rest[0] * ..., left to right, on the integer rows: a row of the
    left factor adds up the nonzero entries of the rows of the right one
    where it is nonzero.  The denominators multiply, and the result is made
    canonical once."""
    d, rows, cols = first._den, first._ints, first.cols
    for m in rest:
        if cols != m.rows:
            raise ValueError("shape mismatch")
        nonzero = [[(j, y) for j, y in enumerate(r) if y] for r in m._ints]
        out = []
        for ra in rows:
            acc = [0] * m.cols
            for k, x in enumerate(ra):
                if x:
                    for j, y in nonzero[k]:
                        acc[j] += x * y
            out.append(acc)
        d, rows, cols = d * m._den, out, m.cols
    return _make(d, rows, cols)


def _eliminate(m):
    """Integer Gauss-Jordan elimination of the rows m (lists of ints), in place.

    Pivots are taken in column order from the first nonzero entry at or below
    the current row.  Each other row with a nonzero entry e in the pivot
    column becomes (p row - e pivot_row) / gcd(p, e), divided by its content.
    At the end the pivot rows come first, in order, zero in the other pivot
    columns; the rest are zero.  Returns (pivots, sign, f): the pivot
    columns, the sign of the row permutation, and per row the pair
    f[i] = [num, den] with row i = num / den times the same row in fraction
    elimination (which subtracts (e / p) pivot_row and never rescales).
    """
    rows = len(m)
    f = [[1, 1] for _ in m]
    sign = 1
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        i = next((i for i in range(r, rows) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i], f[r], f[i] = m[i], m[r], f[i], f[r]
            sign = -sign
        pr = m[r]
        p = pr[c]
        for i in range(rows):
            e = m[i][c]
            if e and i != r:
                g = gcd(p, e)
                a, b = p // g, e // g
                row = [a * x - b * y for x, y in zip(m[i], pr)]
                h = gcd(*row)
                if h > 1:
                    row = [x // h for x in row]
                m[i] = row
                f[i][0] *= a
                f[i][1] *= h
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots, sign, f


def _over_pivots(m, pivots, start, d, cols):
    """The Mat with rows d * m[r][start:] / m[r][pivots[r]] after elimination
    (the rows below the pivot rows are zero), of width cols."""
    den = lcm(*(m[r][c] for r, c in enumerate(pivots)))
    f = [d * den // m[r][c] for r, c in enumerate(pivots)] + [0] * (len(m) - len(pivots))
    return _make(den, [[x * fr for x in row[start:]] for row, fr in zip(m, f)], cols)


def identity_plus_outer(n, terms):
    """The n x n matrix I + sum of (1/d) u w^T over the (d, u, w) terms: d a
    nonzero integer, u and w integer vectors (read off the integer Gram rows
    by the reflection and Eichler transvection constructors).

    Builds only the rows where some u is nonzero, adding in them only the
    columns where w is nonzero; the others are unit rows.  Over the common
    denominator big, a unit row adds only big to the gcd, so g, the gcd of
    big and the built rows, is taken before any row is divided."""
    big = lcm(*(d for d, _, _ in terms))
    built = {}
    for d, u, w in terms:
        f = big // d
        nonzero = [(j, f * b) for j, b in enumerate(w) if b]
        for i, a in enumerate(u):
            if a:
                row = built.get(i)
                if row is None:
                    row = built[i] = [0] * i + [big] + [0] * (n - 1 - i)
                for j, b in nonzero:
                    row[j] += a * b
    g = gcd(big, *chain.from_iterable(built.values()))
    rows = [(0,) * i + (big // g,) + (0,) * (n - 1 - i) for i in range(n)]
    for i, row in built.items():
        rows[i] = [x // g for x in row]
    return _make(big // g, rows, n, reduced=True)


def solve_linear(a, b):
    """Solve a x = b exactly; returns the solution vector or None.

    For underdetermined systems any one solution is returned (free
    variables set to zero).
    """
    if len(b) != a.rows:
        raise ValueError("shape mismatch")
    db, bs = cleared(b)
    # a x = b  <=>  db (d a) x = d (db b)
    m = [[db * x for x in r] + [a._den * y] for r, y in zip(a._ints, bs)]
    pivots = _eliminate(m)[0]
    if a.cols in pivots:
        return None
    x = [QZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = Q(m[r][-1], m[r][c])
    return tuple(x)


def kernel_basis(a):
    """Basis of the right kernel of a over Q (empty list when injective)."""
    m = [list(r) for r in a._ints]
    pivots = _eliminate(m)[0]
    basis = []
    for f in range(a.cols):
        if f not in pivots:
            v = [QZERO] * a.cols
            v[f] = QONE
            for r, c in enumerate(pivots):
                v[c] = Q(-m[r][f], m[r][c])
            basis.append(tuple(v))
    return basis


def congruence_diagonalize(gram):
    """Symmetric elimination: (diag, T) with T * gram * T^T = diag(diag).

    T is invertible.  Pivots are taken in order from the diagonal; when the
    rest of the diagonal is zero the first nonzero off-diagonal entry (i, j)
    is folded in by adding row j of T to row i.  Once the remaining block
    is zero its entries stay zero in diag.  On integers: for gram = G / d,
    row i of T is R_i / s_i, kept as [R_i | R_i G], so (T gram T^T)_ij =
    (R_i G) . R_j / (d s_i s_j); each step combines two rows.
    """
    n = gram.rows
    d, g = gram.cleared()
    rows = [[int(i == j) for j in range(n)] + list(r) for i, r in enumerate(g)]
    s = [1] * n

    def pair(i, j):
        return sum(map(mul, rows[i][n:], rows[j]))

    def combine(i, j, x, y, si):  # T_i <- (x R_i + y R_j) / si
        row = [x * a + y * b for a, b in zip(rows[i], rows[j])]
        h = gcd(si, *row[:n])
        rows[i], s[i] = [c // h for c in row], si // h

    for step in range(n):
        p = next((i for i in range(step, n) if pair(i, i)), None)
        if p is None:
            fold = next(((i, j) for i in range(step, n) for j in range(i + 1, n) if pair(i, j)), None)
            if fold is None:
                break  # remaining block is zero
            p, j = fold
            m = lcm(s[p], s[j])
            combine(p, j, m // s[p], m // s[j], m)
        rows[step], rows[p], s[step], s[p] = rows[p], rows[step], s[p], s[step]
        q = pair(step, step)
        for i in range(step + 1, n):
            e = pair(i, step)
            if e:  # T_i - (e / q) T_step
                combine(i, step, abs(q), -e if q > 0 else e, s[i] * abs(q))
    m = lcm(*s)
    trans = _make(m, [[m // si * x for x in r[:n]] for r, si in zip(rows, s)], n)
    return [Q(pair(i, i), d * si * si) for i, si in enumerate(s)], trans


# -- integer normal forms ----------------------------------------------------


def _hnf(rows, k, d=0):
    """Row Hermite form of the integer rows on their first k columns.

    Returns (h, pivots): h spans the same subgroup as rows; row i <
    len(pivots) has a positive pivot in column pivots[i] (increasing), zeros
    to its left and below it in the first k columns and entries in
    [0, pivot) above it; the later rows are zero on the first k columns.
    The steps are unimodular and act on whole rows (an extended-gcd 2x2
    step that merges a row into the pivot row, or a plain subtraction where
    the pivot divides the entry, and reduction of the rows above), so
    columns past k carry the transform.

    With d > 0 the rows have width k and the subgroup taken is their span
    plus d Z^k: column j merges d e_j too, and entries right of it are kept
    in [0, d), which changes rows only by vectors of d Z^k not yet merged
    (after Cohen, GTM 138, Alg. 2.4.8).
    """
    h = [list(v) for v in rows]
    pivots = []
    for j in range(k):
        r = len(pivots)
        if d:
            h.insert(r, [0] * j + [d] + [0] * (k - j - 1))
        if r == len(h):
            break
        for i in range(r + 1, len(h)):
            a, b = h[r][j], h[i][j]
            if not b:
                continue
            if a and not b % a:
                q = b // a
                h[i] = [t - q * s for s, t in zip(h[r], h[i])]
            else:
                g, x, y = xgcd(a, b)
                h[r], h[i] = _pair(h[r], h[i], x, y, -b // g, a // g)
        p = h[r][j]
        if not p:
            continue
        if p < 0:
            p, h[r] = -p, [-s for s in h[r]]
        for i in range(r):
            q = h[i][j] // p
            if q:
                h[i] = [s - q * t for s, t in zip(h[i], h[r])]
        pivots.append(j)
        if d:
            h = [v[: j + 1] + [s % d for s in v[j + 1 :]] for v in h]
    return h, pivots


def _pair(v, w, a, b, c, d):
    """The rows a v + b w and c v + d w."""
    return [a * s + b * t for s, t in zip(v, w)], [c * s + d * t for s, t in zip(v, w)]


def _is_diagonal(a):
    return not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def smith_normal_form(mat):
    """Smith normal form with transforms: U*m*V = D, U, V unimodular.

    Input must be integral.  D is diagonal with nonnegative entries and
    d_i | d_{i+1}.  Row Hermite passes on [A | U] and on [A^T | V^T] take
    turns until A is diagonal (Kannan-Bachem; Cohen, GTM 138, 2.4).  This
    terminates: a pass leaves a_00 the gcd of its column (row), and a pivot
    that divides an entry is kept, so a_00 shrinks until it divides its row
    and column, which the next pass then clears for good; the rest follows
    on the trailing block.  Then a 2x2 step turns each pair (a, b) of the
    diagonal into (gcd, lcm).
    """
    a = mat.int_entries()
    r, c = mat.rows, mat.cols
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    vt = [[int(i == j) for j in range(c)] for i in range(c)]
    while True:
        h = _hnf([x + y for x, y in zip(a, u)], c)[0]
        a, u = [w[:c] for w in h], [w[c:] for w in h]
        if _is_diagonal(a):
            break
        h = _hnf([list(x) + y for x, y in zip(zip(*a), vt)], r)[0]
        a, vt = [list(x) for x in zip(*(w[:r] for w in h))], [w[r:] for w in h]
        if _is_diagonal(a):
            break
    # the nonzero pivots of a Hermite form come first, so zeros end the diagonal
    k = min(r, c)
    for i in range(k):
        for j in range(i + 1, k):
            p, q = a[i][i], a[j][j]
            if p and q % p:
                g, x, y = xgcd(p, q)
                p, q = p // g, q // g
                a[i][i], a[j][j] = g, p * q * g
                u[i], u[j] = _pair(u[i], u[j], x, y, -q, p)
                vt[i], vt[j] = _pair(vt[i], vt[j], 1, 1, -y * q, x * p)
    return _make(1, u, r), _make(1, a, c), _make(1, [list(x) for x in zip(*vt)], c)


def hnf_row_basis(int_rows):
    """Hermite basis of the subgroup of Z^c generated by the integer rows:
    linearly independent rows in echelon form, each with a positive pivot
    and entries in [0, pivot) above it (unique for the subgroup)."""
    rows = list(int_rows)
    h, pivots = _hnf(rows, len(rows[0]) if rows else 0)
    return h[: len(pivots)]


def integer_kernel_basis(mat):
    """Saturated basis of {x in Z^c : m x = 0} for a rational matrix m.

    After elimination a pivot coordinate is x_p = -(sum_f e_f x_f) / e_p over
    the free ones, so x is fixed by its free part t, and the t that occur are
    those with sum_f e_f t_f = 0 mod e_p on every pivot row: the t with
    (0, t) in the span of the rows (e_f over the pivot rows, unit f) and
    (e_p in its own column, 0).  That span holds D Z^* for D the lcm of the
    e_p, so its Hermite form is taken mod D; being unique, it gives those t
    as the rows with a pivot among the t columns."""
    m = [list(r) for r in mat._ints]
    pivots = _eliminate(m)[0]
    free = [f for f in range(mat.cols) if f not in pivots]
    cons = [r for r, c in enumerate(pivots) if abs(m[r][c]) != 1]
    k, h = len(free), len(cons)
    gens = [[m[r][f] for r in cons] + [int(i == j) for i in range(k)] for j, f in enumerate(free)]
    gens += [[m[r][pivots[r]] * (i == j) for i in range(h)] + [0] * k for j, r in enumerate(cons)]
    basis = []
    for row in _hnf(gens, h + k, lcm(*(m[r][pivots[r]] for r in cons)))[0][h : h + k]:
        t = row[h:]
        x = [QZERO] * mat.cols
        for f, tf in zip(free, t):
            x[f] = Q(tf)
        for r, c in enumerate(pivots):
            x[c] = Q(-sum(m[r][f] * tf for f, tf in zip(free, t)) // m[r][c])
        basis.append(tuple(x))
    return basis


def xgcd(a, b):
    """(g, x, y) with a x + b y = g = +-gcd(a, b) (g >= 0 when a > 0 and
    b >= 0), by the extended Euclidean algorithm."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def saturation_basis(int_rows):
    """Basis of the saturation of the integer row span inside Z^cols: the
    integer kernel of the forms that vanish on the span."""
    rows = [r for r in int_rows if any(r)]
    if not rows:
        return []
    forms = kernel_basis(Mat(rows)) or [[0] * len(rows[0])]
    return [[int(c) for c in v] for v in integer_kernel_basis(Mat(forms))]
