"""Exact rational dense linear algebra.

Everything in this package runs over Q with `fractions.Fraction`; there is
no floating point anywhere.  Matrices are small (a few hundred rows at the
very most, usually 25 or less), so the kernels below are straightforward
dense algorithms: Gaussian elimination on `Fraction` entries (`rref`, `det`,
`inverse`, the solvers and kernels), and Smith and Hermite normal forms with
unimodular transforms on integers.

The integer Gram form lives here too: a matrix is read as the lcm d of its
denominators together with, for every row, the list of its nonzero
(column, d * entry) integer pairs.  `Mat.bilinear` (every quadratic-form
pairing of the package), `Mat.apply` and matrix products run on that form
in plain integers and divide by the common denominator once per result
entry.  A product carries its own form, read off its integer accumulators,
so chains of products never rebuild it.  `congruence_diagonalize` is the
one symmetric elimination: inertia indices and positive-definite bases are
both read off its output.

Values are immutable (tuples of tuples); every function is pure.
"""

from fractions import Fraction
from math import gcd

Q = Fraction

QZERO = Q(0)
QONE = Q(1)


def qv(*entries):
    """Build a rational vector (tuple of Fraction) from ints/strings/Fractions."""
    return tuple(Q(e) for e in entries)


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


def vec_content(v):
    """gcd of the numerators / lcm of denominators; 0 for the zero vector."""
    num = 0
    den = 1
    for a in v:
        num = gcd(num, a.numerator)
        den = den * a.denominator // gcd(den, a.denominator)
    return Q(num, den)


def vec_primitive_part(v):
    """Scale a nonzero rational vector to a primitive integer vector."""
    c = vec_content(v)
    if c == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(a / c for a in v)


def _cleared(v):
    """(d, ints): d the lcm of the denominators of v (ints or Fractions) and
    ints the integer vector d * v."""
    d = 1
    for a in v:
        q = a.denominator
        if q != 1 and d % q:
            d = d * q // gcd(d, q)
    return d, [a.numerator * (d // a.denominator) for a in v]


class Mat:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "_m", "_hash", "_int")

    def __init__(self, rows_of_entries):
        m = tuple(
            tuple(e if type(e) is Q else Q(e) for e in row) for row in rows_of_entries
        )
        self.rows = len(m)
        self.cols = len(m[0]) if m else 0
        if any(len(r) != self.cols for r in m):
            raise ValueError("ragged matrix")
        self._m = m
        self._hash = None
        self._int = None  # integer form (see _form): kept by products and _keep_form()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n):
        return Mat([[QONE if i == j else QZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(r, c):
        return Mat([[QZERO] * c for _ in range(r)])

    @staticmethod
    def diagonal(entries):
        entries = [Q(e) for e in entries]
        n = len(entries)
        return Mat([[entries[i] if i == j else QZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def block_diagonal(blocks):
        n = sum(b.rows for b in blocks)
        c = sum(b.cols for b in blocks)
        out = [[QZERO] * c for _ in range(n)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[i0 + i][j0 + j] = b[i, j]
            i0 += b.rows
            j0 += b.cols
        return Mat(out)

    @staticmethod
    def from_rows(vectors):
        return Mat([list(v) for v in vectors])

    @staticmethod
    def from_columns(vectors):
        return Mat([list(v) for v in vectors]).transpose()

    # -- basic access ------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self._m[i][j]

    def row(self, i):
        return self._m[i]

    def column(self, j):
        return tuple(r[j] for r in self._m)

    def entries(self):
        return self._m

    def __eq__(self, other):
        return isinstance(other, Mat) and self._m == other._m

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._m)
        return self._hash

    def __repr__(self):
        return "Mat(%r)" % [[str(e) for e in row] for row in self._m]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return Mat([[a + b for a, b in zip(r, s)] for r, s in zip(self._m, other._m)])

    def __sub__(self, other):
        return Mat([[a - b for a, b in zip(r, s)] for r, s in zip(self._m, other._m)])

    def __neg__(self):
        return Mat([[-a for a in r] for r in self._m])

    def scale(self, c):
        c = Q(c)
        return Mat([[c * a for a in r] for r in self._m])

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self._matmul(other)
        raise TypeError("use .apply() for vectors, .scale() for scalars")

    def _matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        da, A = self._form()
        db, B = other._form()
        d = da * db
        accs = []
        for ra in A:
            acc = [0] * other.cols
            for k, a in ra:
                for j, b in B[k]:
                    acc[j] += a * b
            accs.append(acc)
        # the product keeps its integer form: its lcm denominator is d / g
        g = gcd(d, *(x for acc in accs for x in acc))
        out = Mat([[Q(x, d) if x else QZERO for x in acc] for acc in accs])
        out._int = d // g, [[(j, x // g) for j, x in enumerate(acc) if x] for acc in accs]
        return out

    def apply(self, v):
        """Matrix times column vector (entries ints or Fractions)."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        d, rows = self._form()
        dv, w = _cleared(v)
        d *= dv
        return tuple(Q(sum(g * w[j] for j, g in r), d) for r in rows)

    def bilinear(self, x, y):
        """x^T M y as a Fraction, for vectors of ints or Fractions.

        The integer form is kept (`_keep_form`): this is the pairing of every
        Gram matrix in the package."""
        if len(x) != self.rows or len(y) != self.cols:
            raise ValueError("shape mismatch")
        d, rows = self._keep_form()._int
        dx, xs = _cleared(x)
        dy, ys = _cleared(y)
        total = 0
        for xi, r in zip(xs, rows):
            if xi:
                total += xi * sum(g * ys[j] for j, g in r)
        return Q(total, d * dx * dy)

    def _keep_form(self):
        """Build the integer form once and keep it on this matrix; returns self.

        For long-lived matrices that are paired, applied or multiplied again
        and again (Grams, Gram inverses, lattice basis changes).  Products
        come with their form; other matrices build it per call."""
        if self._int is None:
            self._int = self._form()
        return self

    def _form(self):
        """The integer form (d, rows): d the lcm of the denominators, each row
        the list of its nonzero (column, d * entry) pairs."""
        if self._int is not None:
            return self._int
        d = self.denominator_lcm()
        return d, [
            [(j, a.numerator * (d // a.denominator)) for j, a in enumerate(r) if a]
            for r in self._m
        ]

    def transpose(self):
        return Mat(list(zip(*self._m))) if self.rows and self.cols else Mat.zero(self.cols, self.rows)

    def denominator_lcm(self):
        d = 1
        for r in self._m:
            for a in r:
                q = a.denominator
                if q != 1 and d % q:
                    d = d * q // gcd(d, q)
        return d

    def is_integral(self):
        return all(a.denominator == 1 for r in self._m for a in r)

    def is_symmetric(self):
        return self.rows == self.cols and all(
            self._m[i][j] == self._m[j][i] for i in range(self.rows) for j in range(i)
        )

    def int_entries(self):
        if not self.is_integral():
            raise ValueError("integrality required")
        return [[a.numerator for a in r] for r in self._m]

    # -- elimination kernels -------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        m = [list(r) for r in self._m]
        pivots = []
        pr = 0
        for pc in range(self.cols):
            pivot = None
            for i in range(pr, self.rows):
                if m[i][pc] != 0:
                    pivot = i
                    break
            if pivot is None:
                continue
            m[pr], m[pivot] = m[pivot], m[pr]
            inv = 1 / m[pr][pc]
            m[pr] = [a * inv for a in m[pr]]
            for i in range(self.rows):
                if i != pr and m[i][pc] != 0:
                    f = m[i][pc]
                    m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return Mat(m), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        m = [list(r) for r in self._m]
        n = self.rows
        det = QONE
        for c in range(n):
            pivot = None
            for i in range(c, n):
                if m[i][c] != 0:
                    pivot = i
                    break
            if pivot is None:
                return QZERO
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        n = self.rows
        aug = [list(r) + [QONE if i == j else QZERO for j in range(n)]
               for i, r in enumerate(self._m)]
        R, pivots = Mat(aug).rref()
        if len(pivots) < n or pivots[n - 1] != n - 1:
            raise ValueError("singular matrix")
        return Mat([R.row(i)[n:] for i in range(n)])


def identity_plus_outer(n, pairs):
    """The n x n matrix I + sum of u w^T over the (u, w) pairs.

    Starts from the identity and touches only the rows where u is nonzero
    and, in them, only the columns where w is nonzero.  Reflections,
    Eichler transvections and B-field maps are all of this shape.
    """
    m = [[QONE if i == j else QZERO for j in range(n)] for i in range(n)]
    for u, w in pairs:
        nonzero = [(j, b) for j, b in enumerate(w) if b]
        for i, a in enumerate(u):
            if a:
                row = m[i]
                for j, b in nonzero:
                    row[j] += a * b
    return Mat(m)


def solve_linear(a, b):
    """Solve a x = b exactly; returns the solution vector or None.

    For underdetermined systems any one solution is returned (free
    variables set to zero).
    """
    if len(b) != a.rows:
        raise ValueError("shape mismatch")
    aug = Mat([list(r) + [bv] for r, bv in zip(a.entries(), b)])
    R, pivots = aug.rref()
    if a.cols in pivots:
        return None
    x = [QZERO] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = R[i, a.cols]
    return tuple(x)


def kernel_basis(a):
    """Basis of the right kernel of a over Q (empty list when injective)."""
    R, pivots = a.rref()
    free = [j for j in range(a.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [QZERO] * a.cols
        v[f] = QONE
        for i, pc in enumerate(pivots):
            v[pc] = -R[i, f]
        basis.append(tuple(v))
    return basis


def congruence_diagonalize(gram):
    """Symmetric elimination: (diag, T) with T * gram * T^T = diag(diag).

    T is invertible.  Pivots are taken in order from the diagonal; when the
    rest of the diagonal is zero the first nonzero off-diagonal entry (i, j)
    is folded in by adding row and column j to i.  Once the remaining block
    is zero its entries stay zero in diag.
    """
    n = gram.rows
    m = [list(r) for r in gram.entries()]
    trans = [[QONE if i == j else QZERO for j in range(n)] for i in range(n)]
    for step in range(n):
        p = next((i for i in range(step, n) if m[i][i] != 0), None)
        if p is None:
            pair = next(
                ((i, j) for i in range(step, n) for j in range(i + 1, n) if m[i][j] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            trans[i] = [a + b for a, b in zip(trans[i], trans[j])]
            p = i
        if p != step:
            m[step], m[p] = m[p], m[step]
            for row in m:
                row[step], row[p] = row[p], row[step]
            trans[step], trans[p] = trans[p], trans[step]
        d = m[step][step]
        for i in range(step + 1, n):
            if m[i][step] != 0:
                f = m[i][step] / d
                for k in range(n):
                    m[i][k] -= f * m[step][k]
                for k in range(n):
                    m[k][i] -= f * m[k][step]
                trans[i] = [a - f * b for a, b in zip(trans[i], trans[step])]
    return [m[i][i] for i in range(n)], Mat(trans)


# -- integer normal forms ----------------------------------------------------


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def smith_normal_form(mat):
    """Smith normal form with transforms: U*m*V = D, U, V unimodular.

    Input must be integral.  D is diagonal with nonnegative entries and
    d_i | d_{i+1}.
    """
    A = [row[:] for row in mat.int_entries()]
    r = len(A)
    c = len(A[0]) if A else 0
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def col_op(j1, j2, f):
        # col j2 += f * col j1
        for i in range(r):
            A[i][j2] += f * A[i][j1]
        for i in range(c):
            V[i][j2] += f * V[i][j1]

    def row_op(i1, i2, f):
        # row i2 += f * row i1
        A[i2] = [a + f * b for a, b in zip(A[i2], A[i1])]
        U[i2] = [a + f * b for a, b in zip(U[i2], U[i1])]

    t = 0
    while t < min(r, c):
        # locate a minimal nonzero pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                a = abs(A[i][j])
                if a and (best is None or a < best):
                    best = a
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            _swap_rows(A, i, t)
            _swap_rows(U, i, t)
        if j != t:
            for row in A:
                row[t], row[j] = row[j], row[t]
            for row in V:
                row[t], row[j] = row[j], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, r):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(t, i, -q)
                    if A[i][t]:
                        _swap_rows(A, i, t)
                        _swap_rows(U, i, t)
                        dirty = True
            # clear row t
            for j in range(t + 1, c):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(t, j, -q)
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        for row in V:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        # divisibility: d_t must divide the rest of the block
        d = A[t][t]
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if A[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(offender, t, 1)
            continue
        t += 1

    for i in range(min(r, c)):
        if A[i][i] < 0:
            A[i] = [-a for a in A[i]]
            U[i] = [-a for a in U[i]]
    return Mat(U), Mat(A), Mat(V)


def hnf_row_basis(int_rows):
    """Row-style Hermite basis of the subgroup of Z^c generated by the rows.

    Returns a list of linearly independent integer rows spanning the same
    subgroup (upper triangular up to column permutation).
    """
    rows = [list(r) for r in int_rows if any(r)]
    if not rows:
        return []
    pivot_of_col = {}
    for v in rows:
        v = v[:]
        while True:
            j = next((k for k, a in enumerate(v) if a), None)
            if j is None:
                break
            if j not in pivot_of_col:
                if v[j] < 0:
                    v = [-a for a in v]
                pivot_of_col[j] = v
                break
            w = pivot_of_col[j]
            q = v[j] // w[j]
            v = [a - q * b for a, b in zip(v, w)]
            if v[j]:
                # remainder 0 < v[j] < w[j]: it becomes the new pivot
                pivot_of_col[j], v = v, w
    # normalize: reduce entries above each pivot
    cols = sorted(pivot_of_col)
    basis = [pivot_of_col[j] for j in cols]
    for idx in range(len(basis) - 1, -1, -1):
        j = cols[idx]
        for k in range(idx):
            q = basis[k][j] // basis[idx][j]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[idx])]
    return basis


def integer_kernel_basis(mat):
    """Saturated basis of {x in Z^c : m x = 0} for a rational matrix m."""
    d = mat.denominator_lcm()
    A = mat.scale(d)
    _, D, V = smith_normal_form(A)
    nonzero = sum(1 for i in range(min(D.rows, D.cols)) if D[i, i] != 0)
    return [V.column(j) for j in range(nonzero, mat.cols)]


def saturation_basis(int_rows):
    """Basis of the saturation of the integer row span inside Z^cols."""
    rows = [r for r in int_rows if any(r)]
    if not rows:
        return []
    m = Mat(rows)
    _, D, V = smith_normal_form(m)
    Vinv = V.inverse()
    rank = sum(1 for i in range(min(D.rows, D.cols)) if D[i, i] != 0)
    return [tuple(int(x) for x in Vinv.row(i)) for i in range(rank)]
