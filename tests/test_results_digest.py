"""The library's results on a fixed seeded corpus, as a recorded digest.

tests/data/results_digest.json holds, for each family of public results, the
SHA-256 of the canonical JSON of its outputs on the corpus built here, with
the corpus size next to it.  An exception is a result too: its type name and
message.  Numbers are compared by value, as rational strings.

`test_results_digest` recomputes every family and compares it with the
record.  It then builds the corpus again on fresh objects and replays it
split over THREADS threads that share its spaces and lattices, with a tiny
switch interval, and the digests must match.

Matrices stay at most 10 x 10 with entries up to 2^16, so the corpus holds
no input on which the Hermite kernels take exponential time.

    python tests/test_results_digest.py

re-records the file, for a change that alters results on purpose.
"""

import hashlib
import json
import random
import sys
import threading
from fractions import Fraction as Q
from math import gcd
from pathlib import Path

from extmukai import (
    AlgebraicMukaiLattice,
    DiscGroup,
    ExtMukaiSpace,
    Isometry,
    Mat,
    NamedAction,
    NotFound,
    QuadLattice,
    QuadSpace,
    SymElement,
    TransvectionWord,
    action,
    b_field,
    custom_type,
    disc_action,
    disc_lemma_check,
    discriminant_group,
    eichler_transport,
    eichler_transvection,
    euler_char_line_bundle,
    fineness,
    k3_surface_type,
    k3n_lattices,
    k3n_type,
    kumn_type,
    moduli_dimension,
    ns_of_moduli,
    pair_with_sh,
    partner_invariants,
    preserves_lattice,
    project_t,
    rank_predicate_kx_orbit,
    rank_predicate_o_orbit,
    reflection,
    restricted_space,
    smith_normal_form,
    spinor_norm,
    sqrt_todd_argument,
    standard_lattice,
    todd_argument,
)
from extmukai.catalog import k3_extended_space
from extmukai.linalg import hnf_row_basis, integer_kernel_basis

RECORD = Path(__file__).parent / "data" / "results_digest.json"
SEED = 20260
THREADS = 4


def _canon(x):
    """x as plain JSON data: numbers as rational strings, results by value."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, Q)):
        return str(Q(x))
    if isinstance(x, (tuple, list)):
        return [_canon(y) for y in x]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, Mat):
        return _canon(x.entries())
    if isinstance(x, QuadLattice):
        return {"gram": _canon(x.gram), "basis": _canon(x.basis_in_ambient)}
    if isinstance(x, DiscGroup):
        return _canon((x.cyclic_orders, x.generators, x.q_values))
    if isinstance(x, Isometry):
        return _canon(x.matrix)
    if isinstance(x, NamedAction):
        return _canon((x.key, x.epsilon, x.provenance, x.iso))
    if isinstance(x, TransvectionWord):
        return _canon(x.pairs)
    if isinstance(x, NotFound):
        return {"not_found": x.reason}
    if isinstance(x, SymElement):
        return _canon((x.n, sorted(x.coeffs.items())))
    raise TypeError("no canonical form for %r" % (x,))


def _result(thunk):
    try:
        return _canon(thunk())
    except Exception as exc:  # an error is a result: its type and message
        return {"raised": type(exc).__name__, "message": str(exc)}


# -- the corpus ---------------------------------------------------------------


def _int_matrix(rng, r, c):
    """An r x c integer matrix: small or 16-bit entries, some of low rank."""
    bound = rng.choice((3, 9, 2**16))
    if rng.random() < 0.3 and min(r, c) > 1:
        k = rng.randint(1, min(r, c) - 1)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        b = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(k)]
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


def _even_gram(rng, k, bound=4):
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        m[i][i] = 2 * rng.randint(-bound, bound)
        for j in range(i):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return Mat(m)


def _linalg(rng):
    items = []
    for _ in range(120):
        m = _int_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        items.append(("smith_normal_form", lambda m=m: smith_normal_form(Mat(m))))
        items.append(("hnf_row_basis", lambda m=m: hnf_row_basis(m)))
        q = [[Q(x, rng.choice((1, 1, 2, 3))) for x in row] for row in m]
        items.append(("integer_kernel_basis", lambda q=q: integer_kernel_basis(Mat(q))))
    items.append(("smith_normal_form", lambda: smith_normal_form(Mat([[Q(1, 2)]]))))
    items.append(("hnf_row_basis", lambda: hnf_row_basis([])))
    return items


def _discriminant(rng, k3n):
    lats = [QuadLattice(_even_gram(rng, rng.randint(1, 6))) for _ in range(30)]
    lats += [standard_lattice(name) for name in ("U", "E8_minus", "K3", "MukaiK3")]
    lats += [standard_lattice("A1", k) for k in (2, -6, 3)]
    lats += [QuadLattice(Mat([[Q(1, 2)]])), QuadLattice(Mat([[2, 1], [1, 2]]))]
    lats += [k3n[n][1].lam for n in sorted(k3n)] + [k3n[n][1].lam_g for n in sorted(k3n)]
    return [("discriminant_group", lambda lat=lat: discriminant_group(lat)) for lat in lats]


def _moduli(rng):
    grams = [Mat([[2]]), Mat([[4]]), Mat([[-2]]), Mat([[2, 1], [1, -2]]), Mat([[0, 1], [1, 0]])]
    grams += [_even_gram(rng, rng.randint(1, 3), 3) for _ in range(3)]
    funcs = (moduli_dimension, ns_of_moduli, fineness, disc_lemma_check, partner_invariants)
    items = [("moduli", lambda: AlgebraicMukaiLattice(Mat([[1]])))]
    for gram in grams:
        lat = AlgebraicMukaiLattice(gram)
        for _ in range(12):
            v = (0,)
            while gcd(*v) != 1:
                v = tuple(rng.randint(-6, 6) for _ in range(lat.rank))
            v = tuple(map(Q, v))
            for f in funcs:
                items.append(("moduli", lambda f=f, lat=lat, v=v: f(lat, v)))
        v = tuple(Q(2) for _ in range(lat.rank))  # not primitive
        items.append(("moduli", lambda lat=lat, v=v: partner_invariants(lat, v)))
    return items


def _catalog(rng, k3n):
    k3 = k3_extended_space()
    gs = [reflection(k3, tuple(Q(rng.randint(-2, 2)) for _ in range(24))) for _ in range(2)]
    gs.append(b_field(k3, [rng.randint(-2, 2) for _ in range(22)]))
    items = []
    for n in sorted(k3n):
        space = k3n[n][0]
        for key in ("shift", "sign_equivalence", "spherical_P", "fm_ext1", "horja_EZ", "nope"):
            items.append(("catalog", lambda space=space, key=key: action(space, key)))
        lam = [rng.randint(-2, 2) for _ in range(space.b2)]
        items.append(("catalog", lambda space=space, lam=lam: action(space, "tensor_line_bundle", lam=lam)))
        items.append(("catalog", lambda space=space: action(space, "tensor_line_bundle")))
        items.append(("catalog", lambda space=space: action(space, "dn_transfer")))
        for g in gs:
            items.append(("catalog", lambda space=space, g=g: action(space, "dn_transfer", g=g)))
    for genus in (None, 1, 2, 3, 5):
        items.append(("catalog", lambda genus=genus: action(None, "poincare", genus=genus)))
    kum = ExtMukaiSpace(kumn_type(2))
    items.append(("catalog", lambda: action(kum, "spherical_P")))
    return items


def _transport_pair(rng, lam, bound=4):
    """(v, w) in Lambda coordinates: v primitive with entries in [-bound,
    bound], w its image under integer transvections along alpha~ and beta
    (indices 0 and 23), as in the lambda-membership workload."""
    gram = [[int(c) for c in r] for r in lam.gram.entries()]
    v = (0,)
    while gcd(*v) != 1:
        v = tuple(rng.randint(-bound, bound) for _ in range(25))
    w = v
    for e, f in ((0, 23), (23, 0), (0, 23)):
        a = [rng.randint(-2, 2) for _ in range(25)]
        a[f] += sum(gram[e][j] * x for j, x in enumerate(a))
        word = TransvectionWord(lam, [(tuple(Q(int(i == e)) for i in range(25)), tuple(map(Q, a)))])
        w = word.apply(w)
    return tuple(map(Q, v)), w


def _transport(rng, k3n):
    items = []
    for n in sorted(k3n):
        lam = k3n[n][1].lam
        for bound in (4,) * 16 + (2**16,) * 6:
            v, w = _transport_pair(rng, lam, bound)
            items.append(("transport", lambda lam=lam, v=v, w=w: eichler_transport(lam, v, w)))
        v, w = _transport_pair(rng, lam)
        items.append(("transport", lambda lam=lam, v=v: eichler_transport(lam, v, v)))
        items.append(("transport", lambda lam=lam, v=v: eichler_transport(lam, v, tuple(2 * c for c in v))))
        items.append(("transport", lambda lam=lam, v=v: eichler_transport(lam, v, (Q(1),) + (Q(0),) * 24)))
        delta = (Q(0),) * 24 + (Q(1),)
        items.append(("transport", lambda lam=lam, d=delta: eichler_transport(lam, (Q(1),) + d[1:], d)))
        items.append(("transport", lambda lam=lam: eichler_transport(lam, (Q(0),) * 25, (Q(0),) * 25)))
    ua1 = QuadLattice(Mat([[0, 1, 0], [1, 0, 0], [0, 0, 2]]))
    v = (Q(1), Q(1), Q(0))
    items.append(("transport", lambda: eichler_transport(ua1, v, tuple(-c for c in v))))
    return items


def _diag_lattices():
    """L = <6> + <6> + <6>: A(L) = (Z/6)^3, on which swaps act by neither
    +id nor -id.  Full rank, and as a sublattice of a rank-4 space."""
    space3 = QuadSpace(Mat.diagonal([6, 6, 6]))
    full = QuadLattice.from_basis([space3.basis_vector(i) for i in range(3)], space3.gram)
    space4 = QuadSpace(Mat.diagonal([6, 6, 6, 2]))
    sub = QuadLattice.from_basis([space4.basis_vector(i) for i in range(3)], space4.gram)
    out = []
    for space, lat in ((space3, full), (space4, sub)):
        extra = [[int(i == j) for j in range(space.dim)] for i in range(3, space.dim)]
        for signs, perm in (((1, 1, 1), (1, 0, 2)), ((1, 1, 1), (0, 2, 1)),
                            ((-1, 1, 1), (0, 2, 1)), ((-1, -1, -1), (0, 1, 2)),
                            ((1, 1, 1), (0, 1, 2)), ((1, -1, 1), (0, 1, 2))):
            cols = [[s * int(i == p) for i in range(3)] for s, p in zip(signs, perm)]
            rows = [list(r) + [0] * (space.dim - 3) for r in zip(*cols)] + extra
            out.append((Isometry(space, Mat(rows)), lat))
    return out


def _plus_words(rng, k3n):
    items = []
    for n in sorted(k3n):
        space, lats = k3n[n]
        at, dt, beta = lats.alpha_tilde, lats.delta_tilde, space.beta
        for k in range(4):
            gens = [b_field(space, [rng.randint(-2, 2) for _ in range(space.b2)]),
                    reflection(space, tuple(a + b for a, b in zip(at, beta))),
                    reflection(space, dt)]
            a = lats.lam.ambient_vector(tuple(Q(rng.randint(-2, 2)) for _ in range(25)))
            a = tuple(x - space.pairing(at, a) * b for x, b in zip(a, tuple(-c for c in beta)))
            gens.append(eichler_transvection(space, at, a))
            u = [Q(0)] * space.dim
            u[1], u[2] = Q(1), Q(1)  # square 2: spinor norm -1
            gens.append(reflection(space, tuple(u)))
            rng.shuffle(gens)
            if k == 0:  # a half-integral B-field moves Lambda
                half = [rng.randint(-2, 2) for _ in range(space.b2)]
                half[rng.randrange(space.b2 - 1)] += Q(1, 2)
                gens.append(b_field(space, half))
            g = gens[0]
            for h in gens[1:]:
                g = g.compose(h)
            items += _isometry_matrices(gens, g, lats)
            items.append(("spinor_norm", lambda g=g: spinor_norm(g)))
            items.append(("disc_action", lambda g=g, lat=lats.lam: disc_action(g, lat)))
        items.append(("disc_action", lambda g=g, lat=lats.lam_g: disc_action(g, lat)))
    for g, lat in _diag_lattices():
        items.append(("spinor_norm", lambda g=g: spinor_norm(g)))
        items.append(("disc_action", lambda g=g, lat=lat: disc_action(g, lat)))
    return items


def _isometry_matrices(gens, g, lats):
    """The matrices of the generators and of their product g, g on Lambda and
    Lambda_g, and whether g preserves each; draws nothing from the rng."""
    items = [("isometry_matrices", lambda h=h: h.matrix.entries()) for h in gens + [g]]
    for lat in (lats.lam, lats.lam_g):
        items.append(("isometry_matrices", lambda lat=lat: g.on_lattice(lat).entries()))
        items.append(("isometry_matrices", lambda lat=lat: preserves_lattice(g, lat)))
    return items


def _sym(rng):
    k3 = ExtMukaiSpace(k3_surface_type())
    items = []
    for n in (2, 3):
        for make in (k3n_type, kumn_type):
            space = ExtMukaiSpace(make(n))
            lam = [rng.randint(-2, 2) for _ in range(space.b2)]
            items.append(("euler_char", lambda space=space, lam=lam: euler_char_line_bundle(space, lam)))
            nu = [rng.randint(-2, 2) for _ in range(space.b2)]
            small = restricted_space(space, [lam, nu])
            items.append(("euler_char", lambda small=small: euler_char_line_bundle(small, (Q(1), Q(-1)))))
            for arg in (sqrt_todd_argument, todd_argument):
                for k in range(2 * n + 2):
                    mono = [(Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))) for _ in range(k)]
                    items.append(("pair_with_sh", lambda small=small, mono=mono, arg=arg:
                                  pair_with_sh(small, mono, arg(small), with_detail=True)))
            for _ in range(3):
                coeffs = {}
                for _ in range(4):
                    a = rng.randint(0, n)
                    m = tuple(sorted(rng.randrange(2) for _ in range(rng.randint(0, n - a))))
                    coeffs[(a, m, n - a - len(m))] = Q(rng.randint(-5, 5), rng.randint(1, 3))
                x = SymElement(small, n, coeffs)
                items.append(("project_t", lambda x=x: project_t(x)))
    singular = ExtMukaiSpace(custom_type(2, 1, Q(5, 4), Mat([[0]])))
    items.append(("project_t", lambda: project_t(SymElement.monomial(singular, 2, 0, (0, 0), 0))))
    items.append(("euler_char", lambda: euler_char_line_bundle(k3, [1] * 22)))
    items.append(("pair_with_sh", lambda: pair_with_sh(k3, [(Q(1),) * 22] * 3, sqrt_todd_argument(k3))))
    return items


def _rank():
    items = []
    for n in range(1, 7):
        for r in list(range(-60, 61)) + [2**60, 3**25, -(5**17), 7**12 * 2, -(2**30) * 3]:
            items.append(("rank_predicates", lambda r=r, n=n: rank_predicate_o_orbit(r, n)))
            for c_x in (1, 3, Q(1, 2), Q(-2, 3)):
                items.append(("rank_predicates", lambda r=r, n=n, c=c_x: rank_predicate_kx_orbit(r, n, c)))
    items.append(("rank_predicates", lambda: rank_predicate_o_orbit(4, 0)))
    items.append(("rank_predicates", lambda: rank_predicate_kx_orbit(4, 0, 1)))
    return items


def corpus():
    """(family, thunk) pairs on fresh spaces and lattices, from SEED."""
    rng = random.Random(SEED)
    k3n = {}
    for n in (2, 3, 5):
        space = ExtMukaiSpace(k3n_type(n))
        k3n[n] = (space, k3n_lattices(space))
    return (_linalg(rng) + _discriminant(rng, k3n) + _moduli(rng) + _catalog(rng, k3n)
            + _transport(rng, k3n) + _plus_words(rng, k3n) + _sym(rng) + _rank())


def digests(items, results):
    """{family: {"sha256": hex digest of its results, "size": count}}."""
    families = {}
    for (family, _), res in zip(items, results):
        families.setdefault(family, []).append(res)
    return {
        family: {
            "sha256": hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest(),
            "size": len(res),
        }
        for family, res in sorted(families.items())
    }


def serial_digests():
    items = corpus()
    return digests(items, [_result(thunk) for _, thunk in items])


def threaded_digests():
    """The corpus on fresh objects, item i run by thread i mod THREADS."""
    items = corpus()
    results = [None] * len(items)

    def run(k):
        for i in range(k, len(items), THREADS):
            results[i] = _result(items[i][1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    return digests(items, results)


def test_results_digest():
    record = json.loads(RECORD.read_text())
    assert serial_digests() == record
    assert threaded_digests() == record


if __name__ == "__main__":
    RECORD.write_text(json.dumps(serial_digests(), indent=2, sort_keys=True) + "\n")
    print("recorded %s" % RECORD)
