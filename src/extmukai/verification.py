"""Named verification suites: one function per acceptance criterion.

Each criterion function returns a list of checks {"name", "pass",
"detail"}, built by `check`; all arithmetic is exact, so a check either
holds identically or fails with a witness in the detail field.  A check
that loops is a generator of failure details: it passes when the generator
yields nothing, and otherwise its detail is the first failure, after which
nothing more of that check runs.  The CLI `verify` verb and the acceptance
test module both run these.

Suites (CLI names) group the criteria:

    linearisation    1 (sqrt-Todd pairing identities), 2 (integral and
                     exponential identity), 4 (pairing factorials)
    besse            3 (Lefschetz power expansion coefficients),
                     9 (isotropy suite)
    catalog          5 (catalog actions), 12 (Poincare exchange)
    dn               the dn-transfer subset of 5
    lambda-invariance  6 (random generators preserve the lattices),
                     7 (the n = 10 counterexample lattice)
    eichler          8 (transport words)
    moduli           10 (exhaustive box), 11 (rank predicates)
    all              everything
"""

import random
from functools import lru_cache
from math import factorial, gcd

from .catalog import REFLECTION_TWISTS, action, dn_transfer, k3_extended_space, poincare_checks
from .isometry import (
    TransvectionWord,
    disc_action,
    disc_class_rep,
    eichler_transport,
    eichler_transvection,
    identity_isometry,
    minus_identity,
    preserves_lattice,
    lattice_witness,
    reflection,
    spinor_norm,
)
from .lattice import NotFound
from .linalg import Mat, Q, smith_normal_form, vec_add, vec_scale, vec_sub
from .moduli import (
    AlgebraicMukaiLattice,
    disc_lemma_check,
    fineness,
    pairing_witness,
    primitive_vectors_in_box,
)
from .spaces import (
    ExtMukaiSpace,
    b_field,
    custom_type,
    k3n_lattices,
    k3n_type,
    kumn_type,
    kx_rank_core,
    rank_predicate_kx_orbit,
)
from .verbitsky import (
    SymElement,
    laplacian,
    lefschetz_e,
    lefschetz_power_coefficient,
    pair_with_sh,
    pairing_bn,
    psi_monomial,
    sqrt_todd_argument,
    sqrt_todd_pairing_value,
)

DEFAULT_SEED = 20241


def check(name, ok, detail=""):
    return {"name": name, "pass": bool(ok), "detail": str(detail)}


def _first_failure(name, failures):
    """The check `name` over the generator `failures` of failure details: it
    passes when the generator yields nothing, else fails with the first
    detail, and the generator is not resumed."""
    first = next(failures, None)
    return check(name, first is None, first or "")


def all_passed(checks):
    return all(c["pass"] for c in checks)


@lru_cache(maxsize=16)
def family_space(family, n):
    """The extended Mukai space of the K3n or Kumn family at n, kept for the
    16 most recent (family, n)."""
    if family == "K3n":
        return ExtMukaiSpace(k3n_type(n))
    if family == "Kumn":
        return ExtMukaiSpace(kumn_type(n))
    raise ValueError(family)


_RANK3_GRAM = Mat([[0, 1, 0], [1, 0, 0], [0, 0, -2]])


# -- criterion 1 ---------------------------------------------------------------


def crit01_sqrt_todd_linearisation(seed=DEFAULT_SEED, ns=(2, 3, 4), labels=None):
    """Pairing form of the sqrt-Todd linearisation, 10 random classes per
    (family, n <= 4) configuration, exact."""
    rng = random.Random(seed + 1)

    def failures(label, n):
        if label == "custom-rank3":
            space = ExtMukaiSpace(custom_type(n, 5, Q(7, 3), _RANK3_GRAM))
        else:
            space = family_space(label, n)
        arg = sqrt_todd_argument(space)
        for _ in range(10):
            w = tuple(Q(rng.randint(-3, 3)) for _ in range(space.b2))
            q = space.bbf(w, w)
            for i in range(n + 1):
                got = pair_with_sh(space, [w] * (2 * n - 2 * i), arg)
                want = sqrt_todd_pairing_value(space, i, q)
                if got != want:
                    yield "n=%d i=%d got %s want %s" % (n, i, got, want)

    return [
        _first_failure("linearisation %s n=%d" % (label, n), failures(label, n))
        for n in ns
        for label in labels or ("K3n", "Kumn", "custom-rank3")
    ]


# -- criterion 2 ---------------------------------------------------------------


def crit02_integral_and_exp(seed=DEFAULT_SEED):
    """integral(sqrt Todd) = c_X r_X^n / n! and the exponential identity
    at five sampled values of b(w, w), n <= 4."""
    samples = [Q(0), Q(2), Q(-4), Q(7, 2), Q(10)]

    def failures(n, c_x, r_x):
        base = ExtMukaiSpace(custom_type(n, c_x, r_x, Mat([[Q(2)]])))
        got0 = pair_with_sh(base, [], sqrt_todd_argument(base))
        want0 = c_x * r_x**n / factorial(n)
        if got0 != want0:
            yield "integral got %s want %s" % (got0, want0)
        for qv in samples:
            sp = ExtMukaiSpace(custom_type(n, c_x, r_x, Mat([[qv]])))
            a = sqrt_todd_argument(sp)
            total = Q(0)
            for k in range(0, 2 * n + 1):
                val = pair_with_sh(sp, [(Q(1),)] * k, a)
                total += Q(-1) ** k / factorial(k) * val
            want = (1 + qv / (2 * r_x)) ** n * c_x * r_x**n / factorial(n)
            if total != want:
                yield "q=%s got %s want %s" % (qv, total, want)

    return [
        _first_failure("integral+exp %s n=%d" % (label, n), failures(n, c_x, r_x))
        for n in (1, 2, 3, 4)
        for label, c_x, r_x in (
            ("K3n", Q(1), Q(n + 3, 4)),
            ("Kumn", Q(n + 1), Q(n + 1, 4)),
            ("custom-rank3", Q(5), Q(7, 3)),
        )
    ]


# -- criterion 3 ---------------------------------------------------------------


def crit03_lefschetz_expansion(seed=DEFAULT_SEED):
    """Order-class coefficients of e_w^j(alpha^N / N!) against the closed
    form j!/((j-2k)! k! 2^k), all j <= 8, all k, random b(w, w)."""
    rng = random.Random(seed + 3)
    N = 8

    def failures(qv):
        x = SymElement.alpha_power(ExtMukaiSpace(custom_type(N, 1, 1, Mat([[qv]]))), N)
        for j in range(0, N + 1):
            y = x
            for _ in range(j):
                y = lefschetz_e((Q(1),), y)
            seen = dict(y.coeffs)
            for k in range(0, j // 2 + 1):
                key = (N - j + k, tuple([0] * (j - 2 * k)), k)
                got = seen.pop(key, Q(0))
                want = (
                    lefschetz_power_coefficient(j, k)
                    * qv**k
                    / factorial(N - j + k)
                )
                if got != want:
                    yield "j=%d k=%d got %s want %s" % (j, k, got, want)
            if seen:
                yield "unexpected monomials at j=%d: %s" % (j, sorted(seen))

    qvs = [Q(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(3)]
    return [_first_failure("expansion coefficients q=%s" % qv, failures(qv)) for qv in qvs]


# -- criterion 4 ---------------------------------------------------------------


def crit04_pairing_factorials():
    """b_[n](alpha^i beta^{n-i}, alpha^{n-i} beta^i) = c_X i! (n-i)!, n <= 6."""

    def failures(spaces):
        for space in spaces:
            n = space.dtype.n
            for i in range(n + 1):
                x = SymElement.monomial(space, n, i, (), n - i)
                y = SymElement.monomial(space, n, n - i, (), i)
                got = pairing_bn(x, y)
                want = space.dtype.c_x * factorial(i) * factorial(n - i)
                if got != want:
                    yield "n=%d i=%d got %s want %s" % (n, i, got, want)

    checks = [
        _first_failure(
            "pairing factorials %s n<=6" % label,
            failures(family_space(label, n) for n in range(2, 7)),
        )
        for label in ("K3n", "Kumn")
    ]
    # a custom Fujiki constant exercises the prefactor
    custom = (ExtMukaiSpace(custom_type(n, Q(7, 2), Q(1), _RANK3_GRAM)) for n in (2, 3))
    checks.append(_first_failure("pairing factorials custom c_X", failures(custom)))
    return checks


# -- criterion 5 ---------------------------------------------------------------


def crit05_catalog(seed=DEFAULT_SEED):
    checks = []
    rng = random.Random(seed + 5)

    # exact isometries and lattice preservation for every key
    for n in (2, 3):
        space = family_space("K3n", n)
        lats = k3n_lattices(space)
        lam = [rng.randint(-2, 2) for _ in range(space.b2)]
        twists = [action(space, key) for key, (_, only_n, _) in REFLECTION_TWISTS.items()
                  if only_n in (None, n)]
        actions = [action(space, "shift"), action(space, "tensor_line_bundle", lam=lam)]
        for named in actions + twists:
            g = named.iso
            iso_ok = (g.matrix.transpose() * space.gram * g.matrix) == space.gram
            pres = preserves_lattice(g, lats.lam) and preserves_lattice(g, lats.lam_g)
            name = "catalog %s n=%d isometry+preserves" % (named.key, n)
            checks.append(check(name, iso_ok and pres))
        # the reflection twists are involutions
        for named in twists:
            g = named.iso
            name = "catalog %s n=%d squares to id" % (named.key, n)
            checks.append(check(name, g.compose(g).is_identity()))

    # spherical_P at n = 3 sends v(O) to -v(O(-delta))
    space = family_space("K3n", 3)
    lats = k3n_lattices(space)
    p = action(space, "spherical_P").iso
    # v(O) = alpha~ + delta~/2 + beta and v(O(-delta)) = alpha~ - delta~/2 + beta
    base, half_delta = vec_add(lats.alpha_tilde, space.beta), vec_scale(Q(1, 2), lats.delta_tilde)
    v_o, v_o_md = vec_add(base, half_delta), vec_sub(base, half_delta)
    got = p(v_o)
    checks.append(check("spherical_P n=3 sends v(O) to -v(O(-delta))",
                        got == tuple(-c for c in v_o_md), got))

    checks.extend(crit05_dn(seed))
    return checks


def crit05_dn(seed=DEFAULT_SEED):
    """The dn-transfer subset of criterion 5."""
    rng = random.Random(seed + 55)
    checks = []
    k3 = k3_extended_space()
    alpha_beta = vec_add(k3.alpha, k3.beta)
    s_ab = reflection(k3, alpha_beta)

    def random_k3_iso():
        g = identity_isometry(k3)
        for _ in range(rng.randint(1, 3)):
            pick = rng.randint(0, 2)
            if pick == 0:
                lam = tuple(Q(rng.randint(-2, 2)) for _ in range(22))
                g = g.compose(b_field(k3, lam))
            elif pick == 1:
                g = g.compose(s_ab)
            else:
                g = g.compose(minus_identity(k3))
        return g

    def failures(space):
        for _ in range(10):
            g = random_k3_iso()
            h = random_k3_iso()
            lhs = dn_transfer(space, g.compose(h))
            rhs = dn_transfer(space, g).compose(dn_transfer(space, h))
            if lhs.matrix != rhs.matrix:
                yield "homomorphism failed"

    for n in (2, 3):
        space = family_space("K3n", n)
        name = "dn homomorphism on 10 random pairs n=%d" % n
        checks.append(_first_failure(name, failures(space)))
        lats = k3n_lattices(space)
        want = reflection(space, vec_add(lats.alpha_tilde, space.beta))
        if (n + 1) % 2 == 1:
            want = minus_identity(space).compose(want)
        got = dn_transfer(space, s_ab)
        name = "dn(s_{(1,0,1)}) = (-1)^{n+1} s_{alpha~+beta} n=%d" % n
        checks.append(check(name, got.matrix == want.matrix))
    return checks


# -- criterion 6 ---------------------------------------------------------------


def crit06_lambda_invariance(seed=DEFAULT_SEED, generators_total=200):
    """Random plus-group generators preserve Lambda and Lambda_g with spinor
    norm +1 and discriminant action +-id, for n in {2, 3, 5}."""
    rng = random.Random(seed + 6)
    checks = []
    ns = (2, 3, 5)
    per_n = (generators_total + len(ns) - 1) // len(ns)
    for n in ns:
        space = family_space("K3n", n)
        lats = k3n_lattices(space)
        at, dt, beta = lats.alpha_tilde, lats.delta_tilde, space.beta
        e1 = space.basis_vector(1)
        f1 = space.basis_vector(2)
        planes = [(at, tuple(-c for c in beta)), (e1, f1)]

        def random_generator():
            pick = rng.randint(0, 3)
            if pick == 0:
                lam = [rng.randint(-3, 3) for _ in range(space.b2)]
                return "B_lambda", b_field(space, lam)
            if pick == 1:
                return "s_{alpha~+beta}", reflection(space, vec_add(at, beta))
            if pick == 2:
                return "s_{delta~}", reflection(space, dt)
            e, f = planes[rng.randint(0, 1)]
            a0 = lats.lam.basis_in_ambient.transpose().apply(
                tuple(Q(rng.randint(-2, 2)) for _ in range(space.dim))
            )
            # project into e-perp using the plane partner f (b(e, f) = 1)
            corr = space.pairing(e, a0)
            a = vec_add(a0, vec_scale(-corr, f))
            return "transvection", eichler_transvection(space, e, a)

        def failures():
            for idx in range(per_n):
                kind, g = random_generator()
                if not (preserves_lattice(g, lats.lam) and preserves_lattice(g, lats.lam_g)):
                    yield "%s #%d fails lattice preservation" % (kind, idx)
                if spinor_norm(g) != 1:
                    yield "%s #%d has spinor norm -1" % (kind, idx)
                label, _w = disc_action(g, lats.lam)
                if label not in ("identity", "minus_identity"):
                    yield "%s #%d disc action %s" % (kind, idx, label)

        name = "lambda invariance n=%d (%d generators)" % (n, per_n)
        checks.append(_first_failure(name, failures()))
    return checks


# -- criterion 7 ---------------------------------------------------------------


def crit07_counterexample_lattice():
    """n = 10: B_{delta/3} preserves 3 Lambda_S + Z delta~ but not Lambda."""
    space = family_space("K3n", 10)
    lats = k3n_lattices(space)
    third_delta = [Q(0)] * 22 + [Q(1, 3)]
    g = b_field(space, third_delta)
    pres_gamma = preserves_lattice(g, lats.gamma_k)
    pres_lam = preserves_lattice(g, lats.lam)
    witness = lattice_witness(g, lats.lam)
    return [
        check("B_{delta/3} preserves 3 Lambda_S + Z delta~ (n=10)", pres_gamma),
        check(
            "B_{delta/3} moves Lambda (n=10)",
            not pres_lam,
            "witness vector %s" % ([str(c) for c in witness or ()],),
        ),
    ]


# -- criterion 8 ---------------------------------------------------------------


def crit08_eichler_transport(seed=DEFAULT_SEED):
    rng = random.Random(seed + 8)
    space = family_space("K3n", 3)
    lats = k3n_lattices(space)
    L = lats.lam

    def random_primitive():
        v = None
        while v is None:
            v = _draw_primitive(rng)
        return v

    def orbit_partner(v):
        y = v
        for _ in range(3):
            idx = rng.choice([0, 23])  # alpha~ or beta direction: isotropic
            e = tuple(Q(1) if i == idx else Q(0) for i in range(25))
            while True:
                a = tuple(Q(rng.randint(-2, 2)) for _ in range(25))
                if L.pairing(e, a) == 0:
                    break
            y = TransvectionWord(L, [(e, a)]).apply(y)
        return y

    lengths = []

    def matched():
        for trial in range(50):
            v = random_primitive()
            w = orbit_partner(v)
            word = eichler_transport(L, v, w)
            if isinstance(word, NotFound) or word.apply(v) != w:
                yield "pair %d: %s" % (trial, word)
            lengths.append(len(word))

    first = next(matched(), None)
    checks = [check("50 matched pairs transported (n=3)", first is None,
                    first or "max word length %d" % max(lengths))]

    # mismatched pairs return NotFound with the right reason
    def mismatched():
        for trial in range(10):
            v = random_primitive()
            mode = trial % 3
            if mode == 0:
                w = random_primitive()
                while L.norm(w) == L.norm(v):
                    w = random_primitive()
                want = "square"
            elif mode == 1:
                w = tuple(3 * c for c in v)
                want = "primitivity"
            else:
                w = _same_square_other_class(L, v, rng)
                if w is None:
                    continue
                want = "disc class"
            res = eichler_transport(L, v, w)
            if not isinstance(res, NotFound) or res.reason != want:
                yield "mode %s gave %r" % (want, res)

    checks.append(_first_failure("mismatched pairs rejected with reasons", mismatched()))
    return checks


def _draw_primitive(rng):
    """One draw of 25 entries in [-4, 4]: the vector if it is primitive, else None."""
    x = [rng.randint(-4, 4) for _ in range(25)]
    return tuple(Q(c) for c in x) if gcd(*x) == 1 else None


def _same_square_other_class(L, v, rng):
    """A primitive vector of the same square whose disc class differs, from
    at most 200 draws."""
    target = L.norm(v)
    for _ in range(200):
        xv = _draw_primitive(rng)
        if xv is None or L.norm(xv) != target:
            continue
        if disc_class_rep(L, xv) != disc_class_rep(L, v):
            return xv
    return None


# -- criterion 9 ---------------------------------------------------------------


def crit09_isotropy(seed=DEFAULT_SEED):
    rng = random.Random(seed + 9)

    def failures(n):
        space = family_space("K3n", n)
        trials = 0
        while trials < 7:
            s, t, u, w = (rng.randint(-3, 3) for _ in range(4))
            lam = [Q(0)] * space.b2
            lam[0], lam[1], lam[2], lam[3] = Q(s * t), Q(-u * w), Q(s * u), Q(t * w)
            if all(c == 0 for c in lam):
                continue
            trials += 1
            if space.bbf(lam, lam) != 0:
                yield "sampler produced a non-isotropic class"
            if not laplacian(psi_monomial(space, [lam] * n)).is_zero():
                yield "Delta(lambda^n) != 0"
            for k in range(n, 2 * n + 1):
                y = SymElement.monomial(
                    space, n, 2 * n - k, (), k - n, Q(1, factorial(2 * n - k))
                )
                for _ in range(2 * n - k):
                    y = lefschetz_e(lam, y)
                if y != _power_times_beta(space, n, lam, 2 * n - k, k - n):
                    yield "power identity fails at n=%d k=%d" % (n, k)
            zz = psi_monomial(space, [])
            for _ in range(n + 1):
                zz = lefschetz_e(lam, zz)
            if not zz.is_zero():
                yield "e^{n+1}(psi(1)) != 0"

    return [_first_failure("isotropy suite n=%d (7 classes)" % n, failures(n)) for n in (2, 3, 4)]


def _power_times_beta(space, n, lam, p, c):
    """lambda^p beta^c / 1 as a SymElement (multiset expansion)."""
    coeffs = {(): Q(1)}
    for _ in range(p):
        new = {}
        for mono, cf in coeffs.items():
            for idx, cl in enumerate(lam):
                if cl != 0:
                    key = tuple(sorted(mono + (idx,)))
                    new[key] = new.get(key, Q(0)) + cf * cl
        coeffs = new
    return SymElement(space, n, {(0, mono, c): cf for mono, cf in coeffs.items()})


# -- criterion 10 ----------------------------------------------------------------


def crit10_moduli_box():
    """Exhaustive primitive vectors with entries in [-4, 4] over the three
    NS options: fineness triple-equivalence and the discriminant identity."""
    checks = []
    ns_options = [
        ("<2>", Mat([[2]])),
        ("<4>", Mat([[4]])),
        ("U", Mat([[0, 1], [1, 0]])),
    ]
    for label, ns in ns_options:
        lat = AlgebraicMukaiLattice(ns)
        vectors = primitive_vectors_in_box(lat, 4)
        disc = []  # the vectors given to disc_lemma_check

        def failures():
            for v in vectors:
                fine, order = fineness(lat, v)
                # triple equivalence: gcd route, witness route, image-of-pairing route
                witness = pairing_witness(lat, v)
                if (fine != (witness is not None)) or (order != _pairing_image_generator(lat, v)):
                    yield "fineness routes disagree at %s" % (v,)
                if witness is not None and lat.pairing(v, witness) != 1:
                    yield "witness wrong at %s" % (v,)
                if lat.square(v) in (2, 4, 6):  # moduli dimensions 4, 6, 8 (n <= 4)
                    rep = disc_lemma_check(lat, v)
                    disc.append(v)
                    if not rep["all"]:
                        yield "disc lemma fails at %s: %s" % (v, rep)

        first = next(failures(), None)
        name = "moduli box NS=%s (%d vectors, %d disc checks)"
        checks.append(check(name % (label, len(vectors), len(disc)), first is None, first or ""))
    return checks


def _pairing_image_generator(lat, v):
    """Positive generator of {<x, v> : x in L} via the Smith form."""
    pairings = Mat([[int(p) for p in lat.lattice.gram.apply(v)]])
    _, d, _ = smith_normal_form(pairings)
    return int(d[0, 0])


# -- criterion 11 ----------------------------------------------------------------


def crit11_rank_predicates(bound=10**6):
    """rank_predicate_kx_orbit against brute force for |r| <= bound, n <= 6.

    The predicate's integer core is run on every r in the range and compared
    with the independently enumerated set of realizable ranks; the public
    wrapper is checked against the core on all valid and many invalid r.
    """

    def failures(n, c_x, valid):
        core = kx_rank_core
        for r in range(-bound, bound + 1):
            if (core(r, n, c_x) is not None) != (r in valid):
                yield "disagreement at r=%d" % r
        rng = random.Random(11 * n + c_x)
        fact = factorial(n)
        sample = sorted(valid) + [rng.randint(-bound, bound) for _ in range(200)]
        for r in sample:
            got_ok, witness, _integral = rank_predicate_kx_orbit(r, n, c_x)
            if got_ok != (r in valid):
                yield "wrapper disagrees at r=%d" % r
            # a = p/q: a^n n!/c_X = r as p^n n! = r c_X q^n in integers
            if got_ok and witness.numerator**n * fact != r * c_x * witness.denominator**n:
                yield "witness wrong at r=%d" % r

    checks = []
    for n in range(1, 7):
        for c_x in (1, n + 1):
            valid = _brute_force_kx_ranks(n, c_x, bound)
            name = "rank predicate n=%d c_X=%d (|r| <= %d, %d valid)" % (n, c_x, bound, len(valid))
            checks.append(_first_failure(name, failures(n, c_x, valid)))
    return checks


def _brute_force_kx_ranks(n, c_x, bound):
    """{a^n n!/c_X : a in Q} cap Z cap [-bound, bound], by enumeration.

    With a = p/q in lowest terms, q^n must divide p^n n! and hence n!, so
    q ranges over n-th-power divisors of n! only.  For even n the n-th
    power is nonnegative, so only nonnegative ranks occur.
    """
    fact = factorial(n)
    out = set()
    q = 1
    while q**n <= fact:
        p = 0
        while True:
            num = p**n * fact
            den = q**n * c_x
            if num > bound * den:
                break
            if gcd(p, q) == 1 and num % den == 0:
                out.add(num // den)
                if n % 2 == 1:
                    out.add(-(num // den))
            p += 1
        q += 1
    return out


# -- criterion 12 ----------------------------------------------------------------


def crit12_poincare():
    checks = []
    for genus in range(2, 7):
        failed = [c["name"] for c in poincare_checks(genus) if not c["pass"]]
        checks.append(check("poincare exchange genus %d" % genus, not failed, "; ".join(failed)))
    return checks


# -- suites ----------------------------------------------------------------------


CRITERIA = {
    1: crit01_sqrt_todd_linearisation,
    2: crit02_integral_and_exp,
    3: crit03_lefschetz_expansion,
    4: lambda seed=DEFAULT_SEED: crit04_pairing_factorials(),
    5: crit05_catalog,
    6: crit06_lambda_invariance,
    7: lambda seed=DEFAULT_SEED: crit07_counterexample_lattice(),
    8: crit08_eichler_transport,
    9: crit09_isotropy,
    10: lambda seed=DEFAULT_SEED: crit10_moduli_box(),
    11: lambda seed=DEFAULT_SEED: crit11_rank_predicates(),
    12: lambda seed=DEFAULT_SEED: crit12_poincare(),
    "dn": crit05_dn,
}

SUITES = {
    "linearisation": (1, 2, 4),
    "besse": (3, 9),
    "catalog": (5, 12),
    "dn": ("dn",),
    "lambda-invariance": (6, 7),
    "eichler": (8,),
    "moduli": (10, 11),
    "all": tuple(range(1, 13)),
}


def run_suite(name, seed=DEFAULT_SEED, n=None, h2_rank=None):
    """Run a named suite; returns the flat list of checks.

    `n` and `h2_rank` narrow the linearisation suite to one symmetric
    degree or to the rank-3 custom configuration; other suites ignore them.
    """
    if name not in SUITES:
        raise ValueError("unknown suite %r" % (name,))
    checks = []
    for idx in SUITES[name]:
        if idx == 1 and (n is not None or h2_rank is not None):
            if h2_rank is not None and h2_rank != 3:
                raise ValueError("only the rank-3 custom configuration is narrowable")
            checks.extend(
                crit01_sqrt_todd_linearisation(
                    seed=seed,
                    ns=(n,) if n is not None else (2, 3, 4),
                    labels=("custom-rank3",) if h2_rank == 3 else None,
                )
            )
            continue
        checks.extend(CRITERIA[idx](seed=seed))
    return checks
