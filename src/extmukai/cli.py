"""Command-line front end.

Every verb reads rationals as "p/q" strings and emits a canonical JSON
report on stdout (sorted keys, fixed separators), or a plain-text variant
with --format text.  Exit codes: 0 all checks passed, 1 verification
failure, 2 malformed input.

Vector syntax: a comma-separated list of rationals ("1,0,-1/2,...") in
(alpha, H^2 basis..., beta) coordinates, or an expression in the named
generators alpha, beta, delta, e1, e2, ... (H^2 basis), combined with
+, - and rational multiples, e.g. "alpha+5/4*beta", "delta/3", "2*e1-e2".
H^2-only contexts (--lam, b-fields) use the same syntax without alpha/beta
and accept "0" for the zero class.

The Sym^n verbs (todd, chi, integrate, and verify --n for the suites that
read it: linearisation, all) accept n <= SYM_MAX_N = 6: integrate sums over
(2n-1)!! matchings (10,395 at n = 6, 2,027,025 at n = 8), and the
linearisation suite grows with every n.  Larger n exits 2; the other suites
ignore --n.

Isometry syntax for --iso:
    bfield:<h2 expr>       reflection:<vector expr>
    transvection:<vector expr>|<vector expr>
    shift                  catalog:<key>
"""

import argparse
import json
import sys
from fractions import Fraction

from .catalog import CATALOG_KEYS, action, k3_extended_space
from .isometry import (
    disc_action,
    eichler_transport,
    eichler_transvection,
    generate_bounded,
    lattice_witness,
    minus_identity,
    preserves_lattice,
    reflection,
    spinor_norm,
)
from .lattice import NotFound
from .linalg import Mat, Q
from .moduli import (
    AlgebraicMukaiLattice, disc_lemma_check, fineness, moduli_dimension, ns_of_moduli,
    partner_invariants,
)
from .serialize import (
    canonical_json,
    isometry_from_json,
    isometry_to_json,
    lattice_from_json,
    matrix_to_json,
    parse_rat,
    rat_str,
    vector_to_json,
)
from .spaces import (
    DeformationType,
    ExtMukaiSpace,
    b_field,
    ext_vector_line_bundle,
    ext_vector_point,
    k3n_lattices,
)
from .verbitsky import euler_char_line_bundle, integrate, pair_with_sh, sqrt_todd_argument, todd_argument
from .verification import DEFAULT_SEED, SUITES, check, family_space, run_suite


class InputError(ValueError):
    pass


SYM_MAX_N = 6


def _check_sym_n(n):
    if n is not None and n > SYM_MAX_N:
        raise InputError("--n must be <= %d for the Sym^n verbs" % SYM_MAX_N)


def _rank_one_space(space, square):
    """The space of space's deformation type with H^2 = <square>: the
    rank-one probe of todd and chi."""
    dt = space.dtype
    return ExtMukaiSpace(DeformationType(dt.family, dt.n, dt.c_x, dt.r_x, Mat([[square]])))


def _named_vectors(space):
    names = {"alpha": space.alpha, "beta": space.beta}
    for i in range(space.b2):
        names["e%d" % (i + 1)] = space.basis_vector(1 + i)
    if space.dtype.family == "K3n":
        names["delta"] = space.basis_vector(space.dim - 2)
    return names


def parse_vector(space, text, h2_only=False):
    """Parse a vector expression into ambient or H^2 coordinates."""
    text = text.strip()
    if not text:
        raise InputError("empty vector")
    if "," in text:
        coords = tuple(parse_rat(t) for t in text.split(","))
        want = space.b2 if h2_only else space.dim
        if len(coords) != want:
            raise InputError("expected %d coordinates, got %d" % (want, len(coords)))
        return coords
    if text == "0":
        return tuple(Q(0) for _ in range(space.b2 if h2_only else space.dim))
    names = _named_vectors(space)

    def _is_name(operand):
        return operand in names or operand.split("/", 1)[0] in names

    total = [Q(0)] * space.dim
    term = ""
    terms = []
    sign = 1
    # split into signed terms
    for ch in text.replace(" ", ""):
        if ch in "+-" and term:
            terms.append((sign, term))
            sign = 1 if ch == "+" else -1
            term = ""
        elif ch in "+-" and not term:
            sign = sign if ch == "+" else -sign
        else:
            term += ch
    if term:
        terms.append((sign, term))
    for sgn, t in terms:
        coeff = Q(1)
        name = t
        if "*" in t:
            # the operand that names a vector ("e1", or "e1/2") is the vector
            # and the other the coefficient, so an error quotes the coefficient
            left, right = t.split("*", 1)
            if _is_name(left) and not _is_name(right):
                left, right = right, left
            coeff = parse_rat(left)
            name = right
        if "/" in name:
            base, den = name.split("/", 1)
            if base in names:
                name = base
                den = parse_rat(den)
                if den == 0:
                    raise InputError("zero divisor in %r" % (t,))
                coeff = coeff / den
        if name not in names:
            raise InputError("unknown vector name %r" % (name,))
        vec = names[name]
        total = [a + sgn * coeff * b for a, b in zip(total, vec)]
    if h2_only:
        if total[0] != 0 or total[-1] != 0:
            raise InputError("expected a class with no alpha or beta part")
        return tuple(total[1:-1])
    return tuple(total)


def parse_isometry(space, spec):
    if spec == "shift":
        return minus_identity(space)
    if ":" not in spec:
        raise InputError("bad isometry spec %r" % (spec,))
    kind, rest = spec.split(":", 1)
    if kind == "bfield":
        return b_field(space, parse_vector(space, rest, h2_only=True))
    if kind == "reflection":
        return reflection(space, parse_vector(space, rest))
    if kind == "transvection":
        if "|" not in rest:
            raise InputError("transvection needs e|a")
        e_s, a_s = rest.split("|", 1)
        return eichler_transvection(
            space, parse_vector(space, e_s), parse_vector(space, a_s)
        )
    if kind == "catalog":
        return action(space, rest).iso
    if kind == "file":
        with open(rest) as fh:
            return isometry_from_json(json.load(fh), space=space)
    raise InputError("unknown isometry kind %r" % (kind,))


def _tracked_lattice(space, name):
    table = {  # built only for the name asked for; all but "integral" need K3n
        "lambda": lambda: k3n_lattices(space).lam,
        "lambda-g": lambda: k3n_lattices(space).lam_g,
        "lambda-s": lambda: k3n_lattices(space).lam_s,
        "lambda-lb": lambda: k3n_lattices(space).lam_lb,
        "gamma-k": lambda: k3n_lattices(space).gamma_k,
        "integral": space.integral_lattice,
    }
    if name not in table:
        raise InputError("unknown lattice %r" % (name,))
    return table[name]()


def emit(args, payload, checks=()):
    report = {
        "command": " ".join(sys.argv[1:]),
        "checks": list(checks),
        "result": payload,
    }
    ok = all(c.get("pass") for c in checks) if checks else True
    if args.format == "text":
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            line = "[%s] %s" % (status, c["name"])
            if c.get("detail") and not c["pass"]:
                line += " -- %s" % c["detail"]
            print(line)
        if payload:
            print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        sys.stdout.write(canonical_json(report))
    return 0 if ok else 1


def cmd_vector(args):
    space = family_space(args.family, args.n)
    if args.point:
        v = ext_vector_point(space)
    else:
        lam = parse_vector(space, args.lam, h2_only=True)
        v = ext_vector_line_bundle(space, lam)
    payload = {
        "coords": vector_to_json(v.coords),
        "square": rat_str(v.square()),
        "orbit": v.orbit_tag,
    }
    return emit(args, payload)


def cmd_act(args):
    space = family_space(args.family, args.n)
    g = None
    if args.surface_iso:
        g = parse_isometry(k3_extended_space(), args.surface_iso)
    named = action(
        space,
        args.key,
        lam=parse_vector(space, args.lam, h2_only=True) if args.lam else None,
        g=g,
        genus=args.genus,
    )
    payload = {
        "key": named.key,
        "epsilon": named.epsilon,
        "provenance": named.provenance,
        "matrix": matrix_to_json(named.iso.matrix),
    }
    if args.vector:
        v = parse_vector(named.space, args.vector)
        payload["image"] = vector_to_json(named.iso(v))
    return emit(args, payload)


def cmd_lattice_check(args):
    space = family_space(args.family, args.n)
    g = parse_isometry(space, args.iso)
    lat = _tracked_lattice(space, args.lattice)
    ok = preserves_lattice(g, lat)
    payload = {"preserves": ok}
    detail = ""
    if not ok:
        w = lattice_witness(g, lat)
        payload["witness"] = vector_to_json(w) if w else None
        detail = "witness %s" % (payload["witness"],)
    return emit(args, payload, [check("preserves %s" % args.lattice, ok, detail)])


def cmd_isometry_info(args):
    space = family_space(args.family, args.n)
    g = parse_isometry(space, args.iso)
    lats = k3n_lattices(space)
    payload = {
        "det": rat_str(g.det),
        "spinor_norm": spinor_norm(g),
        "preserves_lambda": preserves_lattice(g, lats.lam),
        "preserves_lambda_g": preserves_lattice(g, lats.lam_g),
    }
    if payload["preserves_lambda"]:
        label, witness = disc_action(g, lats.lam)
        payload["disc_action"] = label
        if witness is not None:
            payload["disc_witness"] = vector_to_json(witness)
    return emit(args, payload)


def cmd_transport(args):
    space = family_space(args.family, args.n)
    lats = k3n_lattices(space)
    lat = lats.lam
    v = lat.coords_of_ambient(parse_vector(space, args.v))
    w = lat.coords_of_ambient(parse_vector(space, args.w))
    if v is None or w is None:
        raise InputError("vectors must lie in the lattice")
    res = eichler_transport(lat, v, w)
    if isinstance(res, NotFound):
        payload = {"found": False, "reason": res.reason}
        checks = [check("transport", False, res.reason)]
    else:
        payload = {
            "found": True,
            "word_length": len(res),
            "word": [
                {"e": vector_to_json(e), "a": vector_to_json(a)} for e, a in res.pairs
            ],
        }
        checks = [check("transport verified", res.apply(v) == w)]
    return emit(args, payload, checks)


def cmd_group(args):
    if args.depth < 0:
        raise InputError("--depth must be >= 0")
    if args.cap < 1:
        raise InputError("--cap must be >= 1")
    space = family_space(args.family, args.n)
    gens = [parse_isometry(space, s) for s in args.gens.split(";") if s]
    got = generate_bounded(gens, args.depth, cap=args.cap)
    lats = k3n_lattices(space)
    n_preserving = sum(1 for h in got if preserves_lattice(h, lats.lam))
    payload = {
        "size": len(got),
        "all_preserve_lambda": n_preserving == len(got),
    }
    return emit(args, payload)


def cmd_todd(args):
    """Linearisation profile of the (sqrt-)Todd class: the integral and,
    for each i, the pairing with omega^{2n-2i} divided by b(w,w)^{n-i}
    (a single rational, independent of omega)."""
    _check_sym_n(args.n)
    space = family_space(args.family, args.n)
    n = space.dtype.n
    # evaluate on a rank-one class of square 2 and divide out the powers
    sp = _rank_one_space(space, 2)
    arg = sqrt_todd_argument(sp) if args.sqrt else todd_argument(sp)
    unit = (Q(1),)
    profile = []
    for i in range(n + 1):
        val = pair_with_sh(sp, [unit] * (2 * n - 2 * i), arg)
        profile.append(rat_str(val / Q(2) ** (n - i)))
    payload = {
        "class": "sqrt-todd" if args.sqrt else "todd",
        "integral": profile[-1],
        "pairing_profile": profile,
        "note": "entry i is the pairing with omega^(2n-2i) per b(omega,omega)^(n-i)",
    }
    return emit(args, payload)


def cmd_chi(args):
    _check_sym_n(args.n)
    space = family_space(args.family, args.n)
    if args.square is not None:
        val = euler_char_line_bundle(_rank_one_space(space, parse_rat(args.square)), (Q(1),))
    else:
        lam = parse_vector(space, args.lam, h2_only=True)
        val = euler_char_line_bundle(space, lam)
    return emit(args, {"chi": rat_str(val)})


def cmd_integrate(args):
    _check_sym_n(args.n)
    space = family_space(args.family, args.n)
    omegas = [parse_vector(space, s, h2_only=True) for s in args.omegas.split(";") if s]
    val = integrate(space, omegas)
    return emit(args, {"integral": rat_str(val)})


def cmd_moduli(args):
    if args.input == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.input) as fh:
            data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data["ns"], dict):
        raise InputError("moduli input must be an object with an object \"ns\"")
    ns = lattice_from_json(data["ns"])
    lat = AlgebraicMukaiLattice(ns.gram)
    v = data["v"]
    if (
        not isinstance(v, list)
        or len(v) != lat.rank
        or not all(isinstance(c, (int, float, str)) for c in v)
    ):
        raise InputError("v must be a list of %d numbers (r, c..., s)" % lat.rank)
    v = [parse_rat(c) for c in v]
    v = lat.vector(v[0], v[1:-1], v[-1])
    dimension = moduli_dimension(lat, v)
    fine, order = fineness(lat, v)
    ns_m = ns_of_moduli(lat, v)
    payload = {
        "square": rat_str(lat.square(v)),
        "dimension": dimension,
        "fine": fine,
        "obstruction_order": int(order),
        "ns_moduli_gram": matrix_to_json(ns_m.gram),
        "invariants": {
            k: (rat_str(val) if isinstance(val, Fraction) else
                [str(x) for x in val] if isinstance(val, tuple) else val)
            for k, val in partner_invariants(lat, v).items()
        },
    }
    checks = []
    if lat.square(v) > 0:
        rep = disc_lemma_check(lat, v)
        payload["disc_lemma"] = {
            k: (rat_str(val) if isinstance(val, Fraction) else val)
            for k, val in rep.items()
        }
        checks.append(check("discriminant identity", rep["all"]))
    return emit(args, payload, checks)


def cmd_catalog(args):
    if args.action == "list":
        return emit(args, {"keys": list(CATALOG_KEYS)})
    space = family_space(args.family, args.n)
    named = action(
        space,
        args.key,
        lam=parse_vector(space, args.lam, h2_only=True) if args.lam else None,
        genus=args.genus,
    )
    payload = isometry_to_json(named.iso, space_name=str(named.space))
    payload["key"] = named.key
    payload["epsilon"] = named.epsilon
    payload["provenance"] = named.provenance
    return emit(args, payload)


def cmd_verify(args):
    if 1 in SUITES[args.suite]:  # crit01, the only check that reads --n
        _check_sym_n(args.n)
    checks = run_suite(args.suite, seed=args.seed, n=args.n, h2_rank=args.h2_rank)
    return emit(args, {"suite": args.suite, "n_checks": len(checks)}, checks)


def build_parser():
    p = argparse.ArgumentParser(
        prog="extmukai",
        description="Exact lattice calculus for extended Mukai lattices of "
        "hyper-Kaehler manifolds.",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--family", choices=("K3n", "Kumn"), default="K3n")
        sp.add_argument("--n", type=int, default=2)

    sp = sub.add_parser("vector", help="extended Mukai vector of a line bundle or point")
    common(sp)
    sp.add_argument("--lam", "--lambda", dest="lam", default="0")
    sp.add_argument("--point", action="store_true")
    sp.set_defaults(func=cmd_vector)

    sp = sub.add_parser("act", help="apply a catalog action")
    common(sp)
    sp.add_argument("--key", required=True, choices=CATALOG_KEYS)
    sp.add_argument("--lam", "--lambda", dest="lam", default="")
    sp.add_argument("--genus", type=int, default=None)
    sp.add_argument("--surface-iso", default="",
                    help="isometry spec on the rank-24 K3 space (dn_transfer)")
    sp.add_argument("--vector", default="")
    sp.set_defaults(func=cmd_act)

    sp = sub.add_parser("lattice-check", help="does an isometry preserve a lattice?")
    common(sp)
    sp.add_argument("--lattice", required=True)
    sp.add_argument("--iso", required=True)
    sp.set_defaults(func=cmd_lattice_check)

    sp = sub.add_parser("isometry-info", help="determinant, spinor norm, disc action")
    common(sp)
    sp.add_argument("--iso", required=True)
    sp.set_defaults(func=cmd_isometry_info)

    sp = sub.add_parser("transport", help="Eichler transport between lattice vectors")
    common(sp)
    sp.add_argument("--v", required=True)
    sp.add_argument("--w", required=True)
    sp.set_defaults(func=cmd_transport)

    sp = sub.add_parser("group", help="bounded subgroup generation")
    common(sp)
    sp.add_argument("--gens", required=True, help="';'-separated isometry specs")
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--cap", type=int, default=20000)
    sp.set_defaults(func=cmd_group)

    sp = sub.add_parser("todd", help="Todd or sqrt-Todd linearisation")
    common(sp)
    sp.add_argument("--sqrt", action="store_true")
    sp.set_defaults(func=cmd_todd)

    sp = sub.add_parser("chi", help="Euler characteristic of a line bundle class")
    common(sp)
    sp.add_argument("--lam", "--lambda", dest="lam", default="0")
    sp.add_argument("--square", default=None, help="use a class of this square instead")
    sp.set_defaults(func=cmd_chi)

    sp = sub.add_parser("integrate", help="integral of a product of 2n classes")
    common(sp)
    sp.add_argument("--omegas", required=True, help="';'-separated H^2 exprs")
    sp.set_defaults(func=cmd_integrate)

    sp = sub.add_parser("moduli", help="moduli-space lattice report from JSON input")
    sp.add_argument("--input", default="-", help="path or - for stdin")
    sp.set_defaults(func=cmd_moduli)

    sp = sub.add_parser("catalog", help="list or get catalog actions")
    sp.add_argument("action", choices=("list", "get"))
    sp.add_argument("key", nargs="?", default="")
    common(sp)
    sp.add_argument("--lam", "--lambda", dest="lam", default="")
    sp.add_argument("--genus", type=int, default=None)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--n", type=int, default=None,
                    help="narrow the linearisation suite to one n")
    sp.add_argument("--h2-rank", type=int, default=None,
                    help="narrow the linearisation suite to the rank-3 custom H^2")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # every package error is a ValueError
        sys.stdout.write(
            canonical_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
