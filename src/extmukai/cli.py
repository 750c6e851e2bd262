"""Command-line front end.

Every verb reads rationals as "p/q" strings and emits a canonical JSON
report on stdout (sorted keys, fixed separators), or a plain-text variant
with --format text.  Exit codes: 0 all checks passed, 1 verification
failure, 2 malformed input.

Vector expressions (--lam, --v, --w, --vector, --omegas and the classes in
--iso specs) follow the grammar in the parse_vector docstring.

The Sym^n verbs (todd, chi, integrate, and verify --n for the suites that
read it: linearisation, all) accept n <= SYM_MAX_N = 6: integrate sums over
(2n-1)!! matchings (10,395 at n = 6, 2,027,025 at n = 8), and the
linearisation suite grows with every n.  Larger n exits 2; the other suites
ignore --n.

group keeps every element it generates, so --cap is at most GROUP_CAP_MAX =
20000, its default (a B-field word on K3[2] keeps about 6.4 KB, dense
elements more); a larger --cap exits 2 before anything is generated.

Isometry syntax for --iso:
    bfield:<h2 expr>       reflection:<vector expr>
    transvection:<vector expr>|<vector expr>
    shift                  catalog:<key>          file:<isometry JSON path>
"""

import argparse
import json
import re
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
from .verification import DEFAULT_SEED, SUITES, all_passed, check, family_space, run_suite


class InputError(ValueError):
    pass


SYM_MAX_N = 6
GROUP_CAP_MAX = 20000


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


_SIGNED_TERM = re.compile(r"([+-]*)([^+-]+)")


def parse_vector(space, text, h2_only=False):
    """Parse a vector expression into ambient coordinates (alpha, H^2
    basis..., beta), or into H^2 coordinates when h2_only.

    The grammar, after stripping the text:
      * a comma-separated list of rationals is the coordinate list itself
        ("1,0,-1/2,..."), of length b2 when h2_only;
      * "0", and only "0" as the whole expression, is the zero class;
      * otherwise spaces are dropped and the text is a run of signs ("+",
        "-", "--", "+-", ...) before each term; a run with an odd number of
        "-" negates its term, and a run at the end adds nothing;
      * a term is name, c*name, name*c or name/d (also c*name/d), where a
        name is alpha, beta, e1, e2, ... (the H^2 basis) or, on K3n, delta,
        and c, d are rationals "p", "p/q" or decimals with no exponent,
        d != 0.  "0" is not a name, so "0+e1" is refused.
    Examples: "alpha+5/4*beta", "delta/3", "2*e1-e2".  With h2_only the
    class must have no alpha or beta part.
    """
    text = text.strip()
    if not text:
        raise InputError("empty vector")
    want = space.b2 if h2_only else space.dim
    if "," in text:
        coords = tuple(parse_rat(t) for t in text.split(","))
        if len(coords) != want:
            raise InputError("expected %d coordinates, got %d" % (want, len(coords)))
        return coords
    if text == "0":
        return (Q(0),) * want
    names = _named_vectors(space)
    total = [Q(0)] * space.dim
    for signs, term in _SIGNED_TERM.findall(text.replace(" ", "")):
        coeff, vec = _term(names, term)
        if signs.count("-") % 2:
            coeff = -coeff
        total = [a + coeff * b for a, b in zip(total, vec)]
    if h2_only:
        if total[0] != 0 or total[-1] != 0:
            raise InputError("expected a class with no alpha or beta part")
        return tuple(total[1:-1])
    return tuple(total)


def _term(names, term):
    """(coefficient, vector) of one unsigned term of parse_vector."""
    coeff, name = Q(1), term
    if "*" in term:
        # the operand that names a vector ("e1", or "e1/2") is the vector and
        # the other the coefficient, so an error quotes the coefficient
        left, right = term.split("*", 1)
        if left.partition("/")[0] in names and right.partition("/")[0] not in names:
            left, right = right, left
        coeff, name = parse_rat(left), right
    base, slash, den = name.partition("/")
    if slash and base in names:
        den = parse_rat(den)
        if den == 0:
            raise InputError("zero divisor in %r" % (term,))
        coeff, name = coeff / den, base
    if name not in names:
        raise InputError("unknown vector name %r" % (name,))
    return coeff, names[name]


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
        return eichler_transvection(space, parse_vector(space, e_s), parse_vector(space, a_s))
    if kind == "catalog":
        return action(space, rest).iso
    if kind == "file":
        with open(rest) as fh:
            return isometry_from_json(json.load(fh), space=space)
    raise InputError("unknown isometry kind %r" % (kind,))


# --lattice names of the distinguished lattices, which need K3n, and their
# fields in k3n_lattices
_K3N_LATTICES = {"lambda": "lam", "lambda-g": "lam_g", "lambda-s": "lam_s",
                 "lambda-lb": "lam_lb", "gamma-k": "gamma_k"}


def _tracked_lattice(space, name):
    if name == "integral":
        return space.integral_lattice()
    if name not in _K3N_LATTICES:
        raise InputError("unknown lattice %r" % (name,))
    return getattr(k3n_lattices(space), _K3N_LATTICES[name])


def emit(args, payload, checks=()):
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
        sys.stdout.write(canonical_json(
            {"command": args.command, "checks": list(checks), "result": payload}
        ))
    return 0 if all_passed(checks) else 1


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


def _named_action(args, surface_iso=""):
    """The catalog action --key on the --family/--n space, with --lam,
    --genus and an isometry spec of the rank-24 K3 space, and its key,
    epsilon and provenance as a payload."""
    space = family_space(args.family, args.n)
    g = parse_isometry(k3_extended_space(), surface_iso) if surface_iso else None
    lam = parse_vector(space, args.lam, h2_only=True) if args.lam else None
    named = action(space, args.key, lam=lam, g=g, genus=args.genus)
    return named, {"key": named.key, "epsilon": named.epsilon, "provenance": named.provenance}


def cmd_act(args):
    named, payload = _named_action(args, args.surface_iso)
    payload["matrix"] = matrix_to_json(named.iso.matrix)
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
    lat = k3n_lattices(space).lam
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
            "word": [{"e": vector_to_json(e), "a": vector_to_json(a)} for e, a in res.pairs],
        }
        checks = [check("transport verified", res.apply(v) == w)]
    return emit(args, payload, checks)


def cmd_group(args):
    if args.depth < 0:
        raise InputError("--depth must be >= 0")
    if args.cap < 1:
        raise InputError("--cap must be >= 1")
    if args.cap > GROUP_CAP_MAX:
        raise InputError("--cap must be <= %d" % GROUP_CAP_MAX)
    space = family_space(args.family, args.n)
    gens = [parse_isometry(space, s) for s in args.gens.split(";") if s]
    got = generate_bounded(gens, args.depth, cap=args.cap)
    lam = k3n_lattices(space).lam
    return emit(args, {
        "size": len(got),
        "all_preserve_lambda": all(preserves_lattice(h, lam) for h in got),
    })


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
    profile = [
        rat_str(pair_with_sh(sp, [(Q(1),)] * (2 * n - 2 * i), arg) / Q(2) ** (n - i))
        for i in range(n + 1)
    ]
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


def _json_values(report):
    """A report's Fractions as rat_str, tuples as lists of str, the rest as is."""
    return {k: rat_str(val) if isinstance(val, Fraction) else
            [str(x) for x in val] if isinstance(val, tuple) else val
            for k, val in report.items()}


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
    square = lat.report(v).square
    dimension = moduli_dimension(lat, v)
    fine, order = fineness(lat, v)
    payload = {
        "square": rat_str(square),
        "dimension": dimension,
        "fine": fine,
        "obstruction_order": order,
        "ns_moduli_gram": matrix_to_json(ns_of_moduli(lat, v).gram),
        "invariants": _json_values(partner_invariants(lat, v)),
    }
    checks = []
    if square > 0:
        lemma = disc_lemma_check(lat, v)
        payload["disc_lemma"] = _json_values(lemma)
        checks.append(check("discriminant identity", lemma["all"]))
    return emit(args, payload, checks)


def cmd_catalog(args):
    if args.action == "list":
        return emit(args, {"keys": list(CATALOG_KEYS)})
    named, payload = _named_action(args)
    payload.update(isometry_to_json(named.iso, space_name=str(named.space)))
    return emit(args, payload)


def cmd_verify(args):
    if 1 in SUITES[args.suite]:  # crit01, the only check that reads --n
        _check_sym_n(args.n)
    checks = run_suite(args.suite, seed=args.seed, n=args.n, h2_rank=args.h2_rank)
    return emit(args, {"suite": args.suite, "n_checks": len(checks)}, checks)


_FAMILY_N = (
    ("--family", {"choices": ("K3n", "Kumn"), "default": "K3n"}),
    ("--n", {"type": int, "default": 2}),
)
_GENUS = ("--genus", {"type": int})


def _lam(default):
    return ("--lam", "--lambda", {"default": default})


# (name, help, handler, arguments): each argument is the flags or the name
# of an add_argument call followed by its keywords, in --help order
VERBS = (
    ("vector", "extended Mukai vector of a line bundle or point", cmd_vector,
     _FAMILY_N + (_lam("0"), ("--point", {"action": "store_true"}))),
    ("act", "apply a catalog action", cmd_act, _FAMILY_N + (
        ("--key", {"required": True, "choices": CATALOG_KEYS}),
        _lam(""),
        _GENUS,
        ("--surface-iso",
         {"default": "", "help": "isometry spec on the rank-24 K3 space (dn_transfer)"}),
        ("--vector", {"default": ""}),
    )),
    ("lattice-check", "does an isometry preserve a lattice?", cmd_lattice_check,
     _FAMILY_N + (("--lattice", {"required": True}), ("--iso", {"required": True}))),
    ("isometry-info", "determinant, spinor norm, disc action", cmd_isometry_info,
     _FAMILY_N + (("--iso", {"required": True}),)),
    ("transport", "Eichler transport between lattice vectors", cmd_transport,
     _FAMILY_N + (("--v", {"required": True}), ("--w", {"required": True}))),
    ("group", "bounded subgroup generation", cmd_group, _FAMILY_N + (
        ("--gens", {"required": True, "help": "';'-separated isometry specs"}),
        ("--depth", {"type": int, "default": 3}),
        ("--cap", {"type": int, "default": GROUP_CAP_MAX}),
    )),
    ("todd", "Todd or sqrt-Todd linearisation", cmd_todd,
     _FAMILY_N + (("--sqrt", {"action": "store_true"}),)),
    ("chi", "Euler characteristic of a line bundle class", cmd_chi,
     _FAMILY_N + (_lam("0"), ("--square", {"help": "use a class of this square instead"}))),
    ("integrate", "integral of a product of 2n classes", cmd_integrate,
     _FAMILY_N + (("--omegas", {"required": True, "help": "';'-separated H^2 exprs"}),)),
    ("moduli", "moduli-space lattice report from JSON input", cmd_moduli,
     (("--input", {"default": "-", "help": "path or - for stdin"}),)),
    ("catalog", "list or get catalog actions", cmd_catalog, (
        ("action", {"choices": ("list", "get")}),
        ("key", {"nargs": "?", "default": ""}),
    ) + _FAMILY_N + (_lam(""), _GENUS)),
    ("verify", "run a verification suite", cmd_verify, (
        ("suite", {"choices": sorted(SUITES)}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
        ("--n", {"type": int, "help": "narrow the linearisation suite to one n"}),
        ("--h2-rank",
         {"type": int, "help": "narrow the linearisation suite to the rank-3 custom H^2"}),
    )),
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="extmukai",
        description="Exact lattice calculus for extended Mukai lattices of "
        "hyper-Kaehler manifolds.",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="verb", required=True)
    for name, help_text, handler, arguments in VERBS:
        sp = sub.add_parser(name, help=help_text)
        for *flags, keywords in arguments:
            sp.add_argument(*flags, **keywords)
        sp.set_defaults(func=handler)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    args.command = " ".join(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # every package error is a ValueError
        error = {"type": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(canonical_json({"error": error}))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
