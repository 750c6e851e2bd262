import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from extmukai.cli import SYM_MAX_N, InputError, build_parser, main, parse_vector
from extmukai.linalg import Mat
from extmukai.serialize import (
    FormatError,
    canonical_json,
    lattice_from_json,
    lattice_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_rat,
    rat_str,
    sym_from_json,
    sym_to_json,
)
from extmukai.spaces import ExtMukaiSpace, k3n_type
from extmukai.verbitsky import sqrt_todd_argument
from extmukai.verification import family_space


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, stdin=None, timeout=None):
    # the checkout's own code, not an installed copy
    proc = subprocess.run(
        [sys.executable, "-m", "extmukai.cli"] + args,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        input=stdin,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout


def test_rational_strings():
    assert rat_str(Q(3, 4)) == "3/4"
    assert rat_str(Q(-5)) == "-5"
    assert parse_rat("7/2") == Q(7, 2)
    assert parse_rat("-3") == Q(-3)
    with pytest.raises(Exception):
        parse_rat("x")
    assert parse_rat("1.25") == Q(5, 4)
    # Fraction("1e10000000") builds 10^10000000 before failing on its size
    for text in ("1e5", "2E-3", "1e10000000"):
        with pytest.raises(FormatError):
            parse_rat(text)


def test_matrix_and_lattice_roundtrip():
    m = Mat([[0, 1], [1, 0]])
    assert matrix_from_json(matrix_to_json(m)) == m
    from extmukai.lattice import standard_lattice

    lat = standard_lattice("U")
    again = lattice_from_json(lattice_to_json(lat))
    assert again.gram == lat.gram


def test_sym_roundtrip():
    space = ExtMukaiSpace(k3n_type(2))
    x = sqrt_todd_argument(space)
    data = sym_to_json(x)
    # monomial keys look like "a|i1.i2|c"
    assert any("|" in k for piece in data["pieces"].values() for k in piece)
    y = sym_from_json(space, data)
    assert y == x


def test_deformation_and_isometry_roundtrip():
    from extmukai.serialize import (
        deformation_from_json,
        deformation_to_json,
        isometry_from_json,
        isometry_to_json,
    )
    from extmukai.spaces import b_field

    dtype = k3n_type(3)
    again = deformation_from_json(deformation_to_json(dtype))
    assert (again.family, again.n, again.c_x, again.r_x) == ("K3n", 3, 1, Q(3, 2))
    assert again.h2_gram == dtype.h2_gram

    space = ExtMukaiSpace(dtype)
    g = b_field(space, [1] + [0] * 22)
    h = isometry_from_json(isometry_to_json(g))
    assert h.matrix == g.matrix


def test_canonical_json_is_deterministic():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_vector_parser():
    space = ExtMukaiSpace(k3n_type(2))
    v = parse_vector(space, "alpha+5/4*beta")
    assert v[0] == 1 and v[-1] == Q(5, 4)
    v = parse_vector(space, "delta/3", h2_only=True)
    assert v[-1] == Q(1, 3)
    v = parse_vector(space, "2*e1-e2", h2_only=True)
    assert v[0] == 2 and v[1] == -1
    v = parse_vector(space, ",".join(["0"] * 25))
    assert all(c == 0 for c in v)


# -- parse_vector against the character-loop tokenizer it replaced -------------


def reference_parse_vector(space, text, h2_only=False):
    """parse_vector as written before it split signed terms with one regular
    expression: the reference of the differential test below."""
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
    names = {"alpha": space.alpha, "beta": space.beta}
    for i in range(space.b2):
        names["e%d" % (i + 1)] = space.basis_vector(1 + i)
    if space.dtype.family == "K3n":
        names["delta"] = space.basis_vector(space.dim - 2)

    def _is_name(operand):
        return operand in names or operand.split("/", 1)[0] in names

    total = [Q(0)] * space.dim
    term = ""
    terms = []
    sign = 1
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


def _parsed(parser, space, text, h2_only):
    """The parsed tuple, or the (type, message) of the error raised."""
    try:
        return parser(space, text, h2_only)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


_PARSE_TOKENS = [
    "alpha", "beta", "delta", "e1", "e2", "e7", "e8", "e23", "0", "1", "-3", "1/2", "2.5",
    "+", "-", "--", "+-", "-+", "*", "/", "/0", "e1/", "e1/2", "1e3", "0+e1", ",", " ", "x",
]


@given(
    st.sampled_from(["K3n", "Kumn"]),
    st.booleans(),
    st.lists(st.sampled_from(_PARSE_TOKENS), max_size=7).map("".join),
)
@settings(max_examples=2000, deadline=None)
def test_parse_vector_matches_reference_tokenizer(family, h2_only, text):
    space = family_space(family, 2)
    assert _parsed(parse_vector, space, text, h2_only) == _parsed(
        reference_parse_vector, space, text, h2_only
    )


# -- the parser built from the verb table against its recorded actions ----------


def describe_parser(parser):
    """Every action of the top-level parser and of each verb's subparser, in
    declaration order, as JSON-ready dicts, with each verb's help and handler."""
    def action(a):
        return {
            "action": type(a).__name__,
            "option_strings": a.option_strings,
            "dest": a.dest,
            "default": a.default,
            "required": a.required,
            "choices": None if a.choices is None else list(a.choices),
            "nargs": a.nargs,
            "type": getattr(a.type, "__name__", None),
            "help": a.help,
        }

    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verb_help = {c.dest: c.help for c in sub._choices_actions}
    described = {"": {"description": parser.description,
                      "actions": [action(a) for a in parser._actions]}}
    for name, verb in sub.choices.items():
        described[name] = {
            "help": verb_help[name],
            "handler": verb._defaults["func"].__name__,
            "actions": [action(a) for a in verb._actions],
        }
    return described


def test_build_parser_matches_recorded_actions():
    # recorded from the hand-written build_parser before the verbs became a
    # table: option strings, dest, default, required, choices, nargs, type,
    # help and handler of every verb, in --help order
    recorded = json.loads((Path(__file__).parent / "data" / "cli_parser.json").read_text())
    assert describe_parser(build_parser()) == recorded


def test_cli_vector_example():
    code, out = run_cli(["vector", "--family", "K3n", "--n", "2", "--lam", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["coords"][0] == "1"
    assert data["result"]["coords"][-1] == "5/4"


def test_cli_output_byte_stable():
    _, out1 = run_cli(["vector", "--n", "2", "--lam", "delta"])
    _, out2 = run_cli(["vector", "--n", "2", "--lam", "delta"])
    assert out1 == out2


# exit codes and stdout of transport, isometry-info and lattice-check as
# recorded before the isometry layer moved to integer rows, of todd, chi,
# integrate and verify linearisation as recorded before b_SH became an
# apolar evaluation, and of verify eichler, catalog and lambda-invariance and
# lattice-check on gamma-k and lambda-s as recorded before the duplicate
# orthogonalisation, lattice-witness loop and space factory were removed, and
# of lattice-check on lambda-lb (its witness is the first Hermite basis row of
# Lambda_LB) as recorded before Lambda_LB was built from b2 + 2 generators, of
# verify dn as recorded before the criteria became failure generators, and of
# lattice-check on the integral lattice of Kumn (which exited 2 while the
# K3n-only lattices were built for every name)
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["args"]))
def test_cli_output_matches_golden(case):
    assert run_cli(case["args"]) == (case["exit"], case["stdout"])


def test_cli_lattice_check_counterexample():
    code, out = run_cli(
        ["lattice-check", "--lattice", "lambda", "--n", "10", "--iso", "bfield:delta/3"]
    )
    assert code == 1
    data = json.loads(out)
    assert data["result"]["preserves"] is False
    assert data["result"]["witness"]
    code, _ = run_cli(
        ["lattice-check", "--lattice", "gamma-k", "--n", "10", "--iso", "bfield:delta/3"]
    )
    assert code == 0


def test_cli_isometry_info():
    code, out = run_cli(["isometry-info", "--n", "3", "--iso", "catalog:spherical_P"])
    assert code == 0
    data = json.loads(out)["result"]
    assert data["det"] == "-1"
    assert data["spinor_norm"] == 1
    assert data["preserves_lambda"] is True


def test_cli_chi_and_integrate():
    code, out = run_cli(["chi", "--family", "K3n", "--n", "2", "--square", "8"])
    assert code == 0
    assert json.loads(out)["result"]["chi"] == "21"
    code, out = run_cli(
        ["integrate", "--family", "K3n", "--n", "2", "--omegas", "e1+e2;e1+e2;e1+e2;e1+e2"]
    )
    assert code == 0
    # q(e1+e2) = 2 in the first U: Fujiki gives 3 * 2^2 = 12
    assert json.loads(out)["result"]["integral"] == "12"


def test_cli_transport():
    code, out = run_cli(
        ["transport", "--n", "3", "--v", "alpha-1/2*delta-1/2*beta+beta", "--w", "e1-e2"]
    )
    # alpha~ + beta = alpha - delta/2 + (1-n)/4 beta + beta: write explicitly
    v = "alpha-1/2*delta-1/2*beta+beta"
    assert code == 0, out
    data = json.loads(out)
    assert data["result"]["found"] is True


def test_cli_moduli():
    payload = {
        "ns": {"name": "NS", "gram": [["2"]]},
        "v": [1, 0, -1],
    }
    code, out = run_cli(["moduli", "--input", "-"], stdin=json.dumps(payload))
    assert code == 0, out
    data = json.loads(out)["result"]
    assert data["square"] == "2"
    assert data["dimension"] == 4
    assert data["fine"] is True
    assert data["disc_lemma"]["identity_holds"] is True


def test_cli_moduli_on_a_6x6_even_ns_returns():
    # NS Gram of det 2271446447, on which the alternating-Euclid Smith form
    # of the discriminant group ran for minutes
    gram = [[-56, -7, -32, -12, -31, -2], [-7, 8, 15, -17, -33, 24], [-32, 15, 38, -35, 36, -28],
            [-12, -17, -35, 20, -15, -7], [-31, -33, 36, -15, 10, 20], [-2, 24, -28, -7, 20, 64]]
    payload = {"ns": {"gram": gram}, "v": [1, 0, 0, 0, 0, 0, 1, 1]}
    code, out = run_cli(["moduli", "--input", "-"], stdin=json.dumps(payload), timeout=10)
    assert code == 0, out
    data = json.loads(out)["result"]
    assert data["disc_lemma"]["all"] is True
    assert data["invariants"]["ns_disc_orders"] == ["140829679714"]


# the `invariants` object of `moduli` as the element-wise Fraction profile
# printed it: square 12, A = Z/4 x Z/12, 48 q-values
MODULI_INVARIANTS_NS4 = (
    '"invariants":{"fine":true,"ns_det":"-48","ns_disc_orders":["4","12"],"ns_disc_profile":'
    '["0","0","1/6","1/6","1/6","1/6","1/6","1/6","1/6","1/6","1/4","1/4","1/4","1/4",'
    '"2/3","2/3","2/3","2/3","11/12","11/12","11/12","11/12","11/12","11/12","11/12",'
    '"11/12","1","1","5/4","5/4","5/4","5/4","3/2","3/2","3/2","3/2","5/3","5/3","5/3",'
    '"5/3","23/12","23/12","23/12","23/12","23/12","23/12","23/12","23/12"],'
    '"obstruction_order":1,"square":12}'
)


def test_cli_moduli_invariants_pinned():
    payload = '{"ns":{"gram":[["4"]]},"v":["-2","-2","-1"]}'
    code, out = run_cli(["moduli", "--input", "-"], stdin=payload)
    assert code == 0, out
    assert MODULI_INVARIANTS_NS4 in out
    assert len(json.loads(out)["result"]["invariants"]["ns_disc_profile"]) == 48


def test_cli_exponent_notation_exits_2_at_once():
    code, out = run_cli(["vector", "--n", "2", "--lam", "1e10000000*e1"], timeout=10)
    assert code == 2 and json.loads(out)["error"]["type"] == "FormatError"
    payload = '{"ns": {"gram": [["2"]]}, "v": [1, "1e10000000", 0]}'
    code, out = run_cli(["moduli", "--input", "-"], stdin=payload, timeout=10)
    assert code == 2 and json.loads(out)["error"]["type"] == "FormatError"


def test_cli_error_quotes_the_bad_coefficient():
    # the operand of "*" that names a vector is the vector, so the error
    # quotes the other one
    for lam, bad in (("x*e1", "x"), ("1e3*e1", "1e3")):
        code, out = run_cli(["vector", "--n", "2", "--lam", lam])
        assert code == 2
        assert json.loads(out)["error"] == {"message": "bad rational %r" % bad, "type": "FormatError"}


def test_cli_catalog_verbs():
    code, out = run_cli(["catalog", "list"])
    assert code == 0
    assert "spherical_P" in json.loads(out)["result"]["keys"]
    code, out = run_cli(["catalog", "get", "sign_equivalence", "--n", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["result"]["epsilon"] == 1
    assert "matrix" in data["result"]


def test_cli_bad_input_exit_2(tmp_path):
    code, out = run_cli(["vector", "--n", "2", "--lam", "nonsense"])
    assert code == 2
    data = json.loads(out)
    assert "error" in data
    code, out = run_cli(["act", "--n", "3", "--key", "fm_ext1"])
    assert code == 2
    # wrong coordinate count, malformed moduli input, unknown lattice
    code, _ = run_cli(["vector", "--n", "2", "--lam", "1,2,3"])
    assert code == 2
    code, out = run_cli(["vector", "--n", "2", "--lam", "e1/0"])
    assert code == 2 and "error" in json.loads(out)
    code, _ = run_cli(["moduli", "--input", "-"], stdin='{"ns": {"gram": [["x"]]}, "v": [1, 0]}')
    assert code == 2
    code, _ = run_cli(["lattice-check", "--n", "2", "--lattice", "nope", "--iso", "shift"])
    assert code == 2
    code, out = run_cli(["lattice-check", "--family", "Kumn", "--lattice", "lambda", "--iso", "shift"])
    assert code == 2 and "K3n" in json.loads(out)["error"]["message"]
    code, _ = run_cli(["isometry-info", "--n", "2", "--iso", "reflection:beta"])
    assert code == 2  # isotropic reflection vector
    code, _ = run_cli(["integrate", "--n", "2", "--omegas", "e1"])
    assert code == 2  # needs 2n classes
    code, out = run_cli(["group", "--gens", "shift", "--depth", "-1"])
    assert code == 2 and "error" in json.loads(out)
    for cap in ("0", "-5", "20001"):
        code, out = run_cli(["group", "--gens", "shift", "--cap", cap])
        assert code == 2 and "--cap" in json.loads(out)["error"]["message"]
    for argv in (
        ["todd", "--n", "7"],
        ["chi", "--n", "7", "--square", "2"],
        ["integrate", "--n", "7", "--omegas", ";".join(["e1"] * 14)],
        ["verify", "linearisation", "--n", "99"],
        ["verify", "all", "--n", "7"],
    ):
        code, out = run_cli(argv)
        assert code == 2 and "--n" in json.loads(out)["error"]["message"], argv
    for stdin in (
        '{"ns": {"gram": [["2"]]}, "v": 5}',
        '{"ns": {"gram": [["2"]]}, "v": [1, null, 0]}',
        "[1]",
        '{"ns": {"gram": [["2"]]}, "v": [1, 0, 2]}',  # v^2 = -4: no moduli space
    ):
        code, out = run_cli(["moduli", "--input", "-"], stdin=stdin)
        assert code == 2 and "error" in json.loads(out)
    # an --iso file that is not an object, or whose word is not a list of strings
    for i, doc in enumerate(("[1]", '"x"', '{"matrix": [[1]], "word": 5}')):
        path = tmp_path / ("iso%d.json" % i)
        path.write_text(doc)
        code, out = run_cli(["isometry-info", "--iso", "file:%s" % path])
        assert code == 2 and "error" in json.loads(out), doc


def test_package_errors_are_value_errors():
    # main() answers every package error with exit 2 by catching ValueError
    import importlib
    import inspect
    import pkgutil

    import extmukai

    errors = []
    for info in pkgutil.iter_modules(extmukai.__path__):
        module = importlib.import_module("extmukai." + info.name)
        errors += [
            c for c in vars(module).values()
            if inspect.isclass(c) and issubclass(c, BaseException) and c.__module__ == module.__name__
        ]
    assert {c.__name__ for c in errors} >= {
        "InputError", "FormatError", "LatticeError", "IsometryError",
        "SpaceError", "SymError", "CatalogError", "ModuliError",
    }
    assert [c for c in errors if not issubclass(c, ValueError)] == []


def test_cli_verify_n_ignored_outside_linearisation():
    # only crit01 reads --n, so the Sym^n cap leaves the other suites alone
    for argv in (["verify", "besse", "--n", "7"], ["verify", "dn", "--n", "9"]):
        code, out = run_cli(argv)
        assert code == 0 and "error" not in json.loads(out), argv


def test_cli_verify_text_lines():
    code, out = run_cli(["--format", "text", "verify", "besse"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[PASS]") for l in lines)


# -- fuzz guard: every argv and JSON shape ends in exit 0, 1 or 2 ---------------

_VECTOR_TOKENS = ["alpha", "beta", "delta", "e1", "e2", "e23", "e99", "0", "1/2", "3", "x",
                  "1/0", "+", "-", "*", "/", ",", " ", ""]
_VALID_VECTORS = ["e1", "e1+e2", "2*e1-e2", "delta/3", "0", "e1+1/2*e3"]
_vector_text = st.sampled_from(_VALID_VECTORS) | st.lists(
    st.sampled_from(_VECTOR_TOKENS), max_size=6
).map("".join)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.sampled_from(["2", "1/2", "x", "1/0", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["ns", "v", "gram", "name"]), inner, max_size=3),
    max_leaves=10,
)
_gram_entries = st.sampled_from([0, 1, 2, -2, "2", "1/2", "x", None])
_moduli_inputs = st.one_of(
    _json_values.map(json.dumps),
    st.builds(
        lambda gram, v: json.dumps({"ns": {"gram": gram}, "v": v}),
        st.lists(st.lists(_gram_entries, max_size=3), max_size=3),
        st.lists(st.sampled_from([0, 1, -1, 2, "1/2", 0.5, None, [1]]), max_size=5),
    ),
    st.sampled_from(["", "{", "[1]", "nan", '{"ns": 1, "v": []}',
                     '{"ns": {"gram": [["2"]]}, "v": [1, 0, -1]}']),
)
_GENERATORS = ["shift", "bfield:e1", "reflection:beta", "bogus", "catalog:nope"]
_RAW_TOKENS = ["vector", "todd", "--n", "--cap", "-1", "x", "--format", "text", "--bogus"]


@st.composite
def cli_calls(draw):
    """(argv, stdin) for the in-process CLI; n stays within the Sym^n cap
    or just above it, so that no call runs long."""
    family = draw(st.sampled_from(["K3n", "Kumn", "K3n", "Kumn", "OG10"]))
    n = draw(st.integers(2, SYM_MAX_N) | st.sampled_from([-1, 0, 1, SYM_MAX_N + 1]))
    fam = ["--family", family, "--n", str(n)]
    verb = draw(st.sampled_from(
        ["vector", "chi", "todd", "integrate", "group", "moduli", "catalog", "raw"]
    ))
    lam = ["--lam", draw(_vector_text)]
    stdin = ""
    if verb == "vector":
        argv = ["vector"] + fam + (["--point"] if draw(st.booleans()) else lam)
    elif verb == "chi":
        argv = ["chi"] + fam + (["--square", draw(_vector_text)] if draw(st.booleans()) else lam)
    elif verb == "todd":
        argv = ["todd"] + fam + (["--sqrt"] if draw(st.booleans()) else [])
    elif verb == "integrate":
        count = draw(st.sampled_from([max(2 * n, 0), max(2 * n, 0), 1, 3]))
        omegas = draw(st.lists(_vector_text, min_size=count, max_size=count))
        argv = ["integrate"] + fam + ["--omegas", ";".join(omegas)]
    elif verb == "group":
        gens = draw(st.lists(st.sampled_from(_GENERATORS), max_size=2))
        argv = ["group", "--n", "2", "--gens", ";".join(gens),
                "--depth", str(draw(st.integers(-2, 1))), "--cap", str(draw(st.integers(-2, 3)))]
    elif verb == "moduli":
        argv, stdin = ["moduli", "--input", "-"], draw(_moduli_inputs)
    elif verb == "catalog":
        argv = ["catalog", draw(st.sampled_from(["list", "get", "nope"]))]
        argv += draw(st.lists(st.sampled_from(["nope", "--n", "x"]), max_size=2))
    else:
        argv = draw(st.lists(st.sampled_from(_RAW_TOKENS), max_size=4))
    if draw(st.booleans()):
        argv = ["--format", "text"] + argv
    return argv, stdin


def run_main(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# catalog get for every key at n = 2, 3, act --vector alpha for each
# reflection twist, dn_transfer on two surface isometries, and the error
# objects whose order of checks decides which error wins
CATALOG_GOLDEN = json.loads((Path(__file__).parent / "data" / "catalog_golden.json").read_text())


@pytest.mark.parametrize("case", CATALOG_GOLDEN, ids=lambda case: " ".join(case["args"]))
def test_catalog_output_matches_golden(case):
    code, out, _ = run_main(case["args"], "")
    assert (code, out) == (case["exit"], case["stdout"])


@given(cli_calls())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_fuzz_exit_codes(call):
    argv, stdin = call
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin, code)
    assert "Traceback" not in out + err
    if code == 2 and out:
        assert "error" in json.loads(out)


def test_in_process_command_is_the_parsed_argv(monkeypatch):
    # "command" echoes the argv that main parsed, not the host's sys.argv
    monkeypatch.setattr(sys, "argv", ["host", "--whatever"])
    argv = ["vector", "--n", "2", "--lam", "0"]
    code, out, _ = run_main(argv, "")
    assert code == 0 and json.loads(out)["command"] == "vector --n 2 --lam 0"
    monkeypatch.setattr(sys, "argv", ["extmukai"] + argv)
    assert run_main(None, "")[1] == out


def test_family_space_cache_is_bounded():
    for n in range(2, 41):
        code, _, _ = run_main(["vector", "--n", str(n)], "")
        assert code == 0
    assert family_space.cache_info().currsize <= 16
    assert family_space("K3n", 40) is family_space("K3n", 40)
    with pytest.raises(ValueError):
        family_space("OG10", 5)
