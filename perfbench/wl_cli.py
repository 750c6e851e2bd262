"""cli-cold: one cold `python -m extmukai.cli` process per op.

The only workload that pays interpreter start-up, `import extmukai`, and
cli / serialize / verification on every op.  The verb list is fixed; the
seed picks only the arguments (n in [2, 5] for the heavy verbs and [2, 6]
for the light ones, class coefficients in [-3, 3] on e1..e6 and delta or
e7, Lambda coordinates in [-4, 4]).

One round is 19 ops in an order the seed shuffles.  Light verbs (13) make
up most of it, so op_p50_ms mostly measures start-up:
  vector (line bundle), vector --point, chi (K3n), chi (Kumn),
  todd --sqrt (K3n), todd --sqrt (Kumn), integrate, catalog list,
  moduli on stdin, and four malformed inputs that must exit with code 2:
  an unknown vector name, a zero denominator, a wrong class count, and
  {"ns":{"gram":[["2"]]},"v":5} on stdin, which exits 1 with a TypeError
  traceback (a fault of cmd_moduli; counted as failed).
Heavy verbs (6) rebuild the K3[n] lattice bundle in every process and set
throughput_ops_s: catalog get spherical_P, isometry-info --iso
catalog:spherical_P, lattice-check with an integral B-field,
lattice-check --lattice lambda --n 10 --iso bfield:delta/3 (the paper's
counterexample: exit 1 with a witness), transport, verify besse.

The traced run sends the same argv lists through cli.main in-process.
"""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from math import factorial, gcd

from common import (
    Op,
    chi_k3n,
    draw_primitive,
    chi_kumn,
    extended_gram,
    is_canonical_json,
    is_isometry_int,
    k3n_h2_gram,
    k3n_vectors,
    kumn_h2_gram,
    lambda_to_ambient,
    lambda_gram,
    matching_sum,
    pair,
    transvect_int,
)

NAME = "cli-cold"
ROUND_SECONDS = 13.0
PACED = False  # times stay as measured (README, "Host pace")
PEAK_RSS_OF_CHILDREN = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAULT_MODULI_SHAPE = "cmd_moduli raises TypeError on a malformed v (exit 1, not 2)"
# the keys documented in the catalog module
CATALOG_KEYS = {"shift", "tensor_line_bundle", "sign_equivalence", "spherical_P",
                "fm_ext1", "horja_EZ", "poincare", "dn_transfer"}
NS_GRAMS = {"2": [[2]], "4": [[4]], "U": [[0, 1], [1, 0]]}


def run_cold(argv, stdin_text):
    """One CLI process; it inherits PYTHONPATH (src) from the workload process."""
    p = subprocess.run(
        [sys.executable, "-m", "extmukai.cli", *argv],
        input=stdin_text, capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    return p.returncode, p.stdout


def run_in_process(E, argv, stdin_text):
    """cli.main with the process's argv, stdin and stdout swapped in."""
    saved = sys.argv, sys.stdin
    sys.argv = ["extmukai", *argv]
    sys.stdin = io.StringIO(stdin_text)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            try:
                code = E.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an uncaught exception exits 1 in a real process
                code = 1
    finally:
        sys.argv, sys.stdin = saved
    return code, buf.getvalue()


def setup(E, trace=False, lap=lambda: None):
    state = {"E": E, "trace": trace}
    if trace:
        importlib.import_module("extmukai.cli")
    else:
        state["warm_exit"] = run_cold(["catalog", "list"], "")[0]
    return state


def check_setup(state):
    if state.get("warm_exit", 0) != 0:
        return False, "warm-up catalog list exited %s" % state["warm_exit"]
    return True, ""


# -- argument builders (oracle side) -------------------------------------------


def expr(coeffs, names):
    """'2*e1-3*delta' from coefficients; '0' for the zero class."""
    parts = []
    for c, name in zip(coeffs, names):
        if c:
            parts.append(("-" if c < 0 else "+") + "%d*%s" % (abs(c), name))
    if not parts:
        return "0"
    s = "".join(parts)
    return s[1:] if s[0] == "+" else s


def h2_class(family, n, rng):
    """(expression, H^2 coordinate vector) on e1..e6 and delta (K3n) or e7 (Kumn)."""
    coeffs = [rng.randint(-3, 3) for _ in range(7)]
    if family == "K3n":
        names = ["e%d" % i for i in range(1, 7)] + ["delta"]
        vec = coeffs[:6] + [0] * 16 + [coeffs[6]]
    else:
        names = ["e%d" % i for i in range(1, 8)]
        vec = coeffs
    return expr(coeffs, names), vec


def h2_gram(family, n):
    return k3n_h2_gram(n) if family == "K3n" else kumn_h2_gram(n)


def invariants(family, n):
    if family == "K3n":
        return Q(1), Q(n + 3, 4)
    return Q(n + 1), Q(n + 1, 4)


def in_lambda(n, x):
    """Ambient vector in Lambda = Z alpha~ + K3 + Z beta + Z delta~?"""
    a = x[0]
    c = x[23] + a / 2
    b = x[24] - a * Q(1 - n, 4) - c * (n - 1)
    return all(Q(t).denominator == 1 for t in [a, b, c] + list(x[1:23]))


def b_field_apply(h2, lam, x):
    """B_lam(r alpha + mu + s beta) = r alpha + mu + r lam + (s + b(lam, mu) + r b(lam, lam)/2) beta."""
    r, mu, s = x[0], list(x[1:-1]), x[-1]
    return (r,) + tuple(m + r * l for m, l in zip(mu, lam)) + (
        s + pair(h2, lam, mu) + r * pair(h2, lam, lam) / 2,)


def parse_rats(v):
    return [Q(c) for c in v]


# -- ops ----------------------------------------------------------------------


def _op(state, kind, argv, check, stdin_text="", known_fault=None):
    E = state["E"]
    if state["trace"]:
        def run():
            return run_in_process(E, argv, stdin_text)
    else:
        def run():
            return run_cold(argv, stdin_text)

    def full_check(out):
        code, text = out
        canonical, obj = is_canonical_json(text)
        if not canonical:
            return False, "%s: stdout is not canonical JSON (exit %s): %r" % (
                " ".join(argv), code, text[-200:])
        ok, detail = check(code, obj)
        return ok, "%s: %s" % (" ".join(argv), detail)

    return Op(kind, run, full_check, known_fault)


def _report(obj, argv, want_code, code):
    if code != want_code:
        return "exit %s, expected %s" % (code, want_code)
    if obj.get("command") != " ".join(argv):
        return "command field %r" % (obj.get("command"),)
    return None


def _error_object(code, obj):
    if code != 2:
        return False, "exit %s, expected 2" % code
    err = obj.get("error") if isinstance(obj, dict) else None
    ok = (set(obj) == {"error"} and isinstance(err, dict)
          and set(err) == {"type", "message"})
    return ok, "error object %r" % (obj,)


def light_ops(state, rng):
    ops = []

    # vector of a line bundle: alpha + lam + (r_X + q/2) beta, square -2 r_X
    n = rng.randint(2, 6)
    e, lam = h2_class("K3n", n, rng)
    argv = ["vector", "--n", str(n), "--lam=" + e]

    def check(code, obj, n=n, lam=lam, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        _c, r_x = invariants("K3n", n)
        q = pair(h2_gram("K3n", n), lam, lam)
        want = [Q(1)] + [Q(x) for x in lam] + [r_x + Q(q, 2)]
        res = obj["result"]
        ok = (parse_rats(res["coords"]) == want and Q(res["square"]) == -2 * r_x
              and res["orbit"] == "line_bundle")
        return ok, "result %r" % (res,)
    ops.append(_op(state, "vector", argv, check))

    n = rng.randint(2, 6)
    argv = ["vector", "--point", "--n", str(n)]

    def check(code, obj, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        res = obj["result"]
        want = [Q(0)] * 24 + [Q(1)]
        ok = parse_rats(res["coords"]) == want and res["square"] == "0" and res["orbit"] == "kx_orbit"
        return ok, "result %r" % (res,)
    ops.append(_op(state, "vector", argv, check))

    # chi(L): Ellingsrud-Goettsche-Lehn and Britze-Nieper-Wisskirchen
    for family in ("K3n", "Kumn"):
        n = rng.randint(2, 6) if family == "K3n" else rng.randint(2, 4)
        e, lam = h2_class(family, n, rng)
        argv = ["chi", "--family", family, "--n", str(n), "--lam=" + e]

        def check(code, obj, family=family, n=n, lam=lam, argv=argv):
            bad = _report(obj, argv, 0, code)
            if bad:
                return False, bad
            q = pair(h2_gram(family, n), lam, lam)
            want = chi_k3n(q, n) if family == "K3n" else chi_kumn(q, n)
            return Q(obj["result"]["chi"]) == want, "chi %s, want %s" % (obj["result"], want)
        ops.append(_op(state, "chi", argv, check))

    # sqrt-Todd profile: c_X r_X^i / i! * (2n-2i)! / (2^(n-i) (n-i)!)
    for family in ("K3n", "Kumn"):
        n = rng.randint(2, 6) if family == "K3n" else rng.randint(2, 4)
        argv = ["todd", "--sqrt", "--family", family, "--n", str(n)]

        def check(code, obj, family=family, n=n, argv=argv):
            bad = _report(obj, argv, 0, code)
            if bad:
                return False, bad
            c, r = invariants(family, n)
            want = [c * r**i / factorial(i) * Q(factorial(2 * n - 2 * i), 2 ** (n - i) * factorial(n - i))
                    for i in range(n + 1)]
            res = obj["result"]
            ok = parse_rats(res["pairing_profile"]) == want and Q(res["integral"]) == want[-1]
            return ok, "profile %r" % (res,)
        ops.append(_op(state, "todd", argv, check))

    # integral of 2n classes: c_X times the sum over perfect matchings
    n = rng.randint(2, 4)
    classes = [h2_class("K3n", n, rng) for _ in range(2 * n)]
    argv = ["integrate", "--n", str(n), "--omegas=" + ";".join(e for e, _v in classes)]

    def check(code, obj, n=n, classes=classes, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        g = h2_gram("K3n", n)
        b = [[pair(g, u, v) for _e, v in classes] for _e, u in classes]
        want = matching_sum(b)
        return Q(obj["result"]["integral"]) == want, "integral %s, want %s" % (obj["result"], want)
    ops.append(_op(state, "integrate", argv, check))

    argv = ["catalog", "list"]

    def check(code, obj, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        keys = obj["result"]["keys"]
        return set(keys) == CATALOG_KEYS and len(keys) == len(CATALOG_KEYS), "keys %r" % (keys,)
    ops.append(_op(state, "catalog-list", argv, check))

    # moduli report: dimension v^2 + 2, fine iff gcd <v, basis> = 1
    ns_name = rng.choice(sorted(NS_GRAMS))
    ns = NS_GRAMS[ns_name]
    k = len(ns)
    g = [[0] * (k + 2) for _ in range(k + 2)]  # basis (1,0,0), (0,0,1), NS
    g[0][1] = g[1][0] = -1
    for i in range(k):
        for j in range(k):
            g[2 + i][2 + j] = ns[i][j]
    v = draw_primitive(rng, k + 2, 3, lambda v: pair(g, v, v) > 0)
    r, s, c = v[0], v[1], list(v[2:])
    stdin = json.dumps({"ns": {"gram": [[str(x) for x in row] for row in ns]},
                        "v": [str(x) for x in [r] + c + [s]]})
    argv = ["moduli"]

    def check(code, obj, g=g, v=v, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        sq = pair(g, v, v)
        d = 0
        for row in g:
            d = gcd(d, sum(a * b for a, b in zip(row, v)))
        res = obj["result"]
        ok = (res["dimension"] == sq + 2 and Q(res["square"]) == sq and res["fine"] == (d == 1)
              and res["obstruction_order"] == d and res["disc_lemma"]["all"] is True
              and all(ch["pass"] for ch in obj["checks"]))
        return ok, "report %r" % (res,)
    ops.append(_op(state, "moduli", argv, check, stdin_text=stdin))

    # malformed inputs: exit code 2 with an error object
    bad_name = "e1+" + rng.choice(["foo", "gamma", "e99", "eps"])
    ops.append(_op(state, "malformed", ["vector", "--lam=" + bad_name], _error_object))
    ops.append(_op(state, "malformed", ["chi", "--square", "%d/0" % rng.randint(1, 9)],
                   _error_object))
    ops.append(_op(state, "malformed", ["integrate", "--omegas", "e1;e2;e3"], _error_object))
    ops.append(_op(state, "malformed", ["moduli"], _error_object,
                   stdin_text='{"ns":{"gram":[["2"]]},"v":5}', known_fault=FAULT_MODULI_SHAPE))
    return ops


def heavy_ops(state, rng):
    ops = []

    # catalog get spherical_P: (-1)^(n+1) s_v, v = alpha~ + beta
    n = rng.randint(2, 5)
    argv = ["catalog", "get", "spherical_P", "--n", str(n)]

    def check(code, obj, n=n, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        res = obj["result"]
        gram = extended_gram(k3n_h2_gram(n))
        if [[Q(x) for x in row] for row in res["space"]["gram"]] != gram:
            return False, "space Gram"
        m = [parse_rats(row) for row in res["matrix"]]
        if not is_isometry_int(m, gram):
            return False, "M^T G M != G"
        alpha_t, _dt, beta = k3n_vectors(n)
        v = [a + b for a, b in zip(alpha_t, beta)]
        mv = [sum(a * x for a, x in zip(row, v)) for row in m]
        e1 = [Q(1) if i == 1 else Q(0) for i in range(25)]
        me1 = [row[1] for row in m]
        sign = (-1) ** (n + 1)
        mm = [[sum(m[i][k] * m[k][j] for k in range(25)) for j in range(25)] for i in range(25)]
        ok = (mv == [-sign * x for x in v] and me1 == [sign * x for x in e1]
              and all(mm[i][j] == (i == j) for i in range(25) for j in range(25))
              and res["key"] == "spherical_P"
              and res["epsilon"] == (1 if n % 2 == 0 else None))
        return ok, "matrix is not (-1)^(n+1) s_v"
    ops.append(_op(state, "catalog-get", argv, check))

    # isometry-info of the spherical twist: predicted invariants
    n = rng.randint(2, 5)
    argv = ["isometry-info", "--iso", "catalog:spherical_P", "--n", str(n)]

    def check(code, obj, n=n, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        # s_v has det -1 and spinor norm +1 (v^2 = -2); -id on the rank-25
        # space has det -1, spinor norm +1 (four positive directions) and acts
        # as -1 on A(Lambda) = Z/(2n-2)
        odd = n % 2 == 1
        want = {
            "det": "-1" if odd else "1",
            "spinor_norm": 1,
            "preserves_lambda": True,
            "preserves_lambda_g": True,
            "disc_action": "identity" if odd or n == 2 else "minus_identity",
        }
        return obj["result"] == want, "result %r, want %r" % (obj["result"], want)
    ops.append(_op(state, "isometry-info", argv, check))

    # an integral B-field preserves Lambda
    n = rng.randint(2, 5)
    e, _lam = h2_class("K3n", n, rng)
    argv = ["lattice-check", "--lattice", "lambda", "--n", str(n), "--iso=bfield:" + e]

    def check(code, obj, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        return obj["result"] == {"preserves": True}, "result %r" % (obj["result"],)
    ops.append(_op(state, "lattice-check", argv, check))

    # the counterexample: B_{delta/3} moves Lambda at n = 10
    argv = ["lattice-check", "--lattice", "lambda", "--n", "10", "--iso", "bfield:delta/3"]

    def check(code, obj, argv=argv):
        bad = _report(obj, argv, 1, code)
        if bad:
            return False, bad
        res = obj["result"]
        if res.get("preserves") is not False or not res.get("witness"):
            return False, "result %r" % (res,)
        w = parse_rats(res["witness"])
        lam = [Q(0)] * 22 + [Q(1, 3)]
        bw = b_field_apply(k3n_h2_gram(10), lam, w)
        ok = in_lambda(10, w) != in_lambda(10, bw)  # exactly one side in Lambda
        return ok, "witness %r does not separate" % (res["witness"],)
    ops.append(_op(state, "lattice-check", argv, check))

    # transport: the word maps v to w under plain-integer transvections
    n = rng.randint(2, 5)
    g = lambda_gram(n)
    v = draw_primitive(rng, 25, 4)
    w = v
    for idx, partner in ((0, 23), (23, 0), (0, 23)):  # alpha~, beta, alpha~
        e_ = tuple(1 if i == idx else 0 for i in range(25))
        a0 = tuple(rng.randint(-2, 2) for _ in range(25))
        t = pair(g, e_, a0)
        a_ = tuple(x + (t if i == partner else 0) for i, x in enumerate(a0))
        w = transvect_int(g, e_, a_, w)
    v_amb, w_amb = (",".join(str(c) for c in lambda_to_ambient(n, [Q(c) for c in x]))
                    for x in (v, w))
    argv = ["transport", "--n", str(n), "--v=" + v_amb, "--w=" + w_amb]

    def check(code, obj, g=g, v=v, w=w, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        res = obj["result"]
        if not res.get("found"):
            return False, "result %r" % (res,)
        x = v
        for step in res["word"]:
            x = transvect_int(g, [int(Q(c)) for c in step["e"]], [int(Q(c)) for c in step["a"]], x)
        return x == w and len(res["word"]) == res["word_length"], "word does not map v to w"
    ops.append(_op(state, "transport", argv, check))

    argv = ["verify", "besse"]

    def check(code, obj, argv=argv):
        bad = _report(obj, argv, 0, code)
        if bad:
            return False, bad
        checks = obj["checks"]
        ok = (checks and all(c["pass"] for c in checks)
              and obj["result"] == {"suite": "besse", "n_checks": len(checks)})
        return ok, "checks %r" % (checks,)
    ops.append(_op(state, "verify", argv, check))
    return ops


def make_round(state, rng):
    ops = light_ops(state, rng) + heavy_ops(state, rng)
    rng.shuffle(ops)
    return ops
