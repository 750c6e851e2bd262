"""The package contract as recorded data: the public names of `extmukai`
with their signatures, and the bytes of every JSON format of `serialize`.

A refactor must leave both files as they are; a deliberate change of the
contract rewrites them with `public_api()` and `json_formats()`.
"""

import functools
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path
from types import SimpleNamespace

import pytest

import extmukai
from extmukai import serialize
from extmukai.catalog import REFLECTION_TWISTS, CatalogError, action, dn_transfer, k3_extended_space
from extmukai.isometry import (Isometry, IsometryError, QuadSpace, disc_action, generate_bounded,
                               preserves_lattice, reflection)
from extmukai.lattice import QuadLattice
from extmukai.linalg import Mat, vec_add
from extmukai.spaces import (ExtMukaiSpace, b_field, custom_type, in_hat_aut_plus, is_hodge_isometry,
                             k3n_lattices, k3n_type, kumn_type, split_algebraic)
from extmukai.verbitsky import SymElement, lefschetz_e, restricted_space, sqrt_todd_argument

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def _signature(obj):
    try:
        return str(inspect.signature(obj))
    except ValueError:  # a builtin base with no signature, such as ValueError
        return None


def _kind(obj):
    if inspect.isclass(obj):
        return "exception" if issubclass(obj, BaseException) else "class"
    return "function" if callable(obj) else "value"


def _methods(cls):
    """The public attributes a class of the package defines or inherits
    from another class of the package, with their kind and signature."""
    out = {}
    for name in dir(cls):
        if name.startswith("_"):
            continue
        owner = next((k for k in cls.__mro__ if name in vars(k)), None)
        if owner is None or not owner.__module__.startswith("extmukai"):
            continue
        raw = vars(owner)[name]
        if isinstance(raw, property):
            out[name] = {"kind": "property"}
        elif isinstance(raw, (staticmethod, classmethod)):
            out[name] = {"kind": type(raw).__name__,
                         "signature": _signature(getattr(cls, name))}
        elif callable(raw):
            out[name] = {"kind": "method", "signature": _signature(raw)}
        else:
            out[name] = {"kind": "attribute"}
    return out


def public_api():
    """Every public, non-module name of the package."""
    out = {}
    for name, obj in sorted(vars(extmukai).items()):
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        entry = {"kind": _kind(obj)}
        if callable(obj):
            entry["signature"] = _signature(obj)
        else:
            entry["value"] = repr(obj)
        if inspect.isclass(obj):
            entry["methods"] = _methods(obj)
        out[name] = entry
    out["__version__"] = {"kind": "value", "value": repr(extmukai.__version__)}
    return out


def _fixed_objects():
    plane = QuadSpace(Mat([[0, 1], [1, 0]]))
    k3n = ExtMukaiSpace(k3n_type(2))
    small = restricted_space(k3n, [[1] + [0] * 22, [0] * 22 + [1]])
    sym = lefschetz_e((Q(1), Q(-1, 2)), sqrt_todd_argument(small))
    return {
        "vector": (Q(1), Q(-1, 2), Q(0), Q(7, 3)),
        "matrix": Mat([[1, Q(1, 2)], [-3, 0]]),
        "lattice": QuadLattice(Mat([[2, 1], [1, -4]]), name="A"),
        "embedded lattice": QuadLattice.from_basis(
            [(1, 1, 0), (0, 1, 2)], Mat([[2, 0, 0], [0, -2, 1], [0, 1, 0]]), name="L"),
        "isometry": Isometry(plane, Mat([[0, 1], [1, 0]]), word=("swap",)),
        "reflection": reflection(small, vec_add(small.alpha, small.beta)),
        "deformation": kumn_type(2),
        "custom deformation": custom_type(3, 1, Q(3, 2), Mat([[Q(1, 2)]])),
        "sym": sym,
        "sym zero": SymElement(small, 2),
    }


def _formats(name, obj):
    """(format, to_json output, to_json of the from_json round trip)."""
    if name == "vector":
        out = serialize.vector_to_json(obj)
        return "vector", out, serialize.vector_to_json([serialize.parse_rat(c) for c in out])
    if name == "matrix":
        out = serialize.matrix_to_json(obj)
        return "matrix", out, serialize.matrix_to_json(serialize.matrix_from_json(out))
    if "lattice" in name:
        out = serialize.lattice_to_json(obj)
        again = serialize.lattice_from_json(out, ambient_gram=obj.ambient_gram)
        return "lattice", out, serialize.lattice_to_json(again)
    if name in ("isometry", "reflection"):
        out = serialize.isometry_to_json(obj, space_name=name)
        again = serialize.isometry_from_json(out)
        return "isometry", out, serialize.isometry_to_json(again, space_name=name)
    if "deformation" in name:
        out = serialize.deformation_to_json(obj)
        again = serialize.deformation_from_json(out)
        return "deformation", out, serialize.deformation_to_json(again)
    out = serialize.sym_to_json(obj)
    return "sym", out, serialize.sym_to_json(serialize.sym_from_json(obj.space, out))


def json_formats():
    out = {}
    for name, obj in _fixed_objects().items():
        fmt, data, again = _formats(name, obj)
        out[name] = {"format": fmt, "canonical": serialize.canonical_json(data),
                     "round_trip": serialize.canonical_json(again)}
    return out


def test_public_api_matches_the_record():
    want = json.loads((DATA / "public_api.json").read_text())
    assert public_api() == want


def test_json_formats_match_the_record():
    want = json.loads((DATA / "json_formats.json").read_text())
    got = json_formats()
    assert got == want
    for entry in got.values():
        assert entry["round_trip"] == entry["canonical"]


def test_import_loads_only_the_library_modules():
    # `import extmukai` is paid by every process and every benchmark set-up:
    # the CLI, its formats and the verification suites load on demand only
    code = ("import sys, extmukai; "
            "print(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'extmukai')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["extmukai"] + ["extmukai." + m for m in (
        "catalog", "isometry", "lattice", "linalg", "moduli", "spaces", "verbitsky")]


def test_twist_table_is_a_plain_dict_of_tuples():
    # no class (namedtuple, dataclass) is made at import for the table
    assert type(REFLECTION_TWISTS) is dict
    assert all(type(entry) is tuple for entry in REFLECTION_TWISTS.values())


# -- the space contract --------------------------------------------------------
#
# An isometry acts on its own space only.  Every public entry that takes an
# isometry together with something that must share its space refuses a
# foreign one with the package's error: "space mismatch" for a space of the
# same dimension, "dimension mismatch" for one of another dimension.  The
# foreign spaces are K3[3] (dimension 25, as K3[2]) and Kum2 (dimension 9);
# for `dn_transfer` the home is the rank-24 K3 extended space and the foreign
# space of equal dimension has H^2 Gram -2 I_22.


def _objects(space, k3_iso):
    """An isometry of `space` (the B-field of its last H^2 unit, an isometry
    of no other space here), a full-rank lattice of it and, for the
    Hilbert-scheme transfer, `k3_iso`."""
    lam = [0] * (space.b2 - 1) + [1]
    lat = k3n_lattices(space).lam if space.dtype.family == "K3n" else space.integral_lattice()
    return SimpleNamespace(space=space, g=b_field(space, lam), lat=lat, g24=k3_iso)


@functools.cache
def _case(case):
    """The objects of one case: "home", "twin" (a second build of the home
    spaces, equal Grams in other objects), "equal" or "other"."""
    ns = [[1] + [0] * 22]
    if case in ("home", "twin"):
        k3 = k3_extended_space()
        return _objects(ExtMukaiSpace(k3n_type(2), ns), b_field(k3, [1] + [0] * 21))
    if case == "equal":
        other24 = ExtMukaiSpace(custom_type(1, 1, 1, Mat.diagonal([-2] * 22)))
        return _objects(ExtMukaiSpace(k3n_type(3), ns), reflection(other24, other24.basis_vector(1)))
    kum = ExtMukaiSpace(kumn_type(2), [[1] + [0] * 6])
    return _objects(kum, b_field(kum, [1] + [0] * 6))


def _home():
    return _case("home")


# public_api.json entries that take an isometry with something of its space
SPACE_GUARDED = {
    "Isometry.compose": lambda f: _home().g.compose(f.g),
    "Isometry.on_lattice": lambda f: _home().g.on_lattice(f.lat),
    "preserves_lattice": lambda f: preserves_lattice(_home().g, f.lat),
    "disc_action": lambda f: disc_action(f.g, _home().lat),
    "in_hat_aut_plus": lambda f: in_hat_aut_plus(f.g, _home().space),
    "generate_bounded": lambda f: generate_bounded([_home().g, f.g], 0),
    "dn_transfer": lambda f: dn_transfer(_home().space, f.g24),
    "action": lambda f: action(_home().space, "dn_transfer", g=f.g24),
}
# entries that take one isometry and nothing to mismatch it against
SPACE_EXEMPT = ("spinor_norm", "cartan_dieudonne")
# guarded as well, outside the rule that derives SPACE_GUARDED
SPACE_GUARDED_TOO = {
    "Isometry": lambda f: Isometry(_home().space, f.g.matrix),
    "split_algebraic": lambda f: split_algebraic(_home().space, f.lat),
    "is_hodge_isometry": lambda f: is_hodge_isometry(f.g, _home().space),
    "is_hodge_isometry without NS": lambda f: is_hodge_isometry(f.g, ExtMukaiSpace(k3n_type(2))),
}
SPACE_CALLS = {**SPACE_GUARDED, **SPACE_GUARDED_TOO}


def _refusal(name, case):
    """(error class, exact message) of the entry `name` on a foreign case."""
    if name in ("dn_transfer", "action"):
        return CatalogError, "dn_transfer starts from the rank-24 K3 extended space"
    if name == "Isometry" and case == "equal":  # a 25 x 25 matrix, not of this form
        return IsometryError, "matrix does not preserve the form"
    return IsometryError, "space mismatch" if case == "equal" else "dimension mismatch"


def _params(signature):
    return {p.split("=")[0].strip(" *") for p in signature.strip("()").split(",")}


def test_space_guarded_table_covers_the_public_api():
    # every entry or method naming g or gens, and the Isometry methods that
    # take other or lat; a new public function of that shape must join a table
    api = json.loads((DATA / "public_api.json").read_text())
    signed = [(name, e["signature"]) for name, e in api.items() if e.get("signature")]
    signed += [(name + "." + m, e["signature"]) for name, entry in api.items()
               for m, e in (entry.get("methods") or {}).items() if e.get("signature")]
    shape = {name for name, sig in signed if _params(sig) & {"g", "gens"}
             or name.startswith("Isometry.") and _params(sig) & {"other", "lat"}}
    assert shape == set(SPACE_GUARDED) | set(SPACE_EXEMPT)
    assert set(SPACE_GUARDED).isdisjoint(SPACE_EXEMPT)


@pytest.mark.parametrize("case", ["equal", "other"])
@pytest.mark.parametrize("name", SPACE_CALLS)
def test_foreign_space_is_refused(name, case):
    err, message = _refusal(name, case)
    with pytest.raises(err, match="^%s$" % re.escape(message)) as info:
        SPACE_CALLS[name](_case(case))
    assert type(info.value) is err


@pytest.mark.parametrize("name", SPACE_CALLS)
def test_equal_space_built_twice_is_accepted(name):
    # the same space is decided by equal Grams, not by the same object
    twin = _case("twin")
    assert twin.space.gram == _home().space.gram and twin.space.gram is not _home().space.gram
    SPACE_CALLS[name](twin)
