"""The package contract as recorded data: the public names of `extmukai`
with their signatures, and the bytes of every JSON format of `serialize`.

A refactor must leave both files as they are; a deliberate change of the
contract rewrites them with `public_api()` and `json_formats()`.
"""

import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import extmukai
from extmukai import serialize
from extmukai.catalog import REFLECTION_TWISTS
from extmukai.isometry import Isometry, QuadSpace, reflection
from extmukai.lattice import QuadLattice
from extmukai.linalg import Mat, vec_add
from extmukai.spaces import ExtMukaiSpace, custom_type, k3n_type, kumn_type
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
