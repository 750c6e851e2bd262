"""File formats: canonical JSON with rationals as strings "p/q" (or "p").

Formats
  lattice:      {"name": str, "gram": [[rat]], "embedding"?: [[rat]]}
  isometry:     {"space": lattice, "matrix": [[rat]], "word"?: [str]}
  deformation:  {"family": str, "n": int, "c_X": rat, "r_X": rat, "h2": lattice}
  sym element:  {"n": int, "pieces": {"<degree>": {"a|i1.i2|c": rat}}}
  vectors:      [rat, ...] in (alpha, H^2 basis..., beta) coordinates

Canonical output sorts keys and uses a fixed separator set, so equal data
serializes to identical bytes.
"""

import json

from .isometry import Isometry, QuadSpace
from .lattice import QuadLattice
from .linalg import Mat, Q
from .spaces import DeformationType
from .verbitsky import SymElement


class FormatError(ValueError):
    pass


def rat_str(x):
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def parse_rat(s):
    """A rational from "p", "p/q", a plain decimal or a JSON number.  A
    string with an exponent part is refused at once: `Fraction` builds
    10^exp in full before it can fail on the size."""
    if isinstance(s, str) and "e" in s.lower():
        raise FormatError("bad rational %r" % (s,))
    try:
        return Q(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad rational %r" % (s,)) from exc


def vector_to_json(v):
    return [rat_str(c) for c in v]


def matrix_to_json(m):
    return [[rat_str(c) for c in row] for row in m.entries()]


def matrix_from_json(data):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise FormatError("matrix must be a list of rows")
    return Mat([[parse_rat(c) for c in row] for row in data])


def lattice_to_json(lat):
    out = {"name": lat.name or "", "gram": matrix_to_json(lat.gram)}
    if lat.basis_in_ambient is not None:
        out["embedding"] = matrix_to_json(lat.basis_in_ambient)
    return out


def lattice_from_json(data, ambient_gram=None):
    gram = matrix_from_json(data["gram"])
    name = data.get("name") or None
    if "embedding" in data and ambient_gram is not None:
        return QuadLattice(gram, matrix_from_json(data["embedding"]),
                           ambient_gram, name)
    return QuadLattice(gram, name=name)


def isometry_to_json(iso, space_name=""):
    out = {
        "space": {"name": space_name, "gram": matrix_to_json(iso.space.gram)},
        "matrix": matrix_to_json(iso.matrix),
    }
    if iso.word:
        out["word"] = list(iso.word)
    return out


def isometry_from_json(data, space=None):
    """Rebuild an isometry; the stored matrix is checked against the Gram."""
    if not isinstance(data, dict):
        raise FormatError("isometry must be an object")
    word = data.get("word", [])
    if not (isinstance(word, list) and all(isinstance(w, str) for w in word)):
        raise FormatError("isometry word must be a list of strings")
    if space is None:
        space = QuadSpace(matrix_from_json(data["space"]["gram"]))
    m = matrix_from_json(data["matrix"])
    return Isometry(space, m, word=tuple(word) if "word" in data else None)


def deformation_to_json(dtype):
    return {
        "family": dtype.family,
        "n": dtype.n,
        "c_X": rat_str(dtype.c_x),
        "r_X": rat_str(dtype.r_x),
        "h2": {"name": "H2", "gram": matrix_to_json(dtype.h2_gram)},
    }


def deformation_from_json(data):
    return DeformationType(
        data["family"],
        int(data["n"]),
        parse_rat(data["c_X"]),
        parse_rat(data["r_X"]),
        matrix_from_json(data["h2"]["gram"]),
    )


def sym_to_json(x):
    pieces = {}
    for degree, piece in x.degree_pieces().items():
        entry = {}
        for (a, m, c), val in sorted(piece.coeffs.items()):
            key = "%d|%s|%d" % (a, ".".join(str(i) for i in m), c)
            entry[key] = rat_str(val)
        pieces[str(degree)] = entry
    return {"n": x.n, "pieces": pieces}


def sym_from_json(space, data):
    n = int(data["n"])
    coeffs = {}
    for entry in data.get("pieces", {}).values():
        for key, val in entry.items():
            a_s, m_s, c_s = key.split("|")
            m = tuple(int(t) for t in m_s.split(".")) if m_s else ()
            coeffs[(int(a_s), m, int(c_s))] = parse_rat(val)
    return SymElement(space, n, coeffs)


def canonical_json(obj):
    """Deterministic JSON: sorted keys, compact separators, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
