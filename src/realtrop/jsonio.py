"""JSON encodings for every value the command line reads or writes; the
one home of the JSON forms of signs, valuations and hyperfield elements.
A sign is "+", "-", "0" or exactly the int -1, 0 or 1; a valuation is a
string read by ``parse_val`` ("p/q", "inf") or exactly an int; a rank,
tuple entry or morphism index is exactly an int
(``int_from_json``); bools and floats are rejected.  RT values are
{"sign", "val"} (decoders also read [sign, val]; sign 0 pairs only with
"inf"), T values valuation strings, S values sign characters and K
values the ints 0 and 1.  Matrices and vectors are lists of series
literals; circuit entries are pairs.  Flag vectors are written as lists
of rational strings in the "p/q" grammar of valuations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .hyperfields import (
    KV,
    RT,
    TV,
    CHAR_SIGNS,
    SIGN_CHARS,
    Val,
    display_rt,
    field_of,
    format_val,
    parse_val,
    sign_val,
)
from .matroids import (
    DEFAULT_PAIR_CAP,
    CovectorPoset,
    EnumerationCapError,
    GrassmannPlucker,
    sign_vector_str,
)
from .puiseux import PuiseuxSeries, as_series, format_series
from .seminorms import (
    CompatibleFamily,
    DiagonalSeminorm,
    Morphism,
    SeminormExpr,
    SignedFlag,
    UnsignedFlag,
    compose,
)
from .tropical import BergmanFan, LinearEmbedding, ProjPoint


# -- signs, valuations and hyperfield elements -------------------------------


def sign_from_json(obj) -> int:
    """A sign read from JSON: a sign character or exactly the int -1, 0 or
    1; bools and floats are rejected."""
    if isinstance(obj, str) and obj in CHAR_SIGNS:
        return CHAR_SIGNS[obj]
    if type(obj) is int and obj in SIGN_CHARS:
        return obj
    raise ValueError(f"bad sign {obj!r}")


def int_from_json(obj, name: str) -> int:
    """Exactly an int read from JSON; anything else, bools, floats and
    strings included, raises a ValueError naming the field."""
    if type(obj) is int:
        return obj
    raise ValueError(f"{name} must be an int, got {obj!r}")


def val_from_json(obj) -> Val:
    """A valuation read from JSON: a string read by ``parse_val`` or
    exactly an int; bools and floats are rejected."""
    if isinstance(obj, str):
        return parse_val(obj)
    if type(obj) is int:
        return Fraction(obj)
    raise ValueError(f"bad valuation {obj!r}")


def value_to_json(x):
    """A hyperfield element as JSON: RT as {"sign", "val"}, T as its
    valuation string, S as a sign character and K as 0 or 1."""
    sign, val = sign_val(x)
    field = field_of(x)
    if field == "RT":
        return {"sign": SIGN_CHARS[sign], "val": format_val(val)}
    if field == "T":
        return format_val(val)
    return SIGN_CHARS[sign] if field == "S" else sign


def value_from_json(obj, field: str, path: str = "value"):
    """The element of ``field`` that ``value_to_json`` wrote as ``obj``;
    RT also reads the pair [sign, val].  Errors name ``path``."""
    if field == "RT":
        if isinstance(obj, dict):
            obj = _member(obj, "sign", path), _member(obj, "val", path)
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ValueError(f"cannot read RT value from {obj!r}")
        return RT(sign_from_json(obj[0]), val_from_json(obj[1]))
    if field == "T":
        return TV(val_from_json(obj))
    if field == "S":
        return sign_from_json(obj)
    if type(obj) is int and obj in (0, 1):
        return KV(obj)
    raise ValueError(f"bad Krasner value {obj!r}")


def displayed_to_json(x: RT, convention: str = "mult") -> dict:
    """An RT value with its rendering in ``convention``."""
    return {"value": value_to_json(x), "display": display_rt(x, convention)}


# -- matrices and vectors ----------------------------------------------------


def matrix_from_json(obj, path: str = "matrix") -> list[tuple[PuiseuxSeries, ...]]:
    """A row-major list of rows of literals; a value of the wrong shape or
    an entry that is no Puiseux series is a ValueError naming its path,
    such as ``matrix[1][0]``."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError(f"{path}: expected a row-major matrix as a list of lists")
    return [_series_list(row, f"{path}[{i}]") for i, row in enumerate(obj)]


def vector_from_json(obj, path: str = "vector") -> tuple[PuiseuxSeries, ...]:
    """A list of literals, or one comma-separated string ("1,t,-1+t"); a
    value of the wrong shape or an entry that is no Puiseux series is a
    ValueError naming its path, such as ``vector[2]``."""
    if isinstance(obj, str):
        obj = obj.split(",")
    elif not isinstance(obj, list):
        raise ValueError(f"{path}: expected a vector as a list of literals")
    return _series_list(obj, path)


def vector_to_json(vec) -> list:
    return [format_series(as_series(x)) for x in vec]


def embedding_from_json(obj, path: str = "matrix") -> LinearEmbedding:
    return LinearEmbedding.from_matrix(matrix_from_json(obj, path))


# -- points -------------------------------------------------------------------


def parse_point_literal(text: str):
    """Either sign:valuation pairs ("+:0,-:1/2,0:inf") yielding a tropical
    point, or a comma-separated series vector still to be tropicalized.
    A bare "+" or "-" has valuation 0 and a bare "0" is zero."""
    text = text.strip()
    if ":" not in text:
        return vector_from_json(text)
    coords = []
    for chunk in text.split(","):
        sign, _, val = chunk.strip().partition(":")
        val = val or ("inf" if sign == "0" else "0")
        coords.append(value_from_json([sign, val], "RT"))
    return ProjPoint(tuple(coords))


def point_to_json(pt: ProjPoint, convention: str = "mult") -> dict:
    return {
        "coords": [value_to_json(x) for x in pt.coords],
        "display": [display_rt(x, convention) for x in pt.coords],
    }


def point_from_json(obj, path: str = "point") -> ProjPoint:
    """A sign:valuation literal, or a list of RT values, bare or as
    {"coords": list}; errors name the path, as ``point.coords[0]``."""
    if isinstance(obj, str):
        pt = parse_point_literal(obj)
        if not isinstance(pt, ProjPoint):
            raise ValueError("point literal must use sign:valuation pairs")
        return pt
    if isinstance(obj, dict):
        obj, path = _member(obj, "coords", path), f"{path}.coords"
    coords = _expect(obj, list, path)
    return ProjPoint(tuple(value_from_json(c, "RT", f"{path}[{i}]") for i, c in enumerate(coords)))


# -- circuits ------------------------------------------------------------------


def circuits_to_json(circuits) -> list:
    """Each entry in the compact pair form ["+", "0"]."""
    return [[[SIGN_CHARS[x.sign], format_val(x.val)] for x in c.entries] for c in circuits]


# -- Grassmann-Plucker functions ------------------------------------------------


def gp_from_json(obj, cap: int = DEFAULT_PAIR_CAP) -> GrassmannPlucker:
    """A wrong shape or a missing key is a ValueError naming its path, such
    as ``gp.values[1]``; repeated ground labels and tuples are rejected.
    The C(m, rank) rank-subsets of the m labels are counted against ``cap``
    before any value is read."""
    field = _member(_expect(obj, dict, "gp"), "hyperfield", "gp")
    if field not in ("RT", "T", "S", "K"):
        raise ValueError(f"unknown hyperfield {field!r}")
    labels = tuple(_expect(_member(obj, "ground", "gp"), list, "gp.ground"))
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"repeated ground label {label!r}")
    rank = int_from_json(_member(obj, "rank", "gp"), "rank")
    count = math.comb(len(labels), rank) if rank >= 0 else 0
    if count > cap:
        raise EnumerationCapError(count, cap, "tuple enumeration")
    values = {}
    for i, item in enumerate(_expect(_member(obj, "values", "gp"), list, "gp.values")):
        path = f"gp.values[{i}]"
        item = _expect(item, dict, path)
        entries = _expect(_member(item, "tuple", path), list, f"{path}.tuple")
        tup = tuple(int_from_json(e, "tuple entry") for e in entries)
        if tup in values:
            raise ValueError(f"repeated tuple {tup}")
        values[tup] = value_from_json(_member(item, "value", path), field, f"{path}.value")
    return GrassmannPlucker(rank, labels, field, values)


# -- covector posets and fans ----------------------------------------------------


def poset_to_json(poset: CovectorPoset) -> dict:
    return {
        "vectors": [sign_vector_str(v) for v in poset.vectors],
        "covers": [list(c) for c in poset.covers],
    }


def fan_to_json(fan: BergmanFan) -> dict:
    return {
        "rank": fan.rank,
        "covectors": [sign_vector_str(v) for v in fan.poset.vectors],
        "chains": [list(c) for c in fan.cones],
    }


# -- seminorms ---------------------------------------------------------------------


def seminorm_to_json(s: SeminormExpr) -> dict:
    if isinstance(s, DiagonalSeminorm):
        return {
            "kind": "leaf",
            "basis": [[format_series(x) for x in col] for col in s.basis],
            "c": [format_val(w) for w in s.weights],
        }
    return {
        "kind": "compose",
        "left": seminorm_to_json(s.left),
        "right": seminorm_to_json(s.right),
    }


def _expect(obj, kind: type, path: str):
    """obj when it is a JSON object (``kind`` dict) or list (``kind``
    list); otherwise a ValueError naming its path."""
    if not isinstance(obj, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"{path}: expected {name}, got {obj!r}")
    return obj


def _member(obj: dict, key: str, path: str):
    """obj[key]; a missing key is a ValueError naming the path."""
    if key not in obj:
        raise ValueError(f"{path}: missing key {key!r}")
    return obj[key]


def _series_list(obj, path: str) -> tuple[PuiseuxSeries, ...]:
    """A JSON list of Puiseux series; a value of the wrong shape or an
    entry ``as_series`` cannot read is a ValueError naming its path."""
    out = []
    for i, x in enumerate(_expect(obj, list, path)):
        try:
            out.append(as_series(x))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}[{i}]: {exc}") from None
    return tuple(out)


def seminorm_from_json(obj, path: str = "seminorm") -> SeminormExpr:
    """A leaf {"kind": "leaf", "basis": [column, ...], "c": [weight, ...]}
    or a composition {"kind": "compose", "left": ..., "right": ...}.  A
    value of the wrong shape, a missing key or a basis entry that is no
    Puiseux series is a ValueError naming its path, such as
    ``seminorm.left.basis[1]`` or ``seminorm.basis[0][1]``."""
    _expect(obj, dict, path)
    kind = obj.get("kind")
    if kind == "leaf":
        columns = _expect(_member(obj, "basis", path), list, f"{path}.basis")
        basis = tuple(_series_list(col, f"{path}.basis[{j}]") for j, col in enumerate(columns))
        weights = _expect(_member(obj, "c", path), list, f"{path}.c")
        return DiagonalSeminorm(basis, tuple(val_from_json(w) for w in weights))
    if kind == "compose":
        left = seminorm_from_json(_member(obj, "left", path), f"{path}.left")
        right = seminorm_from_json(_member(obj, "right", path), f"{path}.right")
        return compose(left, right)
    raise ValueError(f"unknown seminorm kind {kind!r}")


# -- flags ----------------------------------------------------------------------


def _frac_vec_to_json(v) -> list:
    return [str(x) for x in v]


def flag_to_json(flag: SignedFlag) -> dict:
    return {
        "kernel": [_frac_vec_to_json(v) for v in flag.kernel],
        "steps": [
            {
                "vector": _frac_vec_to_json(s.vector),
                "weight": format_val(s.weight),
                "region": value_to_json(s.region),
            }
            for s in flag.steps
        ],
    }


def unsigned_flag_to_json(flag: UnsignedFlag) -> dict:
    return {
        "kernel": [_frac_vec_to_json(v) for v in flag.kernel],
        "steps": [
            {"vectors": [_frac_vec_to_json(v) for v in vs], "weight": format_val(w)}
            for vs, w in flag.steps
        ],
    }


# -- families --------------------------------------------------------------------


def family_from_json(obj, path: str = "family") -> tuple[CompatibleFamily, list]:
    """{"members": [{"embedding", "point"}], "morphisms": [{"src", "dst",
    "map"}], "probes": [vector]}, the last two optional; errors name the
    path, as ``family.members[0]``."""
    _expect(obj, dict, path)
    members = []
    for i, m in enumerate(_expect(_member(obj, "members", path), list, f"{path}.members")):
        mpath = f"{path}.members[{i}]"
        _expect(m, dict, mpath)
        emb = embedding_from_json(_member(m, "embedding", mpath), f"{mpath}.embedding")
        pt = point_from_json(_member(m, "point", mpath), f"{mpath}.point")
        members.append((emb, pt))
    morphisms = []
    for i, m in enumerate(_expect(obj.get("morphisms", []), list, f"{path}.morphisms")):
        mpath = f"{path}.morphisms[{i}]"
        _expect(m, dict, mpath)
        src = int_from_json(_member(m, "src", mpath), "src")
        dst = int_from_json(_member(m, "dst", mpath), "dst")
        index_map = _expect(_member(m, "map", mpath), list, f"{mpath}.map")
        morphisms.append(Morphism(src, dst, tuple(int_from_json(x, "map entry") for x in index_map)))
    fam = CompatibleFamily(tuple(members), tuple(morphisms))
    probes = _expect(obj.get("probes", []), list, f"{path}.probes")
    probes = [vector_from_json(p, f"{path}.probes[{i}]") for i, p in enumerate(probes)]
    return fam, probes
