"""JSON encodings for every value the command line reads or writes.

All matrices are row-major lists of series literals.  Seminorm bases are
lists of basis vectors (one list per vector).  Real tropical values use
{"sign": "+"|"-"|"0", "val": "p/q"|"inf"}; circuit entries use the
compact ["+", "0"] pair form.  Decoders accept both forms.
"""

from __future__ import annotations

from fractions import Fraction

from .hyperfields import (
    INF,
    KV,
    RT,
    TV,
    CHAR_SIGNS,
    SIGN_CHARS,
    display_rt,
    format_val,
    parse_val,
    rt_from_json,
    rt_to_json,
    sign_from_json,
)
from .matroids import (
    CovectorPoset,
    GrassmannPlucker,
    parse_sign_vector,
    sign_vector_str,
)
from .puiseux import PuiseuxSeries, as_series, format_series, parse_puiseux
from .seminorms import (
    CompatibleFamily,
    DiagonalSeminorm,
    FlagStep,
    Morphism,
    SeminormExpr,
    SignedFlag,
    UnsignedFlag,
    compose,
)
from .tropical import BergmanFan, LinearEmbedding, ProjPoint


# -- matrices and vectors ----------------------------------------------------


def matrix_from_json(obj) -> list[list[PuiseuxSeries]]:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError("expected a row-major matrix as a list of lists")
    return [[as_series(x) for x in row] for row in obj]


def vector_from_json(obj) -> tuple[PuiseuxSeries, ...]:
    if not isinstance(obj, list):
        raise ValueError("expected a vector as a list of literals")
    return tuple(as_series(x) for x in obj)


def vector_to_json(vec) -> list:
    return [format_series(as_series(x)) for x in vec]


def embedding_from_json(obj) -> LinearEmbedding:
    return LinearEmbedding.from_matrix(matrix_from_json(obj))


def embedding_to_json(emb: LinearEmbedding) -> list:
    height = emb.height
    return [
        [format_series(emb.columns[j][i]) for j in range(len(emb))]
        for i in range(height)
    ]


# -- points -------------------------------------------------------------------


def parse_point_literal(text: str):
    """Either sign:valuation pairs ("+:0,-:1/2,0:inf") yielding a tropical
    point, or a comma-separated series vector still to be tropicalized."""
    text = text.strip()
    if ":" in text:
        coords = []
        for chunk in text.split(","):
            sign_s, _, val_s = chunk.strip().partition(":")
            if sign_s not in CHAR_SIGNS:
                raise ValueError(f"bad sign {sign_s!r} in point literal")
            sign = CHAR_SIGNS[sign_s]
            val = parse_val(val_s) if val_s else Fraction(0)
            coords.append(RT(sign, INF if sign == 0 else val))
        return ProjPoint(tuple(coords))
    return tuple(parse_puiseux(chunk) for chunk in text.split(","))


def point_to_json(pt: ProjPoint, convention: str = "mult") -> dict:
    return {
        "coords": [rt_to_json(x) for x in pt.coords],
        "display": [display_rt(x, convention) for x in pt.coords],
    }


def point_from_json(obj) -> ProjPoint:
    if isinstance(obj, str):
        pt = parse_point_literal(obj)
        if not isinstance(pt, ProjPoint):
            raise ValueError("point literal must use sign:valuation pairs")
        return pt
    coords = obj["coords"] if isinstance(obj, dict) else obj
    return ProjPoint(tuple(rt_from_json(c) for c in coords))


# -- circuits ------------------------------------------------------------------


def circuit_entry_to_json(x: RT) -> list:
    return [SIGN_CHARS[x.sign], format_val(x.val)]


def circuits_to_json(circuits) -> list:
    return [[circuit_entry_to_json(x) for x in c.entries] for c in circuits]


# -- Grassmann-Plucker functions ------------------------------------------------


def _gp_value_to_json(v, field: str):
    if field == "RT":
        return rt_to_json(v)
    if field == "T":
        return format_val(v.val)
    if field == "S":
        return SIGN_CHARS[v]
    return v.value


def _gp_value_from_json(obj, field: str):
    if field == "RT":
        return rt_from_json(obj)
    if field == "T":
        return TV(parse_val(obj) if isinstance(obj, str) else obj)
    if field == "S":
        return sign_from_json(obj)
    if type(obj) is int and obj in (0, 1):
        return KV(obj)
    raise ValueError(f"bad Krasner value {obj!r}")


def gp_to_json(gp: GrassmannPlucker) -> dict:
    return {
        "rank": gp.rank,
        "ground": list(gp.labels),
        "hyperfield": gp.hyperfield,
        "values": [
            {"tuple": list(t), "value": _gp_value_to_json(v, gp.hyperfield)}
            for t, v in sorted(gp.values.items())
        ],
    }


def gp_from_json(obj) -> GrassmannPlucker:
    field = obj["hyperfield"]
    if field not in ("RT", "T", "S", "K"):
        raise ValueError(f"unknown hyperfield {field!r}")
    values = {
        tuple(item["tuple"]): _gp_value_from_json(item["value"], field)
        for item in obj["values"]
    }
    return GrassmannPlucker(obj["rank"], tuple(obj["ground"]), field, values)


# -- covector posets and fans ----------------------------------------------------


def poset_to_json(poset: CovectorPoset) -> dict:
    return {
        "vectors": [sign_vector_str(v) for v in poset.vectors],
        "covers": [list(c) for c in poset.covers],
    }


def poset_from_json(obj) -> CovectorPoset:
    """The poset of the vectors; given covers must be the derived ones."""
    poset = CovectorPoset(tuple(parse_sign_vector(s) for s in obj["vectors"]))
    derived = poset.covers  # also rejects vectors of unequal length
    if "covers" in obj and tuple((int(a), int(b)) for a, b in obj["covers"]) != derived:
        raise ValueError("covers do not match the vectors")
    return poset


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


def seminorm_from_json(obj) -> SeminormExpr:
    kind = obj.get("kind")
    if kind == "leaf":
        basis = tuple(tuple(as_series(x) for x in col) for col in obj["basis"])
        weights = tuple(parse_val(w) if isinstance(w, str) else w for w in obj["c"])
        return DiagonalSeminorm(basis, weights)
    if kind == "compose":
        return compose(seminorm_from_json(obj["left"]), seminorm_from_json(obj["right"]))
    raise ValueError(f"unknown seminorm kind {kind!r}")


# -- flags ----------------------------------------------------------------------


def _frac_vec_to_json(v) -> list:
    return [str(x) for x in v]


def _frac_vec_from_json(obj):
    return tuple(Fraction(x) for x in obj)


def flag_to_json(flag: SignedFlag) -> dict:
    return {
        "kernel": [_frac_vec_to_json(v) for v in flag.kernel],
        "steps": [
            {
                "vector": _frac_vec_to_json(s.vector),
                "weight": format_val(s.weight),
                "region": SIGN_CHARS[s.region],
            }
            for s in flag.steps
        ],
    }


def flag_from_json(obj) -> SignedFlag:
    kernel = tuple(_frac_vec_from_json(v) for v in obj["kernel"])
    steps = tuple(
        FlagStep(
            _frac_vec_from_json(s["vector"]),
            parse_val(s["weight"]),
            sign_from_json(s["region"]),
        )
        for s in obj["steps"]
    )
    return SignedFlag(kernel, steps)


def unsigned_flag_to_json(flag: UnsignedFlag) -> dict:
    return {
        "kernel": [_frac_vec_to_json(v) for v in flag.kernel],
        "steps": [
            {"vectors": [_frac_vec_to_json(v) for v in vs], "weight": format_val(w)}
            for vs, w in flag.steps
        ],
    }


# -- families --------------------------------------------------------------------


def family_from_json(obj) -> tuple[CompatibleFamily, list]:
    members = []
    for m in obj["members"]:
        emb = embedding_from_json(m["embedding"])
        pt = point_from_json(m["point"])
        members.append((emb, pt))
    morphisms = tuple(
        Morphism(int(m["src"]), int(m["dst"]), tuple(int(i) for i in m["map"]))
        for m in obj.get("morphisms", [])
    )
    fam = CompatibleFamily(tuple(members), morphisms)
    probes = [vector_from_json(p) for p in obj.get("probes", [])]
    return fam, probes


def family_to_json(fam: CompatibleFamily, probes=()) -> dict:
    return {
        "members": [
            {"embedding": embedding_to_json(emb), "point": point_to_json(pt)}
            for emb, pt in fam.members
        ],
        "morphisms": [
            {"src": m.src, "dst": m.dst, "map": list(m.index_map)} for m in fam.morphisms
        ],
        "probes": [vector_to_json(p) for p in probes],
    }
