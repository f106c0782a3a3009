import json
import re
from fractions import Fraction

import pytest

from realtrop import (
    INF,
    KV,
    RT,
    RT_ZERO,
    TV,
    EnumerationCapError,
    cocircuits_from_gp,
    covector_closure,
    gp_from_matrix,
    ground_from_matrix,
)
from realtrop.cli import main
from realtrop.hyperfields import KV_ONE, KV_ZERO, TV_ZERO, field_of
from realtrop.jsonio import (
    family_from_json,
    flag_to_json,
    gp_from_json,
    int_from_json,
    matrix_from_json,
    parse_point_literal,
    point_from_json,
    poset_to_json,
    seminorm_from_json,
    val_from_json,
    value_from_json,
    value_to_json,
    vector_from_json,
)

from helpers import flag_from_json, poset_from_json

FLAG = {
    "kernel": [],
    "steps": [
        {"vector": ["1", "0"], "weight": "1", "region": "+"},
        {"vector": ["0", "1"], "weight": "0", "region": "-"},
    ],
}


def gp_blob(field, *values):
    return {
        "rank": 1,
        "ground": [0, 1],
        "hyperfield": field,
        "values": [{"tuple": [i], "value": v} for i, v in enumerate(values)],
    }


def test_sign_values_read_chars_and_unit_ints():
    gp = gp_from_json(gp_blob("S", "+", -1))
    assert gp.values == {(0,): 1, (1,): -1}


@pytest.mark.parametrize("value", [1.9, True, -1.2, 2, "p"])
def test_sign_values_reject_non_signs(value):
    with pytest.raises(ValueError, match="^bad sign "):
        gp_from_json(gp_blob("S", "+", value))


def test_krasner_values_read_the_ints_gp_to_json_writes():
    assert gp_from_json(gp_blob("K", 1, 0)).values == {(0,): KV(1), (1,): KV(0)}


@pytest.mark.parametrize("value", [0.5, True, "1", 2])
def test_krasner_values_reject_anything_else(value):
    with pytest.raises(ValueError, match="^bad Krasner value "):
        gp_from_json(gp_blob("K", 1, value))


def test_unknown_hyperfield_is_named():
    with pytest.raises(ValueError, match="^unknown hyperfield 'X'$"):
        gp_from_json(gp_blob("X", "+"))


def test_flag_regions_read_chars_and_unit_ints():
    flag = flag_from_json(FLAG)
    assert [s.region for s in flag.steps] == [1, -1]
    steps = [dict(FLAG["steps"][0], region=1), dict(FLAG["steps"][1], region=-1)]
    assert flag_to_json(flag_from_json({"kernel": [], "steps": steps})) == flag_to_json(flag)


@pytest.mark.parametrize("region", ["?", True, 1.0])
def test_flag_regions_reject_non_signs(region):
    steps = [dict(FLAG["steps"][0], region=region), FLAG["steps"][1]]
    with pytest.raises(ValueError, match="^bad sign "):
        flag_from_json({"kernel": [], "steps": steps})


@pytest.mark.parametrize("key", [[0, 5], [-1, 0]])
def test_gp_check_rejects_keys_outside_the_ground_set(capsys, key):
    blob = {"rank": 2, "ground": [0, 1, 2], "hyperfield": "S", "values": [{"tuple": key, "value": "+"}]}
    code = main(["gp-check", json.dumps(blob)])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": {"type": "ValueError", "message": f"value key {tuple(key)} is outside the ground set"}
    }


# -- integer fields are read exactly -------------------------------------------

NOT_INTS = [True, False, 1.0, 1.9, "1", None, [1]]


@pytest.mark.parametrize("given", NOT_INTS, ids=repr)
def test_int_reader_takes_exactly_an_int(given):
    assert int_from_json(-3, "rank") == -3
    with pytest.raises(ValueError, match=f"^rank must be an int, got {re.escape(repr(given))}$"):
        int_from_json(given, "rank")


@pytest.mark.parametrize("rank", [True, "2", 2.0])
def test_gp_rank_is_read_exactly(rank):
    # a truthy rank would run as rank 1, and "2" would fail inside a comparison
    with pytest.raises(ValueError, match=f"^rank must be an int, got {re.escape(repr(rank))}$"):
        gp_from_json(dict(gp_blob("S", "+", "-"), rank=rank))


@pytest.mark.parametrize("entry", [True, 0.0, "0"])
def test_gp_tuple_entries_are_read_exactly(entry):
    # a lenient reader would take [true] as element 1 and [0.0] as element 0
    blob = gp_blob("S", "+")
    blob["values"][0]["tuple"] = [entry]
    with pytest.raises(ValueError, match=f"^tuple entry must be an int, got {re.escape(repr(entry))}$"):
        gp_from_json(blob)


FAMILY = {
    "members": [
        {"embedding": [["1", "0"], ["0", "1"]], "point": "+:0,+:0"},
        {"embedding": [["0", "1"], ["1", "0"]], "point": "+:0,+:0"},
    ],
    "morphisms": [{"src": 0, "dst": 1, "map": [1, 0]}],
}


def test_family_indices_read_ints():
    fam, probes = family_from_json(FAMILY)
    assert [(m.src, m.dst, m.index_map) for m in fam.morphisms] == [(0, 1, (1, 0))]
    assert probes == []


@pytest.mark.parametrize("bad", [1.9, "1", True], ids=repr)
@pytest.mark.parametrize("key, name", [("src", "src"), ("dst", "dst"), ("map", "map entry")])
def test_family_indices_are_read_exactly(key, name, bad):
    # int() would read each of these as the index 1
    morphism = dict(FAMILY["morphisms"][0], **{key: [bad, 0] if key == "map" else bad})
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
        family_from_json(dict(FAMILY, morphisms=[morphism]))


@pytest.mark.parametrize("bad", [1.9, 1.0, "1", True], ids=repr)
def test_poset_cover_indices_are_read_exactly(bad):
    gp = gp_from_matrix(ground_from_matrix([[1, 0, 1], [0, 1, 1]]), target="S")
    obj = poset_to_json(covector_closure(cocircuits_from_gp(gp)))
    covers = [list(c) for c in obj["covers"]]
    i, j = next((i, j) for i, c in enumerate(covers) for j, x in enumerate(c) if x == 1)
    covers[i][j] = bad  # int() would read each of these as the index 1
    with pytest.raises(ValueError, match=f"^cover index must be an int, got {re.escape(repr(bad))}$"):
        poset_from_json(dict(obj, covers=covers))


# -- the one codec for signs, valuations and elements ------------------------

ELEMENTS = (
    [RT_ZERO] + [RT(s, v) for s in (1, -1) for v in (0, Fraction(-1, 2), 3)]
    + [TV_ZERO] + [TV(v) for v in (0, Fraction(7, 3), -2)]
    + [0, 1, -1]
    + [KV_ZERO, KV_ONE]
)


@pytest.mark.parametrize("x", ELEMENTS, ids=repr)
def test_every_element_round_trips(x):
    assert value_from_json(value_to_json(x), field_of(x)) == x


def test_each_field_writes_its_own_form():
    assert value_to_json(RT(-1, Fraction(1, 2))) == {"sign": "-", "val": "1/2"}
    assert value_to_json(RT_ZERO) == {"sign": "0", "val": "inf"}
    assert [value_to_json(x) for x in (TV(Fraction(7, 3)), TV_ZERO)] == ["7/3", "inf"]
    assert [value_to_json(x) for x in (1, 0, -1)] == ["+", "0", "-"]
    assert [value_to_json(x) for x in (KV_ONE, KV_ZERO)] == [1, 0]


@pytest.mark.parametrize(
    "given, expected",
    [("1/2", Fraction(1, 2)), (" inf", INF), (3, Fraction(3)), (-2, Fraction(-2))],
    ids=lambda v: "inf" if v is INF else None,
)
def test_valuations_read_strings_and_exact_ints(given, expected):
    assert val_from_json(given) == expected


@pytest.mark.parametrize("given", [True, False, 1.5, 2.0, None, [1]])
def test_valuations_reject_everything_else(given):
    with pytest.raises(ValueError, match=f"^bad valuation {re.escape(repr(given))}$"):
        val_from_json(given)


@pytest.mark.parametrize("given", ["1.5", "1e3", "1_000", "1/0"])
def test_valuation_strings_outside_the_grammar_are_rejected(given):
    with pytest.raises(ValueError, match=f"^bad valuation {re.escape(repr(given))}$"):
        val_from_json(given)


def test_vectors_read_lists_and_comma_separated_literals():
    assert vector_from_json("1,t,-1+t^(1/2)") == vector_from_json(["1", "t", "-1+t^(1/2)"])
    assert parse_point_literal("1,t") == vector_from_json("1,t")
    for given in ("1,t^", ["1", "t^"]):
        with pytest.raises(ValueError, match=r"^vector\[1\]: expected an integer \(at position 2\)$"):
            vector_from_json(given)
    with pytest.raises(ValueError, match=r"^vector\[0\]: cannot interpret None as a Puiseux series$"):
        vector_from_json([None])


@pytest.mark.parametrize("text, bad", [("+:1.5,-:0", "1.5"), ("+:0,-:1/0,+:2", "1/0"), ("-:1e3", "1e3")])
def test_point_literals_reject_valuations_outside_the_grammar(text, bad):
    with pytest.raises(ValueError, match=f"^bad valuation {re.escape(repr(bad))}$"):
        parse_point_literal(text)


def test_point_literals_default_bare_signs():
    coords = point_from_json("+,-:1/2,-,0,0:").coords
    assert coords == (RT(1, 0), RT(-1, Fraction(1, 2)), RT(-1, 0), RT_ZERO, RT_ZERO)


@pytest.mark.parametrize("value", [True, 1.5])
@pytest.mark.parametrize("slot", ["kernel", "step"])
def test_flag_vectors_reject_bools_and_floats(slot, value):
    if slot == "kernel":
        blob = dict(FLAG, kernel=[[value, "1"]])
    else:
        blob = dict(FLAG, steps=[dict(FLAG["steps"][0], vector=[value, 1]), FLAG["steps"][1]])
    with pytest.raises(ValueError, match=f"^bad rational coordinate {value!r}$"):
        flag_from_json(blob)


@pytest.mark.parametrize("text", ["1.5", "1e3", "1_0", "1/0", "1/2/3", "inf"])
@pytest.mark.parametrize("slot", ["kernel", "step"])
def test_flag_vectors_reject_strings_outside_the_grammar(slot, text):
    if slot == "kernel":
        blob = dict(FLAG, kernel=[["1", text]])
    else:
        blob = dict(FLAG, steps=[dict(FLAG["steps"][0], vector=[text, 1]), FLAG["steps"][1]])
    with pytest.raises(ValueError, match=f"^bad rational {re.escape(repr(text))}$"):
        flag_from_json(blob)


def test_gp_tuples_are_counted_against_the_cap_before_any_value():
    blob = {"rank": 6, "ground": list(range(26)), "hyperfield": "S", "values": "not read"}
    with pytest.raises(EnumerationCapError) as info:
        gp_from_json(blob, cap=10)
    assert (info.value.required, info.value.cap, info.value.stage) == (
        230230, 10, "tuple enumeration"
    )
    small = {"rank": 1, "ground": [0, 1], "hyperfield": "S",
             "values": [{"tuple": [0], "value": "+"}]}
    assert gp_from_json(small, cap=2).values == {(0,): 1, (1,): 0}
    with pytest.raises(EnumerationCapError):
        gp_from_json(small, cap=1)


def test_flag_vectors_read_ints_and_rational_strings():
    steps = [dict(FLAG["steps"][0], vector=[1, "-3/2"]), FLAG["steps"][1]]
    assert flag_from_json(dict(FLAG, steps=steps)).steps[0].vector == (1, Fraction(-3, 2))


ZERO_SIGN_FINITE = "sign 0 must pair with valuation inf, and conversely"
LEAF = {"kind": "leaf", "basis": [["1", "0"], ["0", "1"]], "c": ["0", "1"]}
VALUATION_ENTRY_POINTS = {
    "rt-dict": lambda v: value_from_json({"sign": "+", "val": v}, "RT"),
    "rt-pair": lambda v: value_from_json(["-", v], "RT"),
    "point-coords": lambda v: point_from_json([{"sign": "+", "val": "0"}, ["+", v]]),
    "gp-T-value": lambda v: gp_from_json(gp_blob("T", "0", v)),
    "seminorm-c": lambda v: seminorm_from_json(dict(LEAF, c=["0", v])),
    "flag-weight": lambda v: flag_from_json(
        {"kernel": [], "steps": [FLAG["steps"][0], dict(FLAG["steps"][1], weight=v)]}
    ),
}


@pytest.mark.parametrize("value", [True, 1.5])
@pytest.mark.parametrize("entry", VALUATION_ENTRY_POINTS)
def test_bool_and_float_valuations_are_rejected(entry, value):
    with pytest.raises(ValueError, match=f"^bad valuation {value!r}$"):
        VALUATION_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize(
    "decode",
    [
        lambda: value_from_json({"sign": "0", "val": "5"}, "RT"),
        lambda: value_from_json([0, "5"], "RT"),
        lambda: parse_point_literal("+:0,0:5"),
        lambda: point_from_json([["+", "0"], {"sign": "0", "val": "7"}]),
    ],
    ids=["rt-dict", "rt-pair", "point-literal", "point-coords"],
)
def test_sign_zero_with_a_finite_valuation_is_rejected(decode):
    with pytest.raises(ValueError, match=f"^{ZERO_SIGN_FINITE}$"):
        decode()


def test_member_rejects_sign_zero_with_a_finite_valuation(capsys):
    assert main(["member", "+:0,0:5", "[[1,0],[0,1]]"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {"type": "ValueError", "message": ZERO_SIGN_FINITE}}


# -- repeated Grassmann-Plucker input ------------------------------------------

REPEATED_TUPLE = dict(gp_blob("S", "+"), values=[{"tuple": [0], "value": "+"}, {"tuple": [0], "value": "-"}])
REPEATED_LABEL = dict(gp_blob("S", "+", "-"), ground=["a", "b", "a"])


def test_repeated_tuples_are_rejected():
    with pytest.raises(ValueError, match=r"^repeated tuple \(0,\)$"):
        gp_from_json(REPEATED_TUPLE)


def test_repeated_ground_labels_are_rejected():
    with pytest.raises(ValueError, match="^repeated ground label 'a'$"):
        gp_from_json(REPEATED_LABEL)


@pytest.mark.parametrize(
    "blob, message",
    [(REPEATED_TUPLE, "repeated tuple (0,)"), (REPEATED_LABEL, "repeated ground label 'a'")],
    ids=["tuple", "label"],
)
def test_gp_check_reports_repeated_input(capsys, blob, message):
    assert main(["gp-check", json.dumps(blob)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {"type": "ValueError", "message": message}}


# -- the shape of Grassmann-Plucker input ---------------------------------------

GP = gp_blob("S", "+", "-")
MALFORMED_GPS = {
    "no-hyperfield": ({k: v for k, v in GP.items() if k != "hyperfield"}, "gp: missing key 'hyperfield'"),
    "no-ground": ({k: v for k, v in GP.items() if k != "ground"}, "gp: missing key 'ground'"),
    "no-rank": ({k: v for k, v in GP.items() if k != "rank"}, "gp: missing key 'rank'"),
    "no-values": ({k: v for k, v in GP.items() if k != "values"}, "gp: missing key 'values'"),
    # a string ground would be read per character
    "ground-string": (dict(GP, ground="ab"), "gp.ground: expected a list, got 'ab'"),
    "values-object": (dict(GP, values={"0": "+"}), "gp.values: expected a list, got {'0': '+'}"),
    "value-pair": (dict(GP, values=[[[0], "+"]]), "gp.values[0]: expected an object, got [[0], '+']"),
    "tuple-int": (
        dict(GP, values=[{"tuple": 0, "value": "+"}]),
        "gp.values[0].tuple: expected a list, got 0",
    ),
    "no-value": (
        dict(GP, values=[GP["values"][0], {"tuple": [1]}]),
        "gp.values[1]: missing key 'value'",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_GPS)
def test_malformed_gp_is_a_value_error_naming_the_path(case, capsys):
    blob, message = MALFORMED_GPS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gp_from_json(blob)
    assert main(["gp-check", json.dumps(blob)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {"type": "ValueError", "message": message}}


def test_gp_reader_expects_an_object():
    with pytest.raises(ValueError, match=r"^gp: expected an object, got \['S'\]$"):
        gp_from_json(["S"])


# -- the shape of seminorm input ------------------------------------------------

MALFORMED_SEMINORMS = {
    "string": ("abc", "seminorm: expected an object, got 'abc'"),
    "list": ([1], "seminorm: expected an object, got [1]"),
    "leaf-without-c": ({"kind": "leaf", "basis": LEAF["basis"]}, "seminorm: missing key 'c'"),
    "compose-without-right": ({"kind": "compose", "left": LEAF}, "seminorm: missing key 'right'"),
    "c-false": (dict(LEAF, c=False), "seminorm.c: expected a list, got False"),
    "basis-string": (dict(LEAF, basis="ab"), "seminorm.basis: expected a list, got 'ab'"),
}


@pytest.mark.parametrize("case", MALFORMED_SEMINORMS)
def test_malformed_seminorm_is_a_value_error_naming_the_path(case, capsys):
    blob, message = MALFORMED_SEMINORMS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        seminorm_from_json(blob)
    argument = blob if isinstance(blob, str) else json.dumps(blob)
    assert main(["seminorm", "eval", argument, "0,1"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {"type": "ValueError", "message": message}}


def test_seminorm_paths_reach_into_compositions():
    inner = {"kind": "compose", "left": LEAF, "right": dict(LEAF, basis=[["1", "0"], "01"])}
    with pytest.raises(ValueError, match=r"^seminorm\.right\.right\.basis\[1\]: expected a list, got '01'$"):
        seminorm_from_json({"kind": "compose", "left": LEAF, "right": inner})


# -- the shape of values, points and families -------------------------------------

MALFORMED_INPUTS = {
    "gp-value-without-val": (
        gp_from_json, ["gp-check"], gp_blob("RT", {"sign": "+", "val": "0"}, {"sign": "+"}),
        "gp.values[1].value: missing key 'val'",
    ),
    "point-coord-without-sign": (
        point_from_json, ["tropicalize"], {"coords": [{"val": "0"}]},
        "point.coords[0]: missing key 'sign'",
    ),
    "point-coords-int": (
        point_from_json, ["tropicalize"], {"coords": 5}, "point.coords: expected a list, got 5",
    ),
    "point-without-coords": (
        point_from_json, ["tropicalize"], {"coord": []}, "point: missing key 'coords'",
    ),
    "family-members-string": (
        family_from_json, ["limit", "check"], dict(FAMILY, members="ab"),
        "family.members: expected a list, got 'ab'",
    ),
    "family-member-without-point": (
        family_from_json, ["limit", "check"],
        dict(FAMILY, members=[{"embedding": FAMILY["members"][0]["embedding"]}]),
        "family.members[0]: missing key 'point'",
    ),
    "family-member-coord-without-val": (
        family_from_json, ["limit", "check"],
        dict(FAMILY, members=[dict(FAMILY["members"][0], point=[{"sign": "+"}, ["+", "0"]])]),
        "family.members[0].point[0]: missing key 'val'",
    ),
    "family-morphism-without-dst": (
        family_from_json, ["limit", "check"],
        dict(FAMILY, morphisms=[{"src": 0, "map": [1, 0]}]),
        "family.morphisms[0]: missing key 'dst'",
    ),
    "family-morphism-map-string": (
        family_from_json, ["limit", "check"],
        dict(FAMILY, morphisms=[{"src": 0, "dst": 1, "map": "10"}]),
        "family.morphisms[0].map: expected a list, got '10'",
    ),
    "family-list": (
        family_from_json, ["limit", "check"], [FAMILY], "family: expected an object, got [",
    ),
    "seminorm-basis-entry-bool": (
        seminorm_from_json, ["seminorm", "diagonalize"], dict(LEAF, basis=[[1, False], [0, 1]]),
        "seminorm.basis[0][1]: cannot interpret False as a Puiseux series",
    ),
    "matrix-entry-bool": (
        matrix_from_json, ["circuits"], [[1, 0, 1], [False, 1, 1]],
        "matrix[1][0]: cannot interpret False as a Puiseux series",
    ),
    "matrix-entry-bad-literal": (
        matrix_from_json, ["circuits"], [["1", "0", "1"], ["0", "1", "t^"]],
        "matrix[1][2]: expected an integer (at position 2)",
    ),
    "family-embedding-entry-bool": (
        family_from_json, ["limit", "check"],
        dict(FAMILY, members=[dict(FAMILY["members"][0], embedding=[["1", True], ["0", "1"]])]),
        "family.members[0].embedding[0][1]: cannot interpret True as a Puiseux series",
    ),
    "family-embedding-flat": (
        family_from_json, ["limit", "check"],
        dict(FAMILY, members=[dict(FAMILY["members"][0], embedding=["1", "0"])]),
        "family.members[0].embedding: expected a row-major matrix as a list of lists",
    ),
    "family-probe-int": (
        family_from_json, ["limit", "check"], dict(FAMILY, probes=[5]),
        "family.probes[0]: expected a vector as a list of literals",
    ),
    "family-probe-entry-bad-literal": (
        family_from_json, ["limit", "check"], dict(FAMILY, probes=[["1", "0"], ["1/0", "1"]]),
        "family.probes[1][0]: zero denominator (at position 3)",
    ),
    "seminorm-nested-basis-entry-zero-denominator": (
        seminorm_from_json, ["seminorm", "diagonalize"],
        {"kind": "compose", "left": LEAF, "right": dict(LEAF, basis=[["1", "0"], ["0", "1/0"]])},
        "seminorm.right.basis[1][1]: zero denominator (at position 3)",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_is_a_value_error_naming_the_path(case, capsys):
    # in-process and through the command line, the same message
    read, command, blob, message = MALFORMED_INPUTS[case]
    with pytest.raises(ValueError) as info:
        read(blob)
    assert str(info.value).startswith(message)
    assert main([*command, json.dumps(blob)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValueError" and error["message"] == str(info.value)
