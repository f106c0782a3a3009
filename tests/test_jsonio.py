import json
import re
from fractions import Fraction

import pytest

from realtrop import INF, KV, RT, RT_ZERO, TV
from realtrop.cli import main
from realtrop.hyperfields import KV_ONE, KV_ZERO, TV_ZERO, field_of
from realtrop.jsonio import (
    flag_from_json,
    flag_to_json,
    gp_from_json,
    parse_point_literal,
    point_from_json,
    seminorm_from_json,
    val_from_json,
    value_from_json,
    value_to_json,
    vector_from_json,
)

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


@pytest.mark.parametrize("given, expected", [("1/2", Fraction(1, 2)), (" inf", INF), (3, Fraction(3)), (-2, Fraction(-2))])
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
