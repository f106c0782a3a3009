import json

import pytest

from realtrop import KV
from realtrop.cli import main
from realtrop.jsonio import flag_from_json, flag_to_json, gp_from_json

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
