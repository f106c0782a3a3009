import json
import subprocess
import sys
from pathlib import Path

import pytest

from realtrop import cli, jsonio
from realtrop.cli import main

U23 = "[[1,0,1],[0,1,1]]"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_circuits_example(capsys):
    code, out = run_cli(["circuits", U23], capsys)
    assert code == 0
    assert json.loads(out) == {"circuits": [[["+", "0"], ["+", "0"], ["-", "0"]]]}


def test_member_example(capsys):
    code, out = run_cli(["member", "+:0,+:0,-:0", U23], capsys)
    assert code == 0
    assert json.loads(out) == {"member": False}


def test_member_of_all_plus(capsys):
    code, out = run_cli(["member", "+:0,+:0,+:0", U23], capsys)
    assert json.loads(out) == {"member": True}


def test_tropicalize_zero_rejected(capsys):
    code, out = run_cli(["tropicalize", "0"], capsys)
    assert code == 1
    assert "error" in json.loads(out)


def test_circuits_rank_deficient_error(capsys):
    code, out = run_cli(["circuits", "[[1,2],[2,4]]"], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": {"type": "RankDeficientError", "message": "columns do not span"}
    }


def test_covector_closure_cap_error(capsys):
    code, out = run_cli(["--cap", "5", "covectors", U23], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": {
            "type": "EnumerationCapError",
            "message": "covector closure needs 8 steps, cap is 5",
            "required": 8,
            "cap": 5,
            "stage": "covector closure",
        }
    }


@pytest.mark.parametrize("cap, stage, required", [(3, "circuit enumeration", 4), (4, "minor enumeration", 6)])
def test_circuits_obey_the_cap(capsys, cap, stage, required):
    # four 3-subsets of columns, six 2 x 2 minors
    code, out = run_cli(["--cap", str(cap), "circuits", "[[1,0,1,2],[0,1,1,3]]"], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": {
            "type": "EnumerationCapError",
            "message": f"{stage} needs {required} steps, cap is {cap}",
            "required": required,
            "cap": cap,
            "stage": stage,
        }
    }
    code, out = run_cli(["--cap", "6", "circuits", "[[1,0,1,2],[0,1,1,3]]"], capsys)
    assert code == 0 and len(json.loads(out)["circuits"]) == 4


def test_valuation_outside_the_grammar_is_a_structured_error(capsys):
    code, out = run_cli(["member", "+:0,-:1/0,+:2", U23], capsys)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "ValueError", "message": "bad valuation '1/0'"}}


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["member"])
    assert exc.value.code == 2


def test_bool_matrix_entry_is_a_structured_error(capsys):
    code, out = run_cli(["circuits", "[[true, 0, 1], [0, 1, 1]]"], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": {"type": "TypeError", "message": "cannot interpret True as a Puiseux series"}
    }


def _run_exit(argv, capsys):
    """Exit code, stdout and stderr of ``main``, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["seminorm", "--help"], ["member"], ["seminorm", "eval", "x"], ["nosuch"]],
    ids=["help", "sub-help", "missing-argument", "input-count", "unknown-command"],
)
def test_parser_is_built_once_with_the_same_output(argv, capsys, monkeypatch):
    cli.build_parser.cache_clear()
    first = _run_exit(argv, capsys)
    second = _run_exit(argv, capsys)
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # a parser built afresh for the call prints the same bytes
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_exit(argv, capsys)
    assert first == second == fresh
    assert first[1] or first[2]


def test_deterministic_output(capsys):
    _, first = run_cli(["covectors", U23], capsys)
    _, second = run_cli(["covectors", U23], capsys)
    assert first == second


def test_gp_check_roundtrips_through_json(capsys):
    from realtrop import gp_from_matrix, ground_from_matrix

    gp = gp_from_matrix(ground_from_matrix([[1, 0, 1], [0, 1, 1]]))
    blob = json.dumps(jsonio.gp_to_json(gp))
    code, out = run_cli(["gp-check", blob], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True
    # decoding what we encoded reproduces the same function
    assert jsonio.gp_from_json(jsonio.gp_to_json(gp)).values == gp.values


def test_gp_check_accepts_matrix(capsys):
    code, out = run_cli(["gp-check", U23], capsys)
    assert json.loads(out)["ok"] is True


def test_covectors_output_parses_back(capsys):
    code, out = run_cli(["covectors", U23], capsys)
    payload = json.loads(out)
    poset = jsonio.poset_from_json(payload["poset"])
    assert len(poset) == 13
    assert payload["axioms"]["ok"] is True


def test_bergman_fan_output(capsys):
    code, out = run_cli(["bergman", U23], capsys)
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert len(payload["chains"]) == 24


def test_tropicalize_file_input(tmp_path, capsys):
    path = tmp_path / "pt.txt"
    path.write_text("1,-1+t,t")
    code, out = run_cli(["tropicalize", str(path)], capsys)
    payload = json.loads(out)
    assert payload["point"]["display"] == ["+1", "-1", "+e^{-1}"]


def test_valuation_display_convention(capsys):
    code, out = run_cli(["--convention", "val", "tropicalize", "1,-1+t,t"], capsys)
    payload = json.loads(out)
    assert payload["point"]["display"] == ["+:0", "-:0", "+:1"]


SEMINORM = json.dumps(
    {"kind": "leaf", "basis": [["1", "0"], ["0", "1"]], "c": ["0", "1"]}
)


def test_seminorm_eval(capsys):
    code, out = run_cli(["seminorm", "eval", SEMINORM, "0,-2"], capsys)
    assert json.loads(out)["value"] == {"sign": "-", "val": "1"}


def test_seminorm_compose_and_diagonalize_roundtrip(capsys):
    code, out = run_cli(["seminorm", "compose", SEMINORM, SEMINORM], capsys)
    composed = json.loads(out)["seminorm"]
    assert composed["kind"] == "compose"
    code, out = run_cli(["seminorm", "diagonalize", json.dumps(composed)], capsys)
    diag = json.loads(out)["seminorm"]
    assert diag["kind"] == "leaf"
    s1 = jsonio.seminorm_from_json(composed)
    s2 = jsonio.seminorm_from_json(diag)
    assert s2.value(("3", "-5")) == s1.value(("3", "-5"))


def test_seminorm_flags_and_phi(capsys):
    code, out = run_cli(["seminorm", "flags", SEMINORM], capsys)
    flag = json.loads(out)["flag"]
    parsed = jsonio.flag_from_json(flag)
    assert len(parsed.steps) == 2
    code, out = run_cli(["seminorm", "phi", SEMINORM], capsys)
    payload = json.loads(out)
    assert payload["abs_on_duals"] == ["0", "1"]
    assert payload["flag"] is not None


def test_seminorm_project(capsys):
    code, out = run_cli(["seminorm", "project", SEMINORM, U23], capsys)
    payload = json.loads(out)
    assert payload["point"]["coords"][0] == {"sign": "+", "val": "0"}


def test_limit_check(capsys):
    family = {
        "members": [
            {"embedding": [["1", "0"], ["0", "1"]], "point": "+:0,+:1"},
            {"embedding": [["0", "1"], ["1", "0"]], "point": "+:0,+:0"},
        ],
        "morphisms": [{"src": 0, "dst": 1, "map": [1, 0]}],
        "probes": [["1", "0"], ["0", "1"]],
    }
    code, out = run_cli(["limit", "check", json.dumps(family)], capsys)
    payload = json.loads(out)
    assert code == 1 or payload["ok"]  # morphism must validate
    # the recorded morphism swaps coordinates: point (+:0,+:1) maps to
    # (+:1,+:0), normalized (+:0,-...) -> mismatch, so expect an error
    assert code == 1


def test_limit_check_consistent_family(capsys):
    from realtrop import LinearEmbedding, family_from_seminorm, standard_leaf

    s = standard_leaf(2, (0, 1))
    e_id = LinearEmbedding.from_matrix([["1", "0"], ["0", "1"]])
    e_big = LinearEmbedding.from_matrix([["1", "0", "1"], ["0", "1", "1"]])
    fam = family_from_seminorm(s, [e_id, e_big])
    blob = jsonio.family_to_json(fam, probes=[("1", "0"), ("0", "1"), ("1", "1")])
    code, out = run_cli(["limit", "check", json.dumps(blob)], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["ok"]
    values = [row["value"] for row in payload["table"]]
    assert values == [
        {"sign": "+", "val": "0"},
        {"sign": "+", "val": "1"},
        {"sign": "+", "val": "0"},
    ]


def test_fixture_command(capsys):
    code, out = run_cli(["fixture", "nondiag", "t", "-1"], capsys)
    assert json.loads(out) == {"sign": "-"}


def test_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "realtrop.cli", "circuits", U23],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["circuits"]


BENCH_CLI = Path(__file__).resolve().parents[1] / "bench" / "cli"
GOLDEN_CASES = json.loads((BENCH_CLI / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_output_matches_the_golden_bytes(case, capsys):
    """Each checked-in CLI case prints exactly its golden output; "@name"
    arguments name files in the fixtures directory."""
    argv = [str(BENCH_CLI / "fixtures" / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    assert main(argv) == 0
    golden = (BENCH_CLI / "golden" / f"{case['name']}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
