"""realtrop computes exactly: no float literal, no ``float(...)`` call and
no true division in the library, with no exception.  The valuation of
zero, ``INF``, is an object of its own, not a float; rationals divide as
Fractions built from ints, never with ``/``."""

import ast
from pathlib import Path

import realtrop

SRC = Path(__file__).resolve().parents[1] / "src" / "realtrop"


def inexact_forms(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append((node.lineno, "float literal"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float call"))
    return [f"{path.name}:{line} {form}" for line, form in sorted(found)]


def test_the_library_has_no_float_and_no_true_division():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in inexact_forms(path)] == []
    assert type(realtrop.INF) is not float


def test_the_check_sees_every_inexact_form(tmp_path):
    probe = tmp_path / "hyperfields.py"
    probe.write_text(
        "x = 0.5\n"
        "y = a / b\n"
        "y /= 2\n"
        "z = float(3)\n"
        'INF = float("inf")\n'
        "w = a // b\n"
    )
    assert inexact_forms(probe) == [
        "hyperfields.py:1 float literal",
        "hyperfields.py:2 true division",
        "hyperfields.py:3 true division",
        "hyperfields.py:4 float call",
        "hyperfields.py:5 float call",
    ]
