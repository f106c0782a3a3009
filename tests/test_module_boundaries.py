"""No realtrop module imports an underscore-prefixed name from another:
what one module shares with another is part of its public surface.  Only
``puiseux`` reads the integer fields of a series; every other module goes
through its public surface."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "realtrop"


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "realtrop"
        if internal:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


SERIES_FIELDS = {"_ints", "_cden", "_qden"}


def series_field_reads(path: Path) -> list[str]:
    reads = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in SERIES_FIELDS
    ]
    reads.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{path.name}:{node.lineno} reads {node.attr}" for node in reads]


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_the_check_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .matroids import _bits, GroundSet\nfrom realtrop.puiseux import _x\n")
    assert private_imports(probe) == ["probe.py:1 imports _bits", "probe.py:2 imports _x"]


def test_only_puiseux_reads_the_integer_form_of_a_series():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "puiseux.py"]
    assert len(modules) > 5
    assert series_field_reads(SRC / "puiseux.py")
    assert [hit for path in modules for hit in series_field_reads(path)] == []


def test_the_check_sees_series_field_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("n = f._ints[0][0]\nd = (f._cden, g._qden, f.terms, f._terms)\n")
    assert series_field_reads(probe) == [
        "probe.py:1 reads _ints", "probe.py:2 reads _cden", "probe.py:2 reads _qden"
    ]
