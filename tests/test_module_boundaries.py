"""No realtrop module imports an underscore-prefixed name from another:
what one module shares with another is part of its public surface."""

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


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_the_check_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .matroids import _bits, GroundSet\nfrom realtrop.puiseux import _x\n")
    assert private_imports(probe) == ["probe.py:1 imports _bits", "probe.py:2 imports _x"]
