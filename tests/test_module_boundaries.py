"""No realtrop module imports an underscore-prefixed name from another:
what one module shares with another is part of its public surface.  Only
``puiseux`` reads the integer fields of a series; every other module goes
through its public surface.  Every function, class and method in the
library is named by other library code or exported from ``realtrop``,
unless ``KEPT`` gives the reason it stays; code only tests use lives in
``tests/``."""

import ast
from collections import Counter
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


#: Defs that no library code names and ``realtrop`` does not export.
KEPT = {
    "linalg.inverse": "bench/tracer.py looks it up by name and counts its calls",
    "tropical.LinearEmbedding.apply": "bench/workloads.py maps its points with it",
    "seminorms.DiagonalSeminorm.normalized": "the homothety representative of a leaf, "
    "whose weights flag_of and phi_abs read without building it",
    "tropical.BergmanFan.maximal_cones": "the maximal cones of the real Bergman fan",
}


def _names(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unnamed_defs(src: Path) -> list[str]:
    """Module-level functions and classes, and the methods other than
    dunders, that no code of the package names outside their own body
    and that the package's ``__init__`` does not import, as
    ``module.Class.name``."""
    init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    named = sum((_names(tree) for tree in modules.values()), Counter())
    found = []
    for stem, tree in modules.items():
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                ]
        for qualname, node in defs:
            if named[node.name] == _names(node)[node.name] and node.name not in exported:
                found.append(f"{stem}.{qualname}")
    return sorted(found)


def test_every_def_is_named_by_the_library_exported_or_kept_for_a_reason():
    assert unnamed_defs(SRC) == sorted(KEPT)


def test_the_check_sees_defs_only_tests_could_use(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import exported\n")
    (tmp_path / "m.py").write_text(
        "def exported():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return K().method()\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def unused():\n"
        "    pass\n"
        "class K:\n"
        "    def method(self):\n"
        "        return self.other\n"
        "    @property\n"
        "    def other(self):\n"
        "        return 1\n"
        "    def alone(self):\n"
        "        return self\n"
        "    def __repr__(self):\n"
        "        return 'K'\n"
    )
    assert unnamed_defs(tmp_path) == ["m.K.alone", "m.recursive", "m.unused"]

