"""No module under src/, tests/ or demos/ imports a name it never uses, and
no module-level function of src/movingdom is left without a reference.

A stdlib `ast` scan: a name an import binds is used when it appears as a
name anywhere in the module (attribute chains start from one) or is listed
in the module's `__all__`, which is how a package re-exports what it
imports.  A function is referenced when its name appears anywhere under
src/, tests/, perfbench/ or demos/ as a name, an attribute, an imported
name or an identifier in a string constant, split at dots, which is how
`__all__` and the benchmark tracer's targets ("solver._advance") name it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py"))
REFERRERS = sorted(p for top in ("src", "tests", "perfbench", "demos")
                   for p in (ROOT / top).rglob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_the_scan_sees_an_unused_import_and_its_uses():
    source = ("import os\nimport sys.path\nfrom math import pi, tau as full\n"
              "from . import kept\n__all__ = ['kept']\nprint(sys.argv, full)\n")
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def references(source):
    """Every name the module mentions: names, attributes, imported names and
    the identifiers among the dot-separated parts of its strings."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(w for w in node.value.split(".") if w.isidentifier())
    return refs


def module_functions(source):
    """(line, name) of each function defined at the module's top level."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)]


def test_the_scan_sees_an_orphan_function_and_its_references():
    source = ("import a.b\nfrom c import d as e\n"
              "def kept(): pass\ndef traced(): pass\ndef orphan(): pass\n"
              "x = [kept, y.attr, 'mod.traced', 'see orphan here']\n")
    assert [name for _, name in module_functions(source)] == ["kept", "traced", "orphan"]
    assert {"a", "b", "d", "kept", "attr", "mod", "traced"} <= references(source)
    assert "orphan" not in references(source)


def test_every_module_function_is_referenced():
    used = set().union(*(references(p.read_text()) for p in REFERRERS))
    orphans = [f"{p.relative_to(ROOT)}:{line} {name}"
               for p in sorted((ROOT / "src" / "movingdom").rglob("*.py"))
               for line, name in module_functions(p.read_text()) if name not in used]
    assert orphans == []
