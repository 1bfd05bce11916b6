"""No module under src/, tests/ or demos/ imports a name it never uses.

A stdlib `ast` scan: a name an import binds is used when it appears as a
name anywhere in the module (attribute chains start from one) or is listed
in the module's `__all__`, which is how a package re-exports what it
imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py"))


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
