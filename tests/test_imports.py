"""Every name a module of the package imports is used in that module, so a
deletion cannot leave a dead import behind.  A name counts as used when the
module reads it anywhere outside its import statements or lists it in
``__all__``."""

import ast
from pathlib import Path

import gevreylab

PACKAGE = Path(gevreylab.__file__).resolve().parent

# re-exported on purpose: callers look them up on these modules
EXEMPT = {
    ("cli", "solve_direct"),        # the benchmark harness reads cli's binding
    ("diffops", "falling_factorial"),
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used
                  and (path.stem, name) not in EXEMPT)


def test_every_imported_name_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    unused = {path.name: names for path in modules
              if (names := _unused_imports(path))}
    assert not unused


def test_the_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import json\nfrom math import lcm, prod\n"
                    "__all__ = ['lcm']\nx = prod([2])\n", encoding="utf-8")
    assert _unused_imports(path) == [(2, "json")]
