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


def _unread_private(paths):
    """(module, line, name) of each private definition in ``paths`` that no
    module among them reads: a module-level function or class, or a method,
    whose name starts with one underscore.  A read is a Name, an Attribute
    or an imported name; one inside the definition itself (a recursive
    call) does not count."""
    defined, reads = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bodies = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        defined += [(path.stem, node) for body in bodies for node in body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((path.stem, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path.stem, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                reads += [(path.stem, node.lineno, alias.name)
                          for alias in node.names]
    return sorted(
        (module, node.lineno, node.name) for module, node in defined
        if not any(name == node.name and not (
            where == module and node.lineno <= line <= node.end_lineno)
            for where, line, name in reads))


def test_every_private_definition_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert not _unread_private(modules)


def test_the_guard_sees_an_unread_private_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n"
        "def _alone(n):\n    return _alone(n - 1) if n else 0\n"
        "class _Box:\n"
        "    def _read(self):\n        return self._read\n"
        "    def _kept(self):\n        return 2\n"
        "    def __len__(self):\n        return 0\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from a import _used, _Box\nx = _Box()._kept()\n", encoding="utf-8")
    assert _unread_private(sorted(tmp_path.glob("*.py"))) == [
        ("a", 3, "_alone"), ("a", 6, "_read")]
