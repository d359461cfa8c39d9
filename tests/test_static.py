"""Static checks of the package source, by the standard library's ast."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "neckglue"


def _imports_by_scope(node, scope, out):
    """(scope, import node) pairs; the scope is the innermost enclosing
    function, or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            out.append((scope, child))
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        _imports_by_scope(child, inner, out)
    return out


def _exported(tree):
    """The names listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str):
    """(line, name) of every import binding that its scope never reads.
    Names in __all__ and `from __future__` imports count as used."""
    tree = ast.parse(source)
    exported = _exported(tree)
    unused = []
    for scope, node in _imports_by_scope(tree, tree, []):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        used = {name.id for name in ast.walk(scope) if isinstance(name, ast.Name)}
        if scope is tree:
            used |= exported
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append((node.lineno, bound))
    return unused


def test_checker_sees_module_level_and_local_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "def f():\n"
              "    import numpy as np\n"
              "    import math\n"
              "    return math.pi, os.sep\n"
              "def g():\n"
              "    return np\n")
    assert unused_imports(source) == [(2, "system"), (6, "np")]


def test_no_unused_imports():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
