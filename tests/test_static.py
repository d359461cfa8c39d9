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


def module_bindings(tree):
    """Names that a module-level def, class, assignment or import binds."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)}
    return bound


def unbound_exports(source: str):
    """Names in __all__ that no module-level def, class, assignment or
    import binds."""
    tree = ast.parse(source)
    return sorted(_exported(tree) - module_bindings(tree))


def test_checker_sees_unbound_exports():
    source = ("import os\n"
              "from json import dumps as d\n"
              "__all__ = ['f', 'C', 'K', 'a', 'b', 'd', 'os', 'gone', 'inner']\n"
              "K: int = 1\n"
              "a, b = 1, 2\n"
              "def f():\n"
              "    inner = 1\n"
              "    return inner\n"
              "class C:\n"
              "    pass\n")
    assert unbound_exports(source) == ["gone", "inner"]


def test_every_export_is_bound():
    found = [f"{path.name}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for name in unbound_exports(path.read_text())]
    assert found == []


TRACED_TUPLES = ("SPANS", "COUNTED", "KERNELS")


def untraceable(tracing_source: str, module_source):
    """The "module.attr" entries of the tracer's SPANS, COUNTED and KERNELS
    tuples that the named package module does not bind at module level;
    module_source maps a module name to its source, or None if it has no
    file.  The tracer's install() fails on such a name."""
    names = []
    for node in ast.parse(tracing_source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in TRACED_TUPLES for t in node.targets):
            names += ast.literal_eval(node.value)
    missing = []
    for qual in names:
        module, attr = qual.split(".")
        source = module_source(module)
        if source is None or attr not in module_bindings(ast.parse(source)):
            missing.append(qual)
    return missing


def test_checker_sees_untraceable_names():
    tracing = ("SPANS = ('a.f', 'a.gone', 'b.g')\n"
               "COUNTED = ('a.K',)\n"
               "KERNELS = ('c.h',)\n"
               "OTHER = ('a.other',)\n")
    modules = {"a": "K = 1\ndef f():\n    gone = 1\n", "b": "from x import g\n"}
    assert untraceable(tracing, modules.get) == ["a.gone", "c.h"]


def test_traced_names_are_bound():
    tracing = (SRC.parents[1] / "bench" / "tracing.py").read_text()

    def module_source(module):
        path = SRC / f"{module}.py"
        return path.read_text() if path.exists() else None

    assert untraceable(tracing, module_source) == []
