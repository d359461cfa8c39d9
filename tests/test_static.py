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


def function_scope_imports(source: str):
    """(line, function name) of every import made inside a function."""
    tree = ast.parse(source)
    return [(node.lineno, scope.name) for scope, node in _imports_by_scope(tree, tree, [])
            if scope is not tree]


def test_checker_sees_function_scope_imports():
    assert function_scope_imports("import os\ndef f():\n    import math\n") == [(3, "f")]


def test_cli_imports_at_module_level():
    # the package __init__ loads numpy and the library before any command
    # runs, so a call-time import in cli.py would delay nothing
    assert function_scope_imports((SRC / "cli.py").read_text()) == []


def scipy_imports(source: str):
    """(function name, or None at module level, module) of every scipy import."""
    tree = ast.parse(source)
    found = []
    for scope, node in _imports_by_scope(tree, tree, []):
        modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
        found += [(None if scope is tree else scope.name, module) for module in modules
                  if module and module.split(".")[0] == "scipy"]
    return found


def test_checker_sees_scipy_imports():
    assert scipy_imports("import scipy.linalg, os\ndef f():\n    from scipy import integrate\n"
                         "    from . import spectrum\n") == [(None, "scipy.linalg"), ("f", "scipy")]


def test_scipy_only_in_the_interior_mode_solve():
    # the frozen mode flow is closed-form numpy; only the interior DOP853
    # route needs scipy, and it imports it at call time
    found = [(path.name, scope, module) for path in sorted(SRC.glob("*.py"))
             for scope, module in scipy_imports(path.read_text())]
    assert found == [("spectrum.py", "integrate_mode_system", "scipy.integrate")]


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


def _reads(node, package_init=False):
    """Names that node reads: loaded Name ids, attribute names, imported
    names (not in the package __init__, whose imports only re-export) and
    "module.attr" strings, as the pair (module, attr)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and not package_init:
            found |= {alias.name for alias in sub.names}
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.count(".") == 1:
            found.add(tuple(sub.value.split(".")))
    return found


def unreferenced_exports(package, bench):
    """"module.name" for every __all__ name of a package module that no
    package module or bench file reads outside the name's own definition
    and the __all__ lists.  package maps module names ("__init__" for the
    package's own) to sources, bench maps bench file names to sources; a
    bench file may also name the export as the string "module.name", the
    form the tracer takes."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = []   # (module or None for bench, top-level node, names read)
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                reads.append((module, node, _reads(node, module == "__init__")))
    for source in bench.values():
        reads.append((None, None, _reads(ast.parse(source))))
    missing = []
    for module, tree in trees.items():
        for name in sorted(_exported(tree)):
            own = {id(node) for node in tree.body if getattr(node, "name", None) == name}
            if not any((name in names and id(node) not in own)
                       or (where is None and (module, name) in names)
                       for where, node, names in reads):
                missing.append(f"{module}.{name}")
    return missing


def test_checker_sees_exports_only_tests_use():
    package = {
        "__init__": "from .a import reexported\n__all__ = ['reexported']\n",
        "a": ("__all__ = ['used', 'only_tested', 'recursive', 'reexported', 'traced',\n"
              "           'local', 'K']\n"
              "K = 1\n"
              "def used(): pass\n"
              "def only_tested(): pass\n"
              "def recursive(): return recursive()\n"
              "def reexported(): pass\n"
              "def traced(): pass\n"
              "def local(): pass\n"
              "LOCAL = local\n"),
        "b": "from .a import used\n__all__ = []\n",
    }
    bench = {"tracing": "SPANS = ('a.traced', 'b.gone')\n"}
    # only_tested stands for a name whose callers are all tests, which the
    # checker does not read; reexported is read by no module but __init__
    assert unreferenced_exports(package, bench) == ["__init__.reexported", "a.K",
                                                    "a.only_tested", "a.recursive",
                                                    "a.reexported"]


def test_every_export_has_a_caller_in_src_or_bench():
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = {path.stem: path.read_text()
             for path in sorted((SRC.parents[1] / "bench").glob("*.py"))}
    assert unreferenced_exports(package, bench) == []
