"""Static checks of the package source, by the standard library's ast."""

import ast
import pathlib
import re
import sys

import pytest

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
    # every command runs library code, so a call-time import in cli.py
    # would only move an import that each run makes anyway
    assert function_scope_imports((SRC / "cli.py").read_text()) == []


def third_party_imports(source: str):
    """Top-level module of every absolute import, at module or function
    scope, of a module outside the standard library."""
    tree = ast.parse(source)
    found = []
    for _, node in _imports_by_scope(tree, tree, []):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.level == 0 else []
        else:
            modules = [alias.name for alias in node.names]
        found += [top for top in (module.split(".")[0] for module in modules)
                  if top not in sys.stdlib_module_names]
    return found


def test_checker_sees_scipy_imports():
    assert third_party_imports("from __future__ import annotations\n"
                               "import scipy.linalg, os\ndef f():\n"
                               "    from scipy import integrate\n"
                               "    from . import spectrum\n"
                               "    from .neck import t_to_s\n") == ["scipy", "scipy"]


def test_src_imports_only_declared_dependencies():
    # every third-party module that src/ imports, at any scope, is one that
    # installing the package brings; the test extra (scipy, sympy) is not
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]} | {project["name"]}
    found = [f"{path.name}: {module}" for path in sorted(SRC.glob("*.py"))
             for module in third_party_imports(path.read_text()) if module not in declared]
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


def _reads(node, package_init=False):
    """Names that node reads: loaded Name ids, attribute names, imported
    names (not in the package __init__, whose imports only re-export),
    "module.attr" strings as the pair (module, attr), and names read through
    the package (`neckglue.NAME`, `from neckglue import NAME` or, inside it,
    `from . import NAME`) as the string "neckglue.NAME"."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
            if isinstance(sub.value, ast.Name) and sub.value.id == "neckglue":
                found.add(f"neckglue.{sub.attr}")
        elif isinstance(sub, ast.ImportFrom) and not package_init:
            found |= {alias.name for alias in sub.names}
            if (sub.level, sub.module) in ((0, "neckglue"), (1, None)):
                found |= {f"neckglue.{alias.name}" for alias in sub.names}
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
    form the tracer takes.  A name of the package's own __all__ is read only
    through the package: a bare read of the same name is the module's."""
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
            if module == "__init__":
                read = any(f"neckglue.{name}" in names for _, _, names in reads)
            else:
                read = any((name in names and id(node) not in own)
                           or (where is None and (module, name) in names)
                           for where, node, names in reads)
            if not read:
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


def test_checker_reads_package_names_only_through_the_package():
    names = "'by_attr', 'by_import', 'by_relative', 'bare'"
    package = {
        "__init__": f"from .a import by_attr, by_import, by_relative, bare\n__all__ = [{names}]\n",
        "a": f"__all__ = [{names}]\n" + "".join(
            f"def {name}(): pass\n" for name in ("by_attr", "by_import", "by_relative", "bare")),
        "b": ("from . import by_relative\n"
              "from .a import bare\n"
              "__all__ = []\n"
              "def f():\n"
              "    return by_relative(), bare()\n"),
    }
    bench = {"run": ("import neckglue\n"
                     "from neckglue import by_import\n"
                     "neckglue.by_attr(), by_import()\n")}
    # b reads a's bare, not the package's: the re-export is unread
    assert unreferenced_exports(package, bench) == ["__init__.bare"]


def test_every_export_has_a_caller_in_src_or_bench():
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = {path.stem: path.read_text()
             for path in sorted((SRC.parents[1] / "bench").glob("*.py"))}
    assert unreferenced_exports(package, bench) == []


def _constants(tree):
    """(name, node) of every module-level UPPER_CASE assignment target."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.isupper():
                    yield name.id, node


def unread_constants(package, bench):
    """"module.NAME" for every module-level UPPER_CASE constant of a package
    module that no package module or bench file reads outside its own
    assignment; package and bench map names to sources, as for
    unreferenced_exports."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = [(node, _reads(node, module == "__init__")) for module, tree in trees.items()
             for node in tree.body]
    reads += [(None, _reads(ast.parse(source))) for source in bench.values()]
    missing = []
    for module, tree in trees.items():
        for name, own in _constants(tree):
            if not any(node is not own and (name in names or (module, name) in names)
                       for node, names in reads):
                missing.append(f"{module}.{name}")
    return missing


def test_checker_sees_unread_constants():
    package = {
        "__init__": "from .a import REEXPORTED\n",
        "a": ("USED = 1\n"
              "_PRIVATE: int = 2\n"
              "LEFT, ALSO_LEFT = 3, 4\n"
              "SELF = 5\n"
              "REEXPORTED = 6\n"
              "IMPORTED = 7\n"
              "TRACED = 8\n"
              "lower = 9\n"
              "def f():\n"
              "    return USED + _PRIVATE\n"),
        "b": "from .a import IMPORTED\nSELF_REF = SELF_REF if False else 1\n",
    }
    bench = {"tracing": "COUNTED = ('a.TRACED',)\n"}
    # a re-export from the package __init__ is not a read; a constant whose
    # only reader is its own assignment is unread
    assert unread_constants(package, bench) == ["a.LEFT", "a.ALSO_LEFT", "a.SELF",
                                                "a.REEXPORTED", "b.SELF_REF"]


def test_every_constant_is_read_in_src_or_bench():
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = {path.stem: path.read_text()
             for path in sorted((SRC.parents[1] / "bench").glob("*.py"))}
    assert unread_constants(package, bench) == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def cross_module_private_reads(source: str):
    """(line, name) of every private name a module takes from another: one
    imported by `from x import _y`, or read as `x._y` on a name an import
    binds.  Dunders are exempt."""
    tree = ast.parse(source)
    imported, found = set(), []
    for _, node in _imports_by_scope(tree, tree, []):
        for alias in node.names:
            imported.add(alias.asname or alias.name.split(".")[0])
            if isinstance(node, ast.ImportFrom) and _private(alias.name):
                found.append((node.lineno, alias.name))
    found += [(sub.lineno, f"{sub.value.id}.{sub.attr}") for sub in ast.walk(tree)
              if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in imported and _private(sub.attr)]
    return sorted(found)


def test_checker_sees_cross_module_private_reads():
    source = ("import os as _os\n"
              "import numpy as np\n"
              "from . import green, __version__, _PRIVATE\n"
              "from .geometry import _metric_inverse, sphere_chart\n"
              "_LOCAL = 1\n"
              "class C:\n"
              "    _own = 2\n"
              "    def f(self):\n"
              "        return (self._own, _LOCAL, _os.sep, green.__name__,\n"
              "                green._CHUNK, np._core)\n")
    assert cross_module_private_reads(source) == [(3, "_PRIVATE"), (4, "_metric_inverse"),
                                                  (10, "green._CHUNK"), (10, "np._core")]


def test_no_cross_module_private_reads():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in cross_module_private_reads(path.read_text())]
    assert found == []


def unexported_imports(package):
    """"importer: module.name" for every name a package module imports from
    another (`from .module import name`, or `from . import name` from the
    package __init__) that the other's __all__ does not list.  package maps
    module names ("__init__" for the package's own) to sources.  A name that
    is itself a package module is exempt, and so are dunders (module data
    such as __version__, which no __all__ lists) and UPPER_CASE constants,
    which test_every_constant_is_read_in_src_or_bench covers."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    missing = []
    for importer, tree in trees.items():
        for _, node in _imports_by_scope(tree, tree, []):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            module = node.module or "__init__"
            exported = _exported(trees[module]) if module in trees else set()
            missing += [f"{importer}: {module}.{alias.name}" for alias in node.names
                        if alias.name not in exported and not alias.name.isupper()
                        and not (alias.name.startswith("__") and alias.name.endswith("__"))
                        and not (node.module is None and alias.name in trees)]
    return missing


def test_checker_sees_unexported_imports():
    package = {
        "__init__": "from .a import f\n__version__ = '1'\n__all__ = ['f']\n",
        "a": ("__all__ = ['f']\n"
              "K = 1\n"
              "def f(): pass\n"
              "def g(): pass\n"),
        "b": ("import os\n"
              "from json import dumps\n"
              "from . import a, __version__, hidden\n"
              "from .a import K, f, g\n"
              "def h():\n"
              "    from .a import g as local\n"
              "    from .gone import x\n"),
    }
    assert unexported_imports(package) == ["b: __init__.hidden", "b: a.g", "b: a.g",
                                           "b: gone.x"]


def test_every_imported_name_is_exported():
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unexported_imports(package) == []


def _defaulted(tree):
    """(qualified name, call name, offset, positional names, defaulted
    names) of every function and method with a default.  A method's offset
    is 1, its self; a call of its class calls its __init__."""
    found = []

    def visit(node, prefix, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                offset = int(cls is not None and not static)
                call = cls if cls is not None and child.name == "__init__" else child.name
                if defaulted:
                    found.append((prefix + child.name, call, offset, positional, defaulted))
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return found


def _set_by(call, offset, positional, defaulted):
    """The defaulted parameters that one call sets: by keyword, by a
    positional argument at its place, or by unpacking (* sets every place
    from its own on, ** every parameter)."""
    if any(kw.arg is None for kw in call.keywords):
        return set(defaulted)
    names = {kw.arg for kw in call.keywords}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return names | set(positional[i + offset:])
        names |= set(positional[i + offset:i + offset + 1])
    return names


def unset_defaults(package, bench):
    """"module.function: parameter" for every defaulted parameter of a
    package function or method that no call in a package module or bench
    file sets; package and bench map names to sources, as for
    unreferenced_exports.  Calls are matched by the callee's name."""
    calls = {}
    for source in list(package.values()) + list(bench.values()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    missing = []
    for module, source in package.items():
        for qual, name, offset, positional, defaulted in _defaulted(ast.parse(source)):
            unset = set(defaulted)
            for call in calls.get(name, []):
                unset -= _set_by(call, offset, positional, defaulted)
            missing += [f"{module}.{qual}: {param}" for param in defaulted if param in unset]
    return missing


def test_checker_sees_defaults_only_tests_set():
    package = {
        "a": ("def f(x, by_place=1, by_keyword=2, unset=3, *, kw_only=4):\n"
              "    return f(x, 0) + f(x, by_keyword=0)\n"
              "def g(x, starred=1, also=2): pass\n"
              "def h(x, spread=1, *, kw=2): pass\n"
              "def lone(x, never=1):\n"
              "    def inner(y, nested=1): pass\n"
              "    return inner(y=0)\n"
              "class C:\n"
              "    def __init__(self, by_class=None, not_by_self=None): pass\n"
              "    def m(self, by_method=1, unset=2): pass\n"
              "    @staticmethod\n"
              "    def s(by_static=1): pass\n"),
        "b": ("from .a import C, g, h\n"
              "C(1).m(2)\n"
              "C.s(3)\n"
              "g(*args)\n"
              "h(0, **options)\n"),
    }
    bench = {"run": "from neckglue.a import f\nf(0, kw_only=1)\n"}
    # C(1) sets by_class, not self; m(2) sets by_method, not self
    assert unset_defaults(package, bench) == [
        "a.f: unset", "a.lone: never", "a.lone.inner: nested", "a.C.__init__: not_by_self",
        "a.C.m: unset"]


def test_every_default_is_set_in_src_or_bench():
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = {path.stem: path.read_text()
             for path in sorted((SRC.parents[1] / "bench").glob("*.py"))}
    # the one exemption: tests plant beta != alpha in assemble to check that
    # the matching recovers delta beta, and iterating the matching step to
    # the gluing fixed point will assemble at (alpha, beta)
    assert unset_defaults(package, bench) == ["assembler.assemble: beta"]
