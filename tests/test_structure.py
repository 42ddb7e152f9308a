"""Structure of the installed package, read from its source.

The package holds no dead code: every private function, class or method,
and every method of a private class, is used somewhere in the package's
code, as a name or as an attribute.  A mention in a docstring or comment
does not count, nor does an import.
Every name a module-level import binds is read in its module or listed in
its ``__all__``.  Its module-level arrays are read-only."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gicbounds

PACKAGE = Path(gicbounds.__file__).parent


def private_definitions_and_uses(sources):
    """The (file, line, name) of every private def and class in the parsed
    ``sources``, dunders aside, and the set of names and attributes their
    code reads."""
    defined, used = [], set()
    for path, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_private_definition_is_used():
    sources = [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    defined, used = private_definitions_and_uses(sources)
    assert len(defined) > 40  # the walk found the package's private code
    assert [d for d in defined if d[2] not in used] == []
    assert unread_methods(sources) == []


def test_an_unused_private_function_is_found():
    source = '''
def _used():
    """Calls ``_unused`` only in its docstring."""

def _unused():
    pass

class _Model:
    def _method(self):
        return _used()

from .other import _imported
_Model()
'''
    defined, used = private_definitions_and_uses([(Path("m.py"), ast.parse(source))])
    assert [d[2] for d in defined if d[2] not in used] == ["_unused", "_method"]


def external_base_attributes(tree, base) -> set[str]:
    """The attribute names of ``base``, a class expression in the module
    ``tree``, where it names a class from outside the package, bound by a
    module-level absolute import; else the empty set."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name, (a.name, [])) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            bound.update((a.asname or a.name, (node.module, [a.name])) for a in node.names)
    head, *rest = ast.unparse(base).split(".")
    if head in bound:
        module, names = bound[head]
        obj = importlib.import_module(module)
        for name in names + rest:
            obj = getattr(obj, name)
        return set(dir(obj))
    return set()


def unread_methods(sources):
    """The (file, class, method) of every method of a private class in the
    parsed ``sources`` that their code never reads, as a name or as an
    attribute.  Dunders are exempt, and so are overrides of an attribute of
    a base class from outside the package, which that base's code calls."""
    _, used = private_definitions_and_uses(sources)
    unread = []
    for path, tree in sources:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and node.name.startswith("_")):
                continue
            inherited = set().union(*(external_base_attributes(tree, b) for b in node.bases))
            unread += [
                (path.name, node.name, item.name) for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.endswith("__") and item.name not in used | inherited
            ]
    return unread


def test_an_unread_method_is_found():
    source = '''
import argparse

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)

    def extra(self):
        pass

class _Model:
    def __call__(self):
        return self.read()

    def read(self):
        pass

    def unread(self):
        """Calls ``self.extra``."""
'''
    assert unread_methods([(Path("m.py"), ast.parse(source))]) == [
        ("m.py", "_Parser", "extra"), ("m.py", "_Model", "unread")
    ]


def unread_imports(sources):
    """The (file, name) of every name that a module-level import in the
    parsed ``sources`` binds, ``from __future__`` aside, and that its module
    neither reads nor lists in ``__all__``."""
    unread = []
    for path, tree in sources:
        bound, listed = [], set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                listed = set(ast.literal_eval(node.value))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [(path.name, name) for name in bound if name not in read | listed]
    return unread


def test_every_module_level_import_is_read():
    sources = [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    # The one exception: the module attribute that bench/tracing.py wraps.
    assert unread_imports(sources) == [("region.py", "optimize_constraint1")]


def test_an_unread_import_is_found():
    source = '''
from __future__ import annotations
import os.path
import sys
from .channel import f, g as h, k
__all__ = ["k"]

def use() -> f:
    return os.path.sep + h()
'''
    assert unread_imports([(Path("m.py"), ast.parse(source))]) == [("m.py", "sys")]


def package_imports(sources):
    """``{module: {(imported module, inside a function)}}`` of every
    relative import in the parsed ``sources``: ``from .x import ...`` and
    ``from . import x``, at module level and inside function bodies."""
    modules = {path.stem for path, _ in sources}
    graph = {}
    for path, tree in sources:
        edges = graph.setdefault(path.stem, set())
        scopes = [(tree, False)]
        while scopes:
            node, in_function = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                if isinstance(child, ast.ImportFrom) and child.level == 1:
                    targets = [child.module] if child.module else [a.name for a in child.names]
                    edges.update((t, inner) for t in targets if t in modules)
                scopes.append((child, inner))
    return graph


def import_cycle(graph):
    """One cycle of the import graph as a list of modules, or None."""
    state = {}

    def visit(module, path):
        state[module] = "open"
        for target in sorted({t for t, _ in graph.get(module, ())}):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state and (cycle := visit(target, path + [target])):
                return cycle
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state and (cycle := visit(module, [module])):
            return cycle
    return None


def test_package_imports_are_acyclic_and_layered():
    sources = [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    graph = package_imports(sources)
    # the walk found the package's imports, in both forms
    assert {t for t, _ in graph["cli"]} >= {"capacity", "channel", "genie", "region"}
    assert import_cycle(graph) is None
    assert {(m, t) for m, edges in graph.items() for t, inner in edges if inner} == set()
    # The closed-form layer stands on the channel models alone.
    assert {t for t, _ in graph["capacity"]} == {"channel"}


def module_level_imports(tree):
    """The modules that the top-level statements of a parsed module import,
    ``from __future__`` aside: absolute ones by name, relative ones as
    ``.name``."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.add("." * node.level + (node.module or ""))
    return imported


def test_two_user_core_runs_on_the_standard_library():
    # The closed forms need no numpy: only stdlib modules and ``.channel``.
    for name in ("channel.py", "capacity.py"):
        imported = module_level_imports(ast.parse((PACKAGE / name).read_text()))
        assert "math" in imported  # the walk found the module's imports
        assert {
            m for m in imported
            if m != ".channel" and m.split(".")[0] not in sys.stdlib_module_names
        } == set(), name


def test_commands_import_no_lazy_numpy_module(tmp_path):
    # numpy's set routines (np.unique and those built on it) import numpy.ma
    # on first use, about 100 ms and 1 MB a process.
    config = tmp_path / "three.json"
    config.write_text(json.dumps({"gains": [[1, 0.1, 0.2], [0.1, 1, 0.1], [0.2, 0.1, 1]],
                                  "powers": [1, 2, 3]}))
    channel = ["--a", "0.04", "--b", "0.09", "--p1", "10", "--p2", "20"]
    requests = [
        ["region", *channel, "--out", str(tmp_path / "region.csv")],
        ["sweep", "--a", "0.3", "--b", "0.3", "--p1", "7", "--p2", "7", "--param", "symmetric-a",
         "--from", "0.1", "--to", "0.5", "--points", "5", "--metric", "sum-upper"],
        ["murate", "--config", str(config), "--json"],
        ["classify", *channel],
    ]
    script = ("import contextlib, io, sys\nfrom gicbounds import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [cli.main(argv) for argv in {requests!r}]\n"
              "print(codes, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split() == ["[0,", "0,", "0,", "0]", "False"]


def listed_but_not_defined(tree):
    """The names of a parsed module's ``__all__`` that no top-level def,
    class or assignment of the module binds (an import does not count)."""
    defined, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                listed = ast.literal_eval(node.value)
            defined |= names
    return [name for name in listed if name not in defined]


def test_every_listed_name_is_defined_in_its_module():
    # Each public name has one home; only the package's __init__ re-exports.
    undefined = {
        path.name: listed_but_not_defined(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    }
    assert len(undefined) > 5  # the walk found the package's modules
    assert {name: names for name, names in undefined.items() if names} == {}


def test_a_listed_import_is_found():
    source = '''
from .channel import f
X: int = 1
__all__ = ["f", "g", "X", "Y"]

def g():
    pass
'''
    assert listed_but_not_defined(ast.parse(source)) == ["f", "Y"]
    assert module_level_imports(ast.parse("import os.path\nfrom . import b\n")) == {"os.path", "."}


def test_an_import_cycle_is_found():
    source = {
        "a": "from . import b\n",
        "b": "from .c import f\n",
        "c": "def f():\n    from .a import g\n",
        "d": "from .a import g\nfrom .channel import h\n",
    }
    graph = package_imports([(Path(f"{m}.py"), ast.parse(s)) for m, s in source.items()])
    assert graph["c"] == {("a", True)}
    assert graph["d"] == {("a", False)}  # channel is not among the parsed modules
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    del graph["c"]
    assert import_cycle(graph) is None


def test_module_arrays_are_read_only():
    # A module array is shared by every call, in every thread: one that a
    # call could write would break the package's promise of pure functions.
    # ``__main__`` runs the CLI when imported and holds no arrays.
    arrays = {
        f"{info.name}.{name}": value
        for info in pkgutil.iter_modules(gicbounds.__path__) if info.name != "__main__"
        for name, value in vars(importlib.import_module(f"gicbounds.{info.name}")).items()
        if isinstance(value, np.ndarray)
    }
    assert "genie._POLL" in arrays  # the walk found the package's arrays
    assert [name for name, array in arrays.items() if array.flags.writeable] == []


def callers(sources, function):
    """The (file, enclosing function) of every call of the dotted
    ``function``, such as ``math.log2``, in the parsed ``sources``; the
    enclosing function of a module-level call is None."""
    found = set()
    for path, tree in sources:
        scopes = [(tree, None)]
        while scopes:
            node, scope = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
                if is_call(child, function):
                    found.add((path.name, scope))
                scopes.append((child, inner))
    return found


def is_call(node, function) -> bool:
    """Whether the parsed ``node`` calls the dotted ``function``."""
    module, name = function.split(".")
    func = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Attribute) and func.attr == name
        and isinstance(func.value, ast.Name) and func.value.id == module
    )


def package_sources():
    return [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def test_no_math_log2_call():
    # Every scalar rate goes through channel._rate, in log1p.
    assert callers(package_sources(), "math.log2") == set()


def test_numpy_log2_only_in_the_mu_objective():
    assert callers(package_sources(), "np.log2") == {("genie.py", "_user_share")}
    # One log per share, with no identity test choosing its form: a point
    # of the MU objective costs two logs.
    (share,) = [
        node for node in ast.walk(ast.parse((PACKAGE / "genie.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_user_share"
    ]
    assert sum(is_call(node, "np.log2") for node in ast.walk(share)) == 1
    assert not any(isinstance(node, (ast.Is, ast.IsNot)) for node in ast.walk(share))


def test_dispatched_numpy_transcendentals_only_at_their_known_sources():
    # numpy picks these kernels by CPU, so their bits can differ between
    # machines: each stays at the one source that ROADMAP item 18 lists.
    sources = package_sources()
    assert callers(sources, "np.log") == {("multiuser.py", "barrier")}
    assert callers(sources, "np.exp") == {("genie.py", "_middle")}
    assert callers(sources, "np.exp2") == {("region.py", "build_outer_region")}
    # the sweep's log grid: np.geomspace's own ufunc calls
    assert callers(sources, "np.log10") == {("config.py", "_grid")}
    assert callers(sources, "np.power") == {("config.py", "_grid")}


def test_log1p_only_in_the_rate():
    assert callers(package_sources(), "math.log1p") == {("channel.py", "_rate")}


def test_a_call_is_found_in_its_function():
    source = '''
import math
X = math.log2(3.0)

class Model:
    def rate(self, x):
        """math.log2(1 + x), in words only."""
        return [math.log2(y) for y in x] + [math.log(x)]

def outer(x):
    def inner():
        return math.log2(x)
    return log2(x) + np.log2(x)
'''
    sources = [(Path("m.py"), ast.parse(source))]
    assert callers(sources, "math.log2") == {("m.py", None), ("m.py", "rate"), ("m.py", "inner")}
    assert callers(sources, "np.log2") == {("m.py", "outer")}


def third_party_imports(sources, local):
    """The top-level names of the absolute imports anywhere in the parsed
    ``sources`` that are neither standard library modules nor in ``local``."""
    names = set()
    for _, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names} - set(local)


def test_every_test_import_is_a_declared_dependency():
    # ``pip install .[test]`` brings everything the suites import.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    extras = tomllib.loads((root / "pyproject.toml").read_text())["project"]["optional-dependencies"]
    declared = {re.match(r"[\w.-]+", req).group().lower() for req in extras["test"]}
    files = sorted((root / "tests").glob("*.py")) + sorted((root / "bench" / "tests").glob("*.py"))
    local = {"gicbounds", "bench"} | {path.stem for path in files}
    imported = third_party_imports([(path, ast.parse(path.read_text())) for path in files], local)
    assert {"mpmath", "numpy", "scipy"} <= imported  # the walk found the suites' imports
    assert imported - {"numpy"} - declared == set()


def test_a_third_party_import_is_found():
    source = '''
import os.path, numpy as np
from . import sibling
from scipy.optimize import minimize
import helpers

def f():
    import mpmath
'''
    sources = [(Path("m.py"), ast.parse(source))]
    assert third_party_imports(sources, {"helpers"}) == {"numpy", "scipy", "mpmath"}

