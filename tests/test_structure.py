"""Structure of the installed package, read from its source.

The package holds no dead code: every private function, class or method
is used somewhere in the package's code, as a name or as an attribute.  A
mention in a docstring or comment does not count, nor does an import.  Its
module-level arrays are read-only."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np

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
