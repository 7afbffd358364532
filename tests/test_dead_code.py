"""Every top-level function and class of the package, and every method that
is not a dunder, has a caller outside its own body: code nothing calls gets
deleted, or moved next to the tests that use it.

A definition counts as called when its name is read (as a name or an
attribute) in package code outside its own body, or read or imported by
``demos/``, ``bench/`` or ``perfbench/``.  String constants count only in
``perfbench/tracing.py``, the one file that wraps functions by name; a dict
key elsewhere that spells a function's name calls nothing.  Being listed
in ``voganlab.__all__`` does not count: an export that nothing runs is dead
code too.  Matching is by name only, so two definitions that share a name
share their callers.

The references beside the tests (``tests/reference_*.py``) cannot rot
either: each of their definitions is read or imported by a
``tests/test_*.py`` module, or read by reference code outside its own
body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "voganlab"
TESTS = ROOT / "tests"
TRACER = ROOT / "perfbench" / "tracing.py"  # wraps package functions by name

# package definitions whose only callers are tests, each with the reason it
# stays; none, since such code moves to tests/reference_*.py or goes
ALLOWED: dict[str, str] = {}


def definitions(module: str, tree):
    """(module.qualname, name, node) of every top-level function and class
    and of every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def read_names(tree, *, imports=False, strings=False):
    """Names read in ``tree`` as (name, node) pairs; with ``imports`` the
    names imported from modules, with ``strings`` every string constant."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id, n
        elif isinstance(n, ast.Attribute):
            yield n.attr, n
        elif imports and isinstance(n, ast.ImportFrom):
            yield from ((alias.name, n) for alias in n.names)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value, n


def outside_callers() -> set[str]:
    """Every name read or imported by demos, bench and perfbench, and every
    string constant of the tracer."""
    names = set()
    for folder in ("demos", "bench", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text())
            strings = path == TRACER
            names |= {name for name, _ in read_names(tree, imports=True, strings=strings)}
    return names


def uncalled(paths, outside: set[str]) -> set[str]:
    """Definitions in ``paths`` whose name is neither in ``outside`` nor read
    in those files outside the definition's own body."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    reads: dict[str, list] = {}
    for tree in trees.values():
        for name, node in read_names(tree):
            reads.setdefault(name, []).append(node)
    found = set()
    for module, tree in trees.items():
        for qualname, name, node in definitions(module, tree):
            own = {id(n) for n in ast.walk(node)}
            if name in outside or any(id(n) not in own for n in reads.get(name, [])):
                continue
            found.add(qualname)
    return found


def test_every_definition_has_a_caller():
    assert uncalled(sorted(SRC.glob("*.py")), outside_callers()) == set(ALLOWED)


def test_every_reference_is_read_by_a_test():
    readers = set()
    for path in sorted(TESTS.glob("test_*.py")):
        readers |= {name for name, _ in read_names(ast.parse(path.read_text()), imports=True)}
    assert uncalled(sorted(TESTS.glob("reference_*.py")), readers) == set()
