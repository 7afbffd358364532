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
share their callers.  The definitions that only ``perfbench/`` calls are
named in ``BENCHMARK_ONLY``, each with the file that reads it, so that the
change to the benchmark that drops those reads knows what it frees.

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

# package definitions whose only callers lie in perfbench/, each with the
# perfbench file that reads it.  perfbench/ changes only together with the
# benchmark, so these stay until that change drops the reads; then they go
# or move beside the tests.
BENCHMARK_ONLY: dict[str, str] = {
    "bridge.rationally_smooth": "perfbench/answers.py",
    "kl._kl_table": "perfbench/tracing.py",
    "kl.load_cache": "perfbench/worker.py",
    "kl.save_cache": "perfbench/worker.py",
    "linalg.nullspace": "perfbench/tracing.py",
    "report.report_json": "perfbench/worker.py",
}


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


def names_read_by(path: Path) -> set[str]:
    """Every name read or imported by the file, and for the tracer every
    string constant too."""
    tree = ast.parse(path.read_text())
    return {name for name, _ in read_names(tree, imports=True, strings=path == TRACER)}


def outside_callers(folders=("demos", "bench", "perfbench")) -> set[str]:
    """Every name read or imported by the files of ``folders``, and every
    string constant of the tracer."""
    names = set()
    for folder in folders:
        for path in sorted((ROOT / folder).glob("*.py")):
            names |= names_read_by(path)
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


def test_benchmark_only_definitions_are_named():
    # without perfbench as a caller, exactly these definitions lose their
    # last one, and each is read by the file named for it
    package = sorted(SRC.glob("*.py"))
    found = uncalled(package, outside_callers(("demos", "bench"))) - set(ALLOWED)
    assert found == set(BENCHMARK_ONLY)
    for qualname, reader in BENCHMARK_ONLY.items():
        assert qualname.rsplit(".", 1)[1] in names_read_by(ROOT / reader), qualname


def test_every_reference_is_read_by_a_test():
    readers = set()
    for path in sorted(TESTS.glob("test_*.py")):
        readers |= {name for name, _ in read_names(ast.parse(path.read_text()), imports=True)}
    assert uncalled(sorted(TESTS.glob("reference_*.py")), readers) == set()
