"""Every top-level function and class of the package, and every method that
is not a dunder, has a caller outside its own body: code nothing calls gets
deleted, or moved next to the tests that use it.

A definition counts as called when its name is read (as a name or an
attribute) in package code outside its own body, listed in
``voganlab.__all__``, read or imported by ``demos/`` or ``bench/``, or named
in ``perfbench/``, where string constants count too, since the tracer wraps
functions by name.  Matching is by name only, so two definitions that share
a name share their callers."""

import ast
from pathlib import Path

import voganlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "voganlab"

# definitions whose only callers are tests, with the reason each stays
ALLOWED = {
    "bridge.calibrate": "oracle: tries all eight bridge conventions; the tests pin the one in use",
    "classical.graded_power_multisegment": "oracle for gl_multisegment_of_subset",
    "geometry.chain_tangent_dim_at_point": "oracle: tangent dimensions away from the representative",
    "kl.kl_poly_reference": "oracle: the textbook recursion over the whole group",
    "kl.mu_coeff": "mu(u, w), read from the column kl_poly reads; tests pin its values",
    "linalg._echelon": "reduced row echelon form over Q, which the tests invert matrices with",
    "orbits.commutator_orbit_dim": "oracle for chain_orbit_dim",
    "orbits.two_eig_orbit_dim": "oracle for the two-eigenvalue dimension formula",
}


def definitions():
    """(module.qualname, name, node) of every top-level function and class
    and of every non-dunder method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, item


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
    """Every name read by demos, bench and perfbench, or exported."""
    names = set(voganlab.__all__)
    for folder, strings in (("demos", False), ("bench", False), ("perfbench", True)):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text())
            names |= {name for name, _ in read_names(tree, imports=True, strings=strings)}
    return names


def uncalled() -> set[str]:
    package = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    reads: dict[str, list] = {}
    for tree in package:
        for name, node in read_names(tree):
            reads.setdefault(name, []).append(node)
    outside = outside_callers()
    found = set()
    for qualname, name, node in definitions():
        own = {id(n) for n in ast.walk(node)}
        if name in outside or any(id(n) not in own for n in reads.get(name, [])):
            continue
        found.add(qualname)
    return found


def test_every_definition_has_a_caller():
    assert uncalled() == set(ALLOWED)
