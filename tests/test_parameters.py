"""Every parameter of every function and lambda in the package is read in
its body: a parameter that is accepted and ignored misleads its callers."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "voganlab"

# the benchmark worker still passes assemble_report(..., jobs=1); drop this
# entry together with the keyword
ALLOWED = {("report.py", "assemble_report", "jobs")}


def unread_parameters(path: Path) -> set[tuple[str, str, str]]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", f"<lambda at line {node.lineno}>")
        out |= {(path.name, name, p) for p in params if p not in read}
    return out


def test_every_parameter_is_read():
    found = set().union(*(unread_parameters(path) for path in sorted(SRC.glob("*.py"))))
    assert found == ALLOWED



# argv=None lets argparse read sys.argv
NONE_DEFAULT_ALLOWED = {("cli.py", "main", "argv")}


def none_default_parameters(path: Path) -> set[tuple[str, str, str]]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                 *zip(a.kwonlyargs, a.kw_defaults)]
        name = getattr(node, "name", f"<lambda at line {node.lineno}>")
        out |= {
            (path.name, name, p.arg) for p, d in pairs
            if isinstance(d, ast.Constant) and d.value is None
        }
    return out


def test_no_parameter_defaults_to_none():
    # a None default invites compute-if-absent branches: a second route to a
    # value that the caller already has
    found = set().union(*(none_default_parameters(path) for path in sorted(SRC.glob("*.py"))))
    assert found == NONE_DEFAULT_ALLOWED
