"""Every annotation in the package resolves: ``typing.get_type_hints``
succeeds on each function and method, in the module's globals plus the names
that its ``if TYPE_CHECKING:`` blocks import, as a type checker reads them."""

import ast
import importlib
import inspect
import pkgutil
import typing
from functools import cached_property

import voganlab


def type_checking_globals(module) -> dict:
    """The module's globals with its ``if TYPE_CHECKING:`` blocks run."""
    names = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            code = compile(ast.Module(node.body, type_ignores=[]), module.__file__, "exec")
            exec(code, names)
    return names


def functions_and_methods(module):
    """The functions defined in ``module`` (unwrapped from their caches)
    and the methods, properties and cached properties of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(inspect.unwrap(obj)):
            yield inspect.unwrap(obj)
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    yield member


def test_every_annotation_resolves():
    unresolved = []
    checked = 0
    for info in pkgutil.iter_modules(voganlab.__path__):
        module = importlib.import_module(f"voganlab.{info.name}")
        names = type_checking_globals(module)
        for func in functions_and_methods(module):
            try:
                typing.get_type_hints(func, globalns=names)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{func.__qualname__}: {exc}")
            checked += 1
    assert unresolved == []
    assert checked > 100
