"""The error hierarchy against the code: every CdxError subclass is raised
somewhere in the package, and every exit code the command line maps names
the code of one of them."""

import ast
import pathlib

from cdx import cli, errors

PACKAGE = pathlib.Path(errors.__file__).parent


def error_classes():
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.CdxError) and c is not errors.CdxError]


def raised_names():
    """Names in a ``raise X`` or ``raise X(...)`` under the package, with
    ``X`` bare or an attribute such as ``errors.X``."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def test_every_error_class_is_raised_somewhere():
    raised = raised_names()
    assert [c.__name__ for c in error_classes() if c.__name__ not in raised] == []


def test_every_exit_code_names_an_error_class():
    codes = [c.code for c in error_classes()]
    assert len(set(codes)) == len(codes)
    assert set(cli.EXIT_CODES) <= set(codes)
