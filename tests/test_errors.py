"""The exception surface: five outcomes under FqcodesError, each one raised."""

import ast
import pathlib

import fqcodes
from fqcodes.errors import FqcodesError

SRC = pathlib.Path(fqcodes.__file__).parent
OUTCOMES = {"ParseError", "InvalidParams", "SearchTooLarge", "PropertyViolation", "NotFound"}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_fqcodes_error_has_exactly_the_five_outcomes():
    subclasses = FqcodesError.__subclasses__()
    assert {c.__name__ for c in subclasses} == OUTCOMES
    assert all(not c.__subclasses__() for c in subclasses)


def test_no_other_exception_class_in_the_package():
    for name, tree in _trees():
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        if name == "errors.py":
            assert {c.name for c in classes} == OUTCOMES | {"FqcodesError"}
            continue
        for node in classes:
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            assert not bases & (OUTCOMES | {"Exception", "FqcodesError"}), \
                f"{name}: exception class {node.name}"


def test_every_outcome_has_a_raise_site():
    raised = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                raised.add(node.exc.func.id)
    assert OUTCOMES <= raised
