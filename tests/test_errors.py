from __future__ import annotations

import ast
import inspect
from pathlib import Path

import heun_monodromy
from heun_monodromy import errors


def _raises():
    """(module, innermost enclosing function, raised name) of every ``raise``
    in the package."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.append((module, function, exc.id))
            elif isinstance(exc, ast.Attribute):
                found.append((module, function, exc.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module in Path(heun_monodromy.__file__).resolve().parent.glob("*.py"):
        visit(ast.parse(module.read_text(), filename=str(module)), module.stem, None)
    return found


def _raised_names():
    """The names of everything a ``raise`` in the package raises."""
    return {name for _, _, name in _raises()}


def test_every_exception_is_raised_or_a_base_of_a_raised_one():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__]
    names = _raised_names()
    raised = [cls for cls in classes if cls.__name__ in names]
    for cls in classes:
        assert any(issubclass(r, cls) for r in raised), f"nothing raises {cls.__name__}"


def test_denominator_vanished_is_raised_by_the_one_quotient_only():
    # every Moebius quotient (the monodromy, the square-root transform, the
    # alpha family) goes through circle.quotient and its one floor
    sites = {(module, function) for module, function, name in _raises()
             if name == "DenominatorVanished"}
    assert sites == {("circle", "quotient")}


def test_step_ceiling_is_raised_by_the_row_rule_only():
    # the phase rows, the P_B panel table and every continuation leg are
    # sized by gauss.uniform_rows, the one place that refuses a span
    sites = {(module, function) for module, function, name in _raises()
             if name == "StepCeilingExceeded"}
    assert sites == {("gauss", "uniform_rows")}
