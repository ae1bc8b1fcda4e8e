from __future__ import annotations

import ast
import inspect
from pathlib import Path

import heun_monodromy
from heun_monodromy import errors


def _raised_names():
    """The names of everything a ``raise`` in the package raises."""
    names = set()
    for module in Path(heun_monodromy.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_exception_is_raised_or_a_base_of_a_raised_one():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__]
    names = _raised_names()
    raised = [cls for cls in classes if cls.__name__ in names]
    for cls in classes:
        assert any(issubclass(r, cls) for r in raised), f"nothing raises {cls.__name__}"
