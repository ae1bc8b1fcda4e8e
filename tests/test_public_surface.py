"""No test-only code in the package: every top-level function, class and
method is used by the program itself or by the benchmark.

A definition counts as used when its name is referenced (as a name or an
attribute) from a package module other than ``__init__``, or from
``perfbench``, outside the definition's own body.  A string counts only in
``perfbench``, where the traced names are: in the package a string such as
``quotient``'s label names a value, not a caller.  Dunder methods are called
by Python itself.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import heun_monodromy

PACKAGE = Path(heun_monodromy.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

#: Kept without a caller in the program, each for the reason given.
ALLOWED = {
    "from_physical": "the paper's physical chart (A, B, omega)",
    "monodromy_algebraic": "the paper's explicit monodromy as a function",
}


def _references(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is referenced in ``tree``, string constants
    included when ``strings`` is set."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def _definitions(tree: ast.Module):
    """(qualified name, node) of the module's top-level functions and classes
    and of the classes' methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield f"{node.name}.{item.name}", item


def _unused() -> list[str]:
    modules = {path: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    users = [tree for path, tree in modules.items() if path.name != "__init__.py"]
    everywhere = sum((_references(tree) for tree in users), Counter())
    everywhere += sum((_references(ast.parse(path.read_text()), strings=True)
                       for path in sorted(PERFBENCH.glob("*.py"))), Counter())
    unused = []
    for path, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] <= _references(node)[name]:
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_definition_is_used_outside_the_tests():
    unused = [name for name in _unused() if name.rsplit(".", 1)[-1] not in ALLOWED]
    assert unused == []


def test_every_allowed_name_is_still_defined_and_unused():
    unused = {name.rsplit(".", 1)[-1] for name in _unused()}
    assert set(ALLOWED) <= unused
