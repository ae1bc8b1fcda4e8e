"""No test-only code in the package: every top-level function, class and
method is used by the program itself or by the benchmark.

A definition counts as used when its name is referenced from a package
module other than ``__init__``, or from ``perfbench``, outside the
definition's own body.  A top-level function or class counts through a bare
name, an import or an attribute; a method only through an attribute, since a
bare name of the same spelling (a local variable, say) cannot reach it.  A
string counts only in ``perfbench``, where the traced names are, and there it
counts as an attribute: in the package a string such as ``quotient``'s label
names a value, not a caller.  Dunder methods are called by Python itself.
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
    """How often each name is referenced in ``tree``, keyed by ("attr", name)
    for an attribute and by ("name", name) for a bare name or an import;
    string constants count as attributes when ``strings`` is set."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs["attr", node.attr] += 1
        elif isinstance(node, ast.alias):
            refs["name", node.name.rsplit(".", 1)[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs["attr", node.value] += 1
    return refs


def _uses(refs: Counter, name: str, method: bool) -> int:
    """The references in ``refs`` that can reach ``name``: a method's only
    through an attribute, a top-level definition's through either kind."""
    return refs["attr", name] + (0 if method else refs["name", name])


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
            method = "." in qualname
            if _uses(everywhere, name, method) <= _uses(_references(node), name, method):
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_definition_is_used_outside_the_tests():
    unused = [name for name in _unused() if name.rsplit(".", 1)[-1] not in ALLOWED]
    assert unused == []


def test_every_allowed_name_is_still_defined_and_unused():
    unused = {name.rsplit(".", 1)[-1] for name in _unused()}
    assert set(ALLOWED) <= unused
