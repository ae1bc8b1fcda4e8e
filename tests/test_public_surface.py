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

Nor a knob nothing turns: every optional parameter of a function or method
is passed by some call in the same places.  A call passes it by naming it as
a keyword, by passing enough positional arguments, or by spreading
``*args`` or ``**kwargs``; calls are matched to definitions by name.
"""

from __future__ import annotations

import ast
import math
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

#: Optional parameters kept without a call that passes them, each for the
#: reason given.
ALLOWED_DEFAULTS = {
    "monomial.lam_pow": "a monomial names all three exponents of its key (z, lam, mu)",
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


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _users(modules: dict[Path, ast.Module]) -> list[ast.Module]:
    """The package modules other than ``__init__``."""
    return [tree for path, tree in modules.items() if path.name != "__init__.py"]


def _perfbench() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]


def _unused() -> list[str]:
    modules = _modules()
    everywhere = sum((_references(tree) for tree in _users(modules)), Counter())
    everywhere += sum((_references(tree, strings=True) for tree in _perfbench()), Counter())
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


def _passed(tree: ast.AST) -> Counter:
    """What the calls in ``tree`` pass, by called name: (name, None) is the
    most positional arguments of one call (infinite for a spread), and
    (name, keyword) is 1 once a call names the keyword."""
    passed = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            passed |= Counter({(name, None): math.inf if spread else len(node.args)})
            passed |= Counter({(name, k.arg): 1 for k in node.keywords})
    return passed


def _unpassed_defaults() -> list[str]:
    modules = _modules()
    passed = Counter()
    for tree in _users(modules) + _perfbench():
        passed |= _passed(tree)  # by maximum: one call must pass the argument
    unpassed = []
    for path, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if isinstance(node, ast.ClassDef) or name.startswith("__") and name.endswith("__"):
                continue
            spec = node.args
            params = spec.posonlyargs + spec.args
            skip = 1 if "." in qualname else 0  # self or cls
            optional = [(i - skip, a.arg) for i, a in enumerate(params)
                        if i >= len(params) - len(spec.defaults)]
            optional += [(len(params) - skip, a.arg)  # no positional count reaches these
                         for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d is not None]
            for index, arg in optional:
                if passed[name, None] <= index and not passed[name, arg]:
                    unpassed.append(f"{path.stem}.{qualname}.{arg}")
    return unpassed


def test_every_definition_is_used_outside_the_tests():
    unused = [name for name in _unused() if name.rsplit(".", 1)[-1] not in ALLOWED]
    assert unused == []


def test_every_allowed_name_is_still_defined_and_unused():
    unused = {name.rsplit(".", 1)[-1] for name in _unused()}
    assert set(ALLOWED) <= unused


def _function_and_parameter(name: str) -> str:
    return ".".join(name.rsplit(".", 2)[-2:])


def test_every_optional_parameter_is_passed_by_the_program():
    unpassed = [name for name in _unpassed_defaults()
                if _function_and_parameter(name) not in ALLOWED_DEFAULTS]
    assert unpassed == []


def test_every_allowed_default_is_still_unpassed():
    unpassed = {_function_and_parameter(name) for name in _unpassed_defaults()}
    assert set(ALLOWED_DEFAULTS) <= unpassed
