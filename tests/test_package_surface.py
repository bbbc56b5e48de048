"""Every definition in the package is called by the package or is part of its API.

A function or class defined in ``src/cutlab`` counts as used when its name
appears as a name or an attribute anywhere in the package's code, and a
method only when its name appears as an attribute: a local variable of the
same name calls no method.  One that is not used must be exported in ``cutlab.__all__`` or be one of the
few methods kept for callers outside the package (``KEPT_API``); code that
only the tests call lives in ``tests/conftest.py`` instead.  Dunder methods
are called by Python itself.
"""

import ast
from pathlib import Path

import cutlab

PACKAGE = Path(cutlab.__file__).parent

# the README documents the first three; ``perfbench/spans.py`` traces ``as_group``
KEPT_API = {"power", "element_order", "validate_group_axioms", "as_group"}


def test_every_definition_is_used_or_public():
    names, attributes, methods, defined = set(), set(), set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}", node))
            if isinstance(node, ast.ClassDef):
                methods.update(
                    id(m) for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    assert len(defined) > 100
    unused = [
        f"{where} {node.name}"
        for where, node in defined
        if node.name not in attributes
        and (id(node) in methods or node.name not in names)
        and node.name not in cutlab.__all__
        and node.name not in KEPT_API
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unused == []


def test_only_group_core_reads_what_a_group_keeps_privately():
    """No module but group_core reads an attribute a FiniteGroup class sets on self with a leading underscore."""
    classes, private = {"FiniteGroup"}, set()
    for node in ast.parse((PACKAGE / "group_core.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and (
            node.name in classes or any(isinstance(b, ast.Name) and b.id in classes for b in node.bases)
        ):
            classes.add(node.name)
            private.update(
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and sub.attr.startswith("_")
            )
    assert {"TableGroup", "FormulaGroup", "PermutationGroup", "ProductGroup"} < classes
    assert {"_labels", "_power_maps", "_facts"} <= private
    readers = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "group_core.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert readers == []
