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
