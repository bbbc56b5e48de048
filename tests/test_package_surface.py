"""Every definition in the package is called by the package or is part of its API.

A function, method or class defined in ``src/cutlab`` counts as used when
its name appears as a name or an attribute anywhere in the package's code.
One that does not must be exported in ``cutlab.__all__`` or be one of the
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
    used, defined = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}", node.name))
    assert len(defined) > 100
    unused = [
        f"{where} {name}"
        for where, name in defined
        if name not in used
        and name not in cutlab.__all__
        and name not in KEPT_API
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
