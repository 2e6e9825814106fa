"""Static hygiene of the package source: no module imports a name it never
uses, and every import sits at module level."""

import ast
from pathlib import Path

import pytest

import rigidity_forge

PACKAGE = Path(rigidity_forge.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def local_imports(source: str) -> list[str]:
    """Import statements inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{node.name} (line {inner.lineno})")
    return found


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_module_level(module):
    assert local_imports(module.read_text(encoding="utf-8")) == []


def test_unused_import_check_catches_a_leftover():
    source = "from fractions import Fraction\nimport json\nfrom typing import Any\n\n\ndef f(x: Any):\n    return json.dumps(x)\n"
    assert unused_imports(source) == ["Fraction (line 1)"]
    assert local_imports("def f():\n    import json\n    return json\n") == ["f (line 2)"]
