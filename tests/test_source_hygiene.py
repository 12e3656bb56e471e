"""Static checks over the package modules.

Every imported name must be used, and no module may use a bare
``assert``: ``python -O`` strips those, and cross-checks must raise
``InternalCrossCheckError`` in every mode.  The package ``__init__``
re-exports names by importing them and is left out.
"""

import ast
from pathlib import Path

import pytest

import magnodal

MODULES = sorted(p for p in Path(magnodal.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that no expression loads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def bare_asserts(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    assert bare_asserts(parse(path)) == []


def test_checks_catch_what_they_look_for():
    tree = ast.parse("import os\nfrom x import y as z\nassert z\n")
    assert unused_imports(tree) == ["os (line 1)"]
    assert bare_asserts(tree) == [3]
    assert MODULES and all(p.name != "__init__.py" for p in MODULES)
