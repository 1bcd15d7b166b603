"""numpy is synthloc's only runtime dependency: every module imports only
numpy, the standard library and its own package, and uses every name it
imports."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "synthloc"
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_numpy_stdlib_or_relative(path):
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    assert [name for name in imported if name.split(".")[0] not in ALLOWED] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """A name a module imports is read somewhere in it, so that deleting the
    code that used an import deletes the import too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
