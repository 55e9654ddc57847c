"""The package imports nothing beyond the standard library and numpy, uses
every name it imports, and reads every private name it defines.

numpy is its one declared dependency (pyproject.toml); scipy may be
installed next to it but is not declared, so src/ must not use it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tailbounds").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tailbounds"}


def imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def unused_imports(path: Path) -> set:
    """Names a source file imports but never reads; `from __future__` is exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "bounds.py", "measure.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    assert imported_modules(path) - ALLOWED == set()


def test_an_undeclared_import_is_caught(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import json\nfrom scipy.linalg import eigh\nfrom . import space\n")
    assert imported_modules(source) - ALLOWED == {"scipy"}


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export, so it is the one module exempt
    assert unused_imports(path) == set()


def test_an_unused_import_is_caught(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import json\nimport os.path\nimport numpy as np\n"
        "from .space import ROLE_DUAL, ROLE_PRIMAL as PRIMAL, p_norm\n"
        "def f(x):\n    return np.sqrt(p_norm(x, 2.0)), os.path.sep, PRIMAL\n"
    )
    assert unused_imports(source) == {"json", "ROLE_DUAL"}


def private_definitions(path: Path) -> set:
    """Private module-level names and private methods one source file defines."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(item, ast.FunctionDef))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def referenced_names(paths) -> set:
    """Names read, attributes taken and names imported anywhere in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_private_name_is_referenced(path):
    assert private_definitions(path) - referenced_names(SOURCES) == set()


def test_an_unreferenced_private_name_is_caught(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "_USED = 1\n_LEFT: int = 2\n__all__ = ['f']\n"
        "def _helper():\n    return _USED\n"
        "def _leftover():\n    _scratch = 3\n    return _scratch\n"
        "class _Box:\n    def _kept(self):\n        return self._kept\n"
        "    def _word_budget(self):\n        return 0\n"
        "    def __len__(self):\n        return 0\n"
        "def f():\n    return _helper(), _Box()\n"
    )
    assert private_definitions(source) - referenced_names([source]) == {
        "_LEFT", "_leftover", "_word_budget",
    }
