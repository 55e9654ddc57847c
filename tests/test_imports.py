"""The package imports nothing beyond the standard library and numpy, and
uses every name it imports.

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
