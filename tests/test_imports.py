"""The package imports nothing beyond the standard library and numpy.

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


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "bounds.py", "measure.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    assert imported_modules(path) - ALLOWED == set()


def test_an_undeclared_import_is_caught(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import json\nfrom scipy.linalg import eigh\nfrom . import space\n")
    assert imported_modules(source) - ALLOWED == {"scipy"}
