"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "agentsynth").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "agentsynth"}


def _imported_modules(path):
    """Top-level names of the absolute imports in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    foreign = sorted(set(_imported_modules(path)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"
