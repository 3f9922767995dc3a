"""Every name a module imports is used by that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__.py imports names only to re-export them
MODULES = [p for p in sorted((ROOT / "src" / "trireduce").glob("*.py")) if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names that source imports and never references, sorted."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "*"
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_an_unused_name():
    source = "from math import cos, sin\nimport numpy as np\nprint(sin(np.pi))\n"
    assert unused_imports(source) == ["cos"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
