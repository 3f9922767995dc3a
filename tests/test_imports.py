"""Every name a module imports is used by that module, and every private
module-level name of the package is used by some module of it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__.py imports names only to re-export them
MODULES = [p for p in sorted((ROOT / "src" / "trireduce").glob("*.py")) if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "trireduce").glob("*.py"))


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


def private_definitions(source):
    """The private names that source defines at module level: functions,
    classes and assigned constants."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__") and n != "_"}


def references(source):
    """The names that source reads, as a name or as an attribute, leaving
    out a module-level function's or class's references to itself."""
    used = set()
    for statement in ast.parse(source).body:
        nodes = list(ast.walk(statement))
        found = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            found.discard(statement.name)
        used |= found
    return used


def dead_private_names(sources):
    """The private module-level names of the sources that none of them
    references, sorted."""
    defined = set().union(*(private_definitions(s) for s in sources))
    return sorted(defined - set().union(*(references(s) for s in sources)))


def test_scan_finds_a_dead_private_name():
    helper = "_SCALE = 2.0\n_OFFSET = 1.0\n\ndef _walk(n):\n    return _walk(n - 1) if n else _SCALE\n"
    user = "import helper\n\ndef run():\n    return helper._OFFSET\n"
    assert dead_private_names([helper, user]) == ["_walk"]


def test_no_dead_private_names():
    assert dead_private_names([p.read_text(encoding="utf-8") for p in PACKAGE]) == []
