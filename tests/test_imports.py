"""Static check on the package sources: every imported name is used."""

import ast
from pathlib import Path

import cylcoh


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    paths = sorted(Path(cylcoh.__file__).parent.glob("*.py"))
    unused = {
        p.name: names
        for p in paths
        if p.name != "__init__.py"
        and (names := _unused_imports(ast.parse(p.read_text(), filename=str(p))))
    }
    assert unused == {}
