"""Static checks on the package sources: every imported name and every
module constant is used."""

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


def _sources():
    paths = sorted(Path(cylcoh.__file__).parent.glob("*.py"))
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    unused = {
        name: names
        for name, tree in _sources().items()
        if name != "__init__.py" and (names := _unused_imports(tree))
    }
    assert unused == {}


def test_no_unused_module_constants():
    trees = _sources()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = {}
    for name, tree in trees.items():
        consts = [
            t.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Name) and t.id.isupper()
        ]
        if dead := sorted(set(consts) - read):
            unused[name] = dead
    assert unused == {}
