"""Static checks on the package sources: every imported name and every
module constant is used, every public name has a caller, no function
rebuilds a fixed quadrature rule, the t-node block rule stays in
_interp, and every function the benchmark's tracer wraps exists."""

import ast
import importlib.util
import re
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


def _read_names(trees):
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_no_unused_module_constants():
    trees = _sources()
    read = _read_names(trees.values())
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


def test_public_names_have_callers():
    # a name in __all__ is read by a package module (the re-exports in
    # __init__.py do not count) or shown in a README python block
    read = _read_names(tree for name, tree in _sources().items() if name != "__init__.py")
    readme = (Path(cylcoh.__file__).resolve().parents[2] / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        read.update(re.findall(r"\w+", block))
    assert sorted(set(cylcoh.__all__) - read) == []


RULE_BUILDERS = {"gauss01", "_graded_nodes"}


def _fixed_rule_builds(tree):
    """Functions that build a quadrature rule of fixed size on every call:
    a rule builder called with an integer literal or an UPPERCASE module
    constant, which belongs in a module constant built at import."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RULE_BUILDERS and any(
                (isinstance(a, ast.Constant) and type(a.value) is int)
                or (isinstance(a, ast.Name) and a.id.isupper())
                for a in node.args
            ):
                found.add(fn.name)
    return sorted(found)


def test_no_fixed_rule_rebuilt_per_call():
    rebuilt = {
        name: fns for name, tree in _sources().items() if (fns := _fixed_rule_builds(tree))
    }
    assert rebuilt == {}


BLOCK_RULE = {"STACK_BYTES", "window_matrix"}


def test_block_rule_stays_in_interp():
    # the byte budget and the unstacked window builder are _interp's own:
    # every other module builds its per-t-node matrices through
    # node_blocks and window_stack, so one rule bounds every stacked build
    found = {}
    for name, tree in _sources().items():
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for a in node.names}
        if name != "_interp.py" and (names := (_read_names([tree]) | imported) & BLOCK_RULE):
            found[name] = sorted(names)
    assert found == {}


def test_tracer_sites_resolve():
    # perfbench/run.py --trace 1 installs a wrapper at each (owner, attr) of
    # tracing.SITES, so renaming a traced function would break it at install
    path = Path(cylcoh.__file__).resolve().parents[2] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owners, _ in tracing.SITES for owner, attr in owners
               if not callable(getattr(owner, attr, None))]
    assert tracing.SITES
    assert missing == []
