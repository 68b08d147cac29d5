"""Static checks on the package sources: every imported name and every
module constant is used, every public name has a caller, no function
rebuilds a fixed quadrature rule, only gauss01 builds Gauss rules, one
memo holds every retained window matrix, only t_norm (and a law alpha's
|y| moment) integrates weights in t, one function gives the C-integral's
sups, DomainSpec.norm is the one caller of the grid integral, scaled_taps
is the one caller of the stencil build, the t-node block rule and the
exponent rule stay in _interp, the Cech nerve stays in cover, A_alpha
calls no K_y, no module imports threading, no function only passes its
own parameters on to another call, and every function the benchmark's
tracer wraps exists."""

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


RULE_BUILDERS = {"gauss01", "_graded_nodes", "tanh_sinh01"}


def _call_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


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
            if _call_name(node) in RULE_BUILDERS and any(
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


def _owners(tree, hit):
    """The innermost function around each node that hit accepts (None at
    module level)."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif hit(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _callers(tree, name):
    """The innermost function around each call of name (None at module level)."""
    return _owners(tree, lambda node: isinstance(node, ast.Call) and _call_name(node) == name)


def test_only_gauss01_builds_gauss_rules():
    # gauss01 keeps one read-only rule per node count; a leggauss call
    # anywhere else would build a rule per call again
    callers = {(name, fn) for name, tree in _sources().items()
               for fn in _callers(tree, "leggauss")}
    assert callers == {("_interp.py", "gauss01")}


def test_one_memo_holds_every_window_matrix():
    # _ROW_MEMO is named only where it is defined and inside _interp.memo,
    # so one bounded rule, within MEMO_BYTES, holds every retained window
    # matrix: A_alpha's rows and the C-integral's stacks alike
    namers = {(name, fn) for name, tree in _sources().items()
              for fn in _owners(tree, lambda node: getattr(node, "id", None) == "_ROW_MEMO")}
    assert namers == {("_interp.py", None), ("_interp.py", "memo")}


def test_only_t_norm_integrates_weights():
    # every t-integral of a weight norm is _interp.t_norm's, so alpha,
    # beta and gamma take one rule; the one other caller of edge_integral
    # is the |y| moment of a law alpha pivoting at the right t-edge
    callers = {(name, fn) for name, tree in _sources().items()
               for fn in _callers(tree, "edge_integral")}
    assert callers == {("_interp.py", "t_norm"), ("homotopy.py", "check_admissible_weight")}


def test_one_stencil_build_per_axis_and_call():
    # K_y's stencils come from scaled_taps, once per axis and call, and
    # each block fills its matrices from those taps: no other function
    # builds stencils, so no path goes back to a build per block
    callers = {(name, fn) for name, tree in _sources().items()
               for fn in _callers(tree, "_axis_stencil")}
    assert callers == {("_interp.py", "scaled_taps")}


def test_one_sup_rule_for_the_c_integral():
    # C_integral takes every sup from _sup_norms, the one caller of the
    # window search, which takes t = 0 as a covered node: no function of
    # constants integrates beta on the grid itself
    tree = _sources()["constants.py"]
    assert _callers(tree, "_sup_window_norms") == {"_sup_norms"}
    assert _callers(tree, "integrate") == set()


def test_one_norm_rule_for_sampled_fields():
    # lp_norm, weight_norm's full-grid branch and the bounded |y| moment
    # all take DomainSpec.norm, the one caller of the grid integral, so a
    # change to how a weight enters lands in one place
    callers = {(name, fn) for name, tree in _sources().items()
               for fn in _callers(tree, "integrate")}
    assert callers == {("domain.py", "norm")}


def test_no_module_imports_threading():
    # every operator makes its buffers once per call and keeps none
    # between calls: buffers held per thread cost every process 4-6 MiB
    # of peak memory, and the throughput they bought was not resolved
    importers = sorted(name for name, tree in _sources().items() for node in ast.walk(tree)
                       if isinstance(node, ast.Import) and "threading" in {a.name for a in node.names}
                       or isinstance(node, ast.ImportFrom) and node.module == "threading")
    assert importers == []


def test_a_alpha_averages_no_K_y():
    # A_alpha is one exact window path: no function of homotopy sums K_y
    # over centers
    assert _callers(_sources()["homotopy.py"], "K_y") == set()


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


EXPONENT_RULE = {"_ratio", "_frac", "_law_ratio", "_exceeds"}


def _lam_products(tree):
    """Lines where a product takes a .lam attribute as a factor."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                  and any(isinstance(side, ast.Attribute) and side.attr == "lam"
                          for side in (node.left, node.right)))


def test_exponent_rule_stays_in_interp():
    # every power-law divergence and exponent gate is decided by _interp's
    # exact rule: no module keeps its own copy of the exact helpers, and
    # lam times an exponent is formed by law_exponent (weights.py scales a
    # profile's own lam under a power)
    trees = _sources()
    defined = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in EXPONENT_RULE}
    assert defined == {("_interp.py", fn) for fn in EXPONENT_RULE}
    products = {name: lines for name, tree in trees.items()
                if name not in ("_interp.py", "weights.py") and (lines := _lam_products(tree))}
    assert products == {}


NERVE_CALLS = {"index_between", "component_domain", "components"}


def test_nerve_stays_in_cover():
    # the cover builds its cell table once; cech reads it and works out no
    # face, containment or chart itself
    trees = _sources()
    calls = {_call_name(node) for node in ast.walk(trees["cech.py"])
             if isinstance(node, ast.Call)}
    assert sorted(calls & NERVE_CALLS) == []
    defined = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "find_parent"}
    assert defined == set()


def _pass_throughs(tree):
    """Functions whose whole body (after a docstring) is return f(<their
    own parameters, in order>): a second name for a call.  A method's
    self or cls is not counted as a parameter."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params = params[1:] if params[:1] in (["self"], ["cls"]) else params
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if not (params and len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(call := body[0].value, ast.Call)):
            continue
        passed = [a.id if isinstance(a, ast.Name) else None for a in call.args]
        passed += [k.arg if isinstance(k.value, ast.Name) and k.arg == k.value.id else None
                   for k in call.keywords]
        if passed == params:
            found.append(fn.name)
    return sorted(found)


def test_no_pass_through_functions():
    # a function or method that only hands its own parameters on to
    # another call is a second name for it: callers use the call itself
    found = {name: fns for name, tree in _sources().items() if (fns := _pass_throughs(tree))}
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
