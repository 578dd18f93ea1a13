"""Import discipline and grid time inside the rpsde package, checked on the
source with ast.

A module may import only public names from another rpsde module, and only at
module level: a private name shared across modules belongs in the module
that owns it, made public, and a function-level import hides a dependency.
A time becomes a whole number of cells only in `noise.grid_steps`, so the
builtin `round` is called nowhere else. Increments have one layout, time
first, which `noise._fill` writes through the package's only `transpose`.
Files are written by `cli` alone: only `cli` imports csv, and the builtin
`open` and `csv.writer` are called only in `cli._write_csv`, the one CSV
writer. In `cli`, the raw config dict is read only by `main` and
`_settings`, and no `run_*` function converts a value itself. `cli` neither
draws noise nor steps paths: it imports nothing from `noise` and not
`simulate_ensemble`, and leaves both to the library. Every public
name is used inside the package, and every field of a result type is read
there: a name that only the tests call belongs in the tests. Every exception
class the package defines is caught by name in it; bad input is a ValueError.
Both periodicity checks read the one burn-in rule, `periodic.BURN_IN_PERIODS`,
and `periodic` reports a failed check as a result, never as an exception. The
one loop over time steps is in `integrator.simulate_ensemble`, and it
calls `_Kernel.step` for every problem. The one fork site is
`periodic.beside_child`: no other code calls `os.fork` or imports
`multiprocessing`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rpsde"
MODULES = sorted(SRC.glob("*.py"))


def rpsde_imports(tree):
    """(node, imported module, names) for every import of an rpsde module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "rpsde"
        ):
            yield node, node.module or "rpsde", [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rpsde":
                    yield node, alias.name, []


def function_level(tree):
    """Ids of the nodes nested inside a function body."""
    inner = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner.update(id(n) for n in ast.walk(fn) if n is not fn)
    return inner


def nodes_in(tree, qualname):
    """Ids of the nodes of the module-level function qualname, "f" or "Class.method"."""
    scope = tree
    for part in qualname.split("."):
        scope = next(
            n for n in scope.body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part
        )
    return {id(n) for n in ast.walk(scope)}


def test_modules_found():
    assert {"noise.py", "integrator.py", "periodic.py", "cli.py"} <= {
        m.name for m in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_or_function_level_rpsde_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inner = function_level(tree)
    problems = []
    for node, module, names in rpsde_imports(tree):
        private = [n for n in names if n.startswith("_") and not n.startswith("__")]
        if private:
            problems.append(f"line {node.lineno}: private {private} from {module}")
        if id(node) in inner:
            problems.append(f"line {node.lineno}: {module} imported inside a function")
    assert not problems, f"{path.name}: " + "; ".join(problems)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_round_only_in_grid_steps(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = nodes_in(tree, "grid_steps") if path.name == "noise.py" else set()
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "round"
        and id(node) not in allowed
    ]
    assert not calls, f"{path.name}: round() at lines {calls}; use noise.grid_steps"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_transpose_only_in_streams_fill(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = nodes_in(tree, "_fill") if path.name == "noise.py" else set()
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "transpose" and id(node) not in allowed
    ]
    assert not lines, f"{path.name}: transpose at lines {lines}; increments are (cells, paths, m)"


def calls(tree):
    """(node, called name) for every call in tree, the name as written: "open", "csv.writer"."""
    return [(n, ast.unparse(n.func)) for n in ast.walk(tree) if isinstance(n, ast.Call)]


def imports(tree):
    """(node, imported module) for every import in tree, relative ones as None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node, node.module


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_files_written_only_by_cli_write_csv(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = nodes_in(tree, "_write_csv") if path.name == "cli.py" else set()
    problems = [
        f"line {node.lineno}: calls {name}"
        for node, name in calls(tree)
        if name in ("open", "csv.writer") and id(node) not in allowed
    ]
    for node, module in imports(tree):
        if module == "csv" and path.name != "cli.py":
            problems.append(f"line {node.lineno}: imports csv")
    assert not problems, f"{path.name}: " + "; ".join(problems) + "; write through cli._write_csv"


def test_raw_config_read_only_by_main_and_settings():
    # main gathers the dict from --set and --seed and _settings converts every value once
    tree = ast.parse((SRC / "cli.py").read_text())
    allowed = set().union(*(nodes_in(tree, f) for f in ("main", "_settings")))
    problems = [
        f"line {node.lineno}: reads cfg"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "cfg" and id(node) not in allowed
    ]
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("run_"):
            problems += [
                f"line {node.lineno}: {fn.name} calls {name}"
                for node, name in calls(fn)
                if name in ("float", "int")
            ]
    assert not problems, "cli.py: " + "; ".join(problems) + "; read settings in _settings"


def test_cli_neither_draws_nor_steps():
    tree = ast.parse((SRC / "cli.py").read_text())
    problems = []
    for node, module, names in rpsde_imports(tree):
        if module.split(".")[-1] == "noise" or "noise" in names:
            problems.append(f"line {node.lineno}: imports from rpsde.noise")
        if "simulate_ensemble" in names:
            problems.append(f"line {node.lineno}: imports simulate_ensemble")
    assert not problems, "cli.py: " + "; ".join(problems) + "; call the library's runs"


def test_one_csv_writer():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert [name for _, name in calls(tree)].count("csv.writer") == 1


# public names the package itself does not use, with the reason they stay
UNUSED_EXPORTS = {
    ("noise", "generate"): "bench/spans.py wraps it by name",
    ("noise", "generate_uniform"): "bench/spans.py wraps it by name",
}


def public_names(tree):
    """The string entries of a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def is_read(tree, name, skip=()):
    """Whether `name` is read, as a name or an attribute, outside the nodes in skip."""
    skipped = {id(n) for node in skip for n in ast.walk(node)}
    return any(
        id(node) not in skipped
        and (
            (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == name)
        )
        for node in ast.walk(tree)
    )


def test_every_public_name_is_used_in_the_package():
    trees = {m.stem: ast.parse(m.read_text(), filename=str(m)) for m in MODULES}
    wrong = []
    for module, tree in trees.items():
        for name in public_names(tree):
            # the definition itself, and its body, are no use
            own = [
                node
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            ]
            used = any(
                is_read(other, name, own if other is tree else ()) for other in trees.values()
            )
            if used == ((module, name) in UNUSED_EXPORTS):
                wrong.append(f"{module}.{name}")
    stale = [f"{m}.{n}" for m, n in UNUSED_EXPORTS if n not in public_names(trees[m])]
    assert not wrong, f"public but unused inside rpsde, or used but listed as unused: {wrong}"
    assert not stale, f"listed as unused exports but not public: {stale}"


def caught_names(tree):
    """The last part of every name in an except clause: `except A`, `(A, m.B)` give A, B."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            yield from (ast.unparse(t).split(".")[-1] for t in types)


def test_every_error_class_is_caught_by_name_in_the_package():
    # a subclass of an Error that nothing catches by name only re-labels its base
    trees = {m.stem: ast.parse(m.read_text(), filename=str(m)) for m in MODULES}
    caught = {name for tree in trees.values() for name in caught_names(tree)}
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith("Error") for base in node.bases)
    ]
    assert defined, "no exception class found"
    uncaught = [f"{m}.{name}" for m, name in defined if name not in caught]
    assert not uncaught, f"exception classes that no except clause in rpsde names: {uncaught}"


def test_one_burn_in_rule_and_no_error_class_in_periodic():
    tree = ast.parse((SRC / "periodic.py").read_text())
    checks = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("periodicity_check_")
    }
    assert set(checks) == {"periodicity_check_shifted", "periodicity_check_pullback"}
    forked = [name for name, fn in checks.items() if not is_read(fn, "BURN_IN_PERIODS")]
    assert not forked, f"periodicity checks that do not read BURN_IN_PERIODS: {forked}"
    classes = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)
    ]
    assert not classes, f"periodic defines exception classes {classes}; return a result"


# the result types whose every field some part of the package reads
REPORTS = ("ConvergenceReport", "ContractionTest", "PullbackResult", "PeriodicityReport")


def test_every_report_field_is_read_in_the_package():
    trees = [ast.parse(m.read_text(), filename=str(m)) for m in MODULES]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = {
        (cls.name, stmt.target.id)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in REPORTS
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
    }
    assert {name for name, _ in fields} == set(REPORTS)
    unread = sorted(f"{c}.{f}" for c, f in fields if f not in read)
    assert not unread, f"fields only the tests read: {unread}"


def loops(node):
    """The for and while loops under node."""
    return [n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))]


def test_one_step_loop_and_one_step_method():
    # a loop over time steps lives only in simulate_ensemble, and it runs the
    # one _Kernel.step for every problem: no scalar or closed-form fast path
    # grows a second stepping loop beside it
    tree = ast.parse((SRC / "integrator.py").read_text())
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions.update({f"{node.name}.{f.name}": f for f in node.body
                              if isinstance(f, ast.FunctionDef)})
    looping = {name: len(loops(fn)) for name, fn in functions.items() if loops(fn)}
    # the others loop over a matrix's columns, Newton iterations and step halvings
    assert looping == {"_linear_part": 1, "simulate_ensemble": 1, "_Kernel._newton": 2}
    (loop,) = loops(functions["simulate_ensemble"])
    kernel_calls = [
        (stmt, name) for stmt in loop.body for node, name in calls(stmt)
        if name.startswith("kernel.")
    ]
    assert [name for _, name in kernel_calls] == ["kernel.step"]
    assert not isinstance(kernel_calls[0][0], ast.If), "kernel.step must run on every step"
    made = [name for _, name in calls(functions["simulate_ensemble"]) if name == "_Kernel"]
    assert made == ["_Kernel"]


def test_one_fork_site():
    # periodic.beside_child is the one fork helper of ms_error and pullback_converge; a
    # second site would need its own rules for killing and reaping its child
    inside, outside = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = nodes_in(tree, "beside_child") if path.name == "periodic.py" else set()
        sites = [(node, f"calls {name}") for node, name in calls(tree)
                 if name.split(".")[-1] == "fork"]
        sites += [(node, f"imports {module}") for node, module in imports(tree)
                  if (module or "").split(".")[0] == "multiprocessing"]
        for node, what in sites:
            (inside if id(node) in allowed else outside).append(
                f"{path.name} line {node.lineno}: {what}"
            )
    assert not outside, "; ".join(outside) + "; fork through periodic.beside_child"
    assert sorted(site.split(": ")[1] for site in inside) == [
        "calls os.fork", "imports multiprocessing"
    ]
