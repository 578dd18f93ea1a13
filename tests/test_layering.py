"""Import discipline and grid time inside the rpsde package, checked on the
source with ast.

A module may import only public names from another rpsde module, and only at
module level: a private name shared across modules belongs in the module
that owns it, made public, and a function-level import hides a dependency.
A time becomes a whole number of cells only in `noise.grid_steps`, so the
builtin `round` is called nowhere else. Increments have one layout, time
first, which `noise._Streams.fill` writes through the package's only
`transpose`. Files are written by `cli` alone: only `cli` imports csv, and the
builtin `open` and `csv.writer` are called only in `cli._write_csv`, the one
CSV writer. Every public name is used inside the package: a name that only
the tests call belongs in the tests.
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
    allowed = nodes_in(tree, "_Streams.fill") if path.name == "noise.py" else set()
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "transpose" and id(node) not in allowed
    ]
    assert not lines, f"{path.name}: transpose at lines {lines}; increments are (cells, paths, m)"


def calls(tree):
    """(node, called name) for every call in tree, the name as written: "open", "csv.writer"."""
    return [(n, ast.unparse(n.func)) for n in ast.walk(tree) if isinstance(n, ast.Call)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_files_written_only_by_cli_write_csv(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = nodes_in(tree, "_write_csv") if path.name == "cli.py" else set()
    problems = [
        f"line {node.lineno}: calls {name}"
        for node, name in calls(tree)
        if name in ("open", "csv.writer") and id(node) not in allowed
    ]
    for node in ast.walk(tree):
        imported = (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) else []
        )
        if "csv" in imported and path.name != "cli.py":
            problems.append(f"line {node.lineno}: imports csv")
    assert not problems, f"{path.name}: " + "; ".join(problems) + "; write through cli._write_csv"


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
