"""Import discipline and grid time inside the rpsde package, checked on the
source with ast.

A module may import only public names from another rpsde module, and only at
module level: a private name shared across modules belongs in the module
that owns it, made public, and a function-level import hides a dependency.
A time becomes a whole number of cells only in `noise.grid_steps`, so the
builtin `round` is called nowhere else.
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
    allowed = set()
    if path.name == "noise.py":
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "grid_steps":
                allowed.update(id(n) for n in ast.walk(fn))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "round"
        and id(node) not in allowed
    ]
    assert not calls, f"{path.name}: round() at lines {calls}; use noise.grid_steps"
