"""Every module-level import and private name in the package is referenced,
and every public name of a library module is exported by the package."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import mqspace

PACKAGE = Path(mqspace.__file__).resolve().parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """``(bound name, line)`` of each import at module level."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree):
    """Names the module loads, in code or in quoted annotations, or exports."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private_definitions(node):
    """Private names a module-level statement defines, dunders excluded."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _loaded(tree):
    """Names the tree loads, bare or as an attribute of some object."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_private_module_names_are_used():
    # every module-level private function, class and constant is loaded
    # somewhere in the package outside the statement that defines it
    statements = [
        (path.name, node, _loaded(node))
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    loads = Counter(name for _, _, loaded in statements for name in loaded)
    orphans = [
        f"{module}: {name} (line {node.lineno})"
        for module, node, loaded in statements
        for name in _private_definitions(node)
        if loads[name] == (name in loaded)
    ]
    assert orphans == [], f"private names nothing loads: {', '.join(sorted(orphans))}"


# the command line and its number formatter are not library API
NOT_REEXPORTED = {"cli.py", "doubles.py"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in NOT_REEXPORTED], ids=lambda p: p.name
)
def test_module_exports_are_package_exports(path):
    module = importlib.import_module(f"mqspace.{path.stem}")
    missing = sorted(set(getattr(module, "__all__", ())) - set(mqspace.__all__))
    assert missing == [], f"{path.name} exports names mqspace does not: {', '.join(missing)}"
