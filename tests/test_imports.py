"""Every name a module of the package imports is read somewhere in that
module: an import nothing uses is dead code that still costs a load."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "adhoc_sim")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _imported(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _read(tree):
    """Names the module loads, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _read(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    read = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unused, f"{module} imports names it never reads: {', '.join(unused)}"


def test_reports_an_unused_import():
    tree = ast.parse(
        "from typing import Optional, Callable\n"
        "import os.path\n"
        "def f(x: 'Callable[[], int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    read = _read(tree)
    assert [name for name, _ in _imported(tree) if name not in read] == ["Optional"]
