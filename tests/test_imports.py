"""Every module-level import in the package, the tests and the demos is used:
read by name somewhere in its module, annotations (quoted ones too) included.
A package `__init__.py` imports to re-export, and a name listed in a module's
`__all__` is exported, so neither counts as unused."""

import ast
from pathlib import Path

import pytest

import vibrosense

PACKAGE = Path(vibrosense.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def _imported(tree):
    """(bound name, line) of each module-level import; `import a.b` binds `a`."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        else:
            continue
        if ann is not None:
            yield ann


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")
                names |= {m.id for m in ast.walk(quoted) if isinstance(m, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {e.value for e in node.value.elts}
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES + DEMOS, ids=lambda p: (
    f"{p.parent.name}/{p.name}" if p in TEST_MODULES + DEMOS else str(p.relative_to(PACKAGE))))
def test_module_level_imports_are_used(path):
    found = unused_imports(path.read_text())
    assert not found, ", ".join(f"{path.name}:{line} imports '{name}' unused" for name, line in found)


def test_the_scan_sees_annotations_and_exports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Dict, List, Optional\n"
        "from .core import A, B\n"
        "__all__ = ['B']\n"
        "def f(x: Dict) -> 'Optional[int]':\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [("os", 2), ("List", 3), ("A", 4)]
