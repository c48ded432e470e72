"""Every module-level import in the package, the tests, the demos and the
benchmark is used: read by name somewhere in its module, annotations (quoted
ones too) included. A package `__init__.py` imports to re-export, and a name
listed in a module's `__all__` is exported, so neither counts as unused.

Every definition in the package (a module-level function, class or constant,
or a method) is reached: its name appears in the package, the demos or the
benchmark outside its own definition, as a name, an attribute, an imported
name or a word of a string that is not a docstring. The match is by name
alone, so a definition whose name is used for something else counts as
reached; special names (`__len__`) are the interpreter's, not counted."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import vibrosense

PACKAGE = Path(vibrosense.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
BENCHMARK = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES + DEMOS + BENCHMARK, ids=lambda p: (
    str(p.relative_to(PACKAGE)) if p in MODULES else f"{p.parent.name}/{p.name}"))
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


_WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def _names(node, docstrings):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield from n.name.split(".")
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n not in docstrings:
            yield from _WORD.findall(n.value)


def _definitions(tree):
    """(name, node) of each module-level function, class and assigned name,
    and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def unreached_definitions(defining: dict, using: list):
    """(file, name, line) of each definition in the `defining` sources (by
    file) whose name the `using` sources read nowhere but inside it."""
    used = Counter()
    for source in using:
        tree = ast.parse(source)
        used.update(_names(tree, set(_docstrings(tree))))
    found = []
    for path, source in defining.items():
        tree = ast.parse(source)
        docstrings = set(_docstrings(tree))
        for name, node in _definitions(tree):
            special = name.startswith("__") and name.endswith("__")
            if not special and used[name] == sum(n == name for n in _names(node, docstrings)):
                found.append((path, name, node.lineno))
    return found


def test_every_definition_in_the_package_is_reached():
    package = sorted(PACKAGE.rglob("*.py"))
    found = unreached_definitions({p: p.read_text() for p in package},
                                  [p.read_text() for p in package + DEMOS + BENCHMARK])
    assert not found, ", ".join(f"{path.relative_to(PACKAGE)}:{line} defines '{name}', "
                                f"which nothing reaches" for path, name, line in found)


def test_the_reach_scan_finds_one_unreached_function():
    library = (
        "LIMIT = 3\n"
        "class Model:\n"
        "    'Model.fit and orphan are named in docstrings only.'\n"
        "    def __len__(self):\n"
        "        return LIMIT\n"
        "    def fit(self, x):\n"
        "        return self.fit(x[1:]) if x else x\n"
        "def helper():\n"
        "    return Model\n"
        "def orphan(n):\n"
        "    'orphan(n) calls only itself.'\n"
        "    return orphan(n - 1) if n else 0\n"
    )
    caller = "from library import helper\nTARGETS = ['library.Model.fit']\n"
    assert unreached_definitions({"library.py": library}, [library, caller]) == [
        ("library.py", "orphan", 10)]
