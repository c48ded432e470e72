"""Every module-level import in the package, the tests, the demos and the
benchmark is used: read by name somewhere in its module, annotations (quoted
ones too) included. A package `__init__.py` imports to re-export, and a name
listed in a module's `__all__` is exported, so neither counts as unused.

Every definition in the package (a module-level function, class or constant,
or a method) is reached: its name appears in the package, the demos or the
benchmark outside its own definition, as a name, an attribute, an imported
name or a word of a string that is not a docstring. The match is by name
alone, so a definition whose name is used for something else counts as
reached; special names (`__len__`) are the interpreter's, not counted.

Every defaulted parameter of a function, method or constructor in the
package, and every defaulted dataclass field, is set by some call in the
package, the demos or the benchmark (tests are not entry points), or is kept
on purpose in `KEPT`, with its reason. A call sets a parameter by keyword, or
by position (a method's `self` or `cls` is not counted); `partial(f, ...)`
calls f, `super().__init__` the class's first base, a class without its own
`__init__` its base's, and `dataclasses.replace` sets the fields it names on
every dataclass. A `*` or `**` argument sets all of its callee's parameters.
Callees are matched by name alone, as definitions are above."""

import ast
import re
from collections import Counter, defaultdict
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


def _decorated(node, name):
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if _callee(d) == name:
            return True
    return False


def _callee(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _parameters(fn, method):
    """(name, position or None, defaulted) of each parameter of `fn`; a
    method's first parameter is its instance or class, and has no position."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first_default = len(positional) - len(a.defaults)
    skip = 1 if method and not _decorated(fn, "staticmethod") else 0
    for i, arg in enumerate(positional[skip:], skip):
        yield arg.arg, i - skip, i >= first_default
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        yield arg.arg, None, default is not None


def _fields(cls):
    """(name, position, defaulted) of each constructor field of a dataclass."""
    position = 0
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign) or "ClassVar" in ast.unparse(node.annotation):
            continue
        value = node.value
        if isinstance(value, ast.Call) and _callee(value.func) == "field" and any(
                k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords):
            continue
        yield node.target.id, position, value is not None
        position += 1


def _signatures(tree):
    """(callee, qualified name, parameters, line) of each function, method,
    constructor and dataclass in `tree`; a constructor's callee is its class."""
    def visit(node, cls, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _decorated(child, "dataclass"):
                    yield child.name, prefix + child.name, list(_fields(child)), child.lineno
                yield from visit(child, child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = cls.name if cls is not None and child.name == "__init__" else child.name
                yield (callee, prefix + child.name, list(_parameters(child, cls is not None)),
                       child.lineno)
                yield from visit(child, None, prefix + child.name + ".")
            else:
                yield from visit(child, cls, prefix)
    yield from visit(tree, None, "")


REPLACE = "dataclasses.replace"


def _calls(tree):
    """(callee, positional count, keywords, spread) of each call in `tree`;
    the callee of `dataclasses.replace` is REPLACE, and of a call whose
    function has no name (`f()()`) None."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func, args = child.func, child.args
                callee = _callee(func)
                if callee == "partial" and args:
                    callee, args = _callee(args[0]), args[1:]
                elif callee == "replace" and args and (
                        isinstance(func, ast.Name) or _callee(func.value) == "dataclasses"):
                    callee = REPLACE
                elif callee == "__init__" and isinstance(func.value, ast.Call) and \
                        _callee(func.value.func) == "super" and cls is not None and cls.bases:
                    callee = _callee(cls.bases[0])
                spread = any(isinstance(a, ast.Starred) for a in args) or any(
                    k.arg is None for k in child.keywords)
                yield callee, len(args), {k.arg for k in child.keywords}, spread
            yield from visit(child, child if isinstance(child, ast.ClassDef) else cls)
    yield from visit(tree, None)


def unset_defaults(defining: dict, using: list):
    """(file, qualified name, parameter, line) of each defaulted parameter or
    dataclass field in the `defining` sources (by file) that no call in the
    `using` sources sets."""
    inherits, dataclasses, signatures = {}, set(), []
    for path, source in defining.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _decorated(node, "dataclass"):
                dataclasses.add(node.name)
            elif node.bases and not any(getattr(m, "name", None) == "__init__" for m in node.body):
                inherits[node.name] = _callee(node.bases[0])
        signatures += [(path, *s) for s in _signatures(tree)]
    keywords, positions, spread = defaultdict(set), Counter(), set()
    for source in using:
        for callee, n, names, spreads in _calls(ast.parse(source)):
            while callee in inherits:
                callee = inherits[callee]
            for target in dataclasses if callee == REPLACE else [callee]:
                keywords[target] |= names
                positions[target] = max(positions[target], 0 if callee == REPLACE else n)
                if spreads:
                    spread.add(target)
    return [(path, qualname, name, line)
            for path, callee, qualname, params, line in signatures
            for name, position, defaulted in params
            if defaulted and callee not in spread and name not in keywords[callee]
            and (position is None or position >= positions[callee])]


_ZONE = "the data file's zone, the contract for real logger files"
_SHUTDOWN = "a real logger file's shutdown window"
_FAMILY = ("a forecaster family's hyperparameter: every model file and bench cell records it "
           "through ForecastModelConfig.resolved()")

#: Defaulted parameters and fields that no entry point sets but that stay,
#: as "module.qualified.name": (parameters, reason).
KEPT = {
    "ingest.format_timestamp": ("tz", _ZONE),
    "ingest.parse_process_csv": ("tz", _ZONE),
    "ingest.write_process_csv": ("tz", _ZONE),
    "ingest.parse_pharma_txt": ("tz", _ZONE),
    "ingest.write_pharma_txt": ("tz", _ZONE),
    "anomaly.AnomalyDataset": ("tz", _ZONE),
    "ingest.WeeklySchedule": ("off_start_weekday off_start_hour off_end_weekday off_end_hour tz",
                              _SHUTDOWN),
    "synth.generate_process": ("schedule interval_s", "a logger's shutdown window and row "
                               "spacing, which the generator's tests vary"),
    "ingest.label_process_rows": ("abnormal_dates schedule",
                                  "a real logger file's abnormal days and shutdown window"),
    "classify.train_transfer": ("freeze_hidden", "perfbench/spans.py times classify._train_frozen "
                                "by name, so the frozen path goes when the benchmark drops it"),
    "forecast.classical.SeasonalNaive.__init__": ("m", _FAMILY),
    "forecast.classical.Arima.__init__": ("p d q fit_intercept", _FAMILY),
    "forecast.forest.RandomForestForecaster.__init__": ("n_trees max_depth lag_window seed",
                                                        _FAMILY),
    "forecast.neural.MlpForecaster.__init__": (
        "hidden_layers neurons learning_rate batch_size epochs lag_window seed", _FAMILY),
    "forecast.neural.RnnForecaster.__init__": (
        "hidden_layers neurons learning_rate batch_size epochs lag_window seed", _FAMILY),
    "forecast.neural.LstmForecaster.__init__": (
        "blocks neurons dense_units learning_rate batch_size epochs lag_window seed", _FAMILY),
    "forecast.neural.GaussianRnnForecaster.__init__": (
        "hidden_layers cells learning_rate batch_size epochs lag_window seed", _FAMILY),
    "forecast.neural.AutoencoderForecaster.__init__": (
        "window filters kernel n_layers dropout learning_rate batch_size epochs seed", _FAMILY),
}


def test_every_defaulted_parameter_is_set_by_an_entry_point():
    package = sorted(PACKAGE.rglob("*.py"))
    found = unset_defaults({p: p.read_text() for p in package},
                           [p.read_text() for p in package + DEMOS + BENCHMARK])
    unset = {(".".join(path.relative_to(PACKAGE).with_suffix("").parts) + "." + qualname, name): line
             for path, qualname, name, line in found}
    kept = {(where, name) for where, (names, _) in KEPT.items() for name in names.split()}
    assert not unset.keys() - kept, ", ".join(
        f"{where}({name}) at line {unset[where, name]} has a default that nothing sets"
        for where, name in sorted(unset.keys() - kept))
    assert not kept - unset.keys(), ", ".join(
        f"KEPT lists {where}({name}), which the scan no longer finds unset"
        for where, name in sorted(kept - unset.keys()))


def test_the_default_scan_finds_one_unset_parameter():
    library = (
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Config:\n"
        "    name: str\n"
        "    rate: float = 0.1\n"
        "    tags: list = field(default_factory=list)\n"
        "    cache: dict = field(default=None, init=False)\n"
        "class Model:\n"
        "    def __init__(self, width, depth=2, bias=True):\n"
        "        self.width = width\n"
        "    def fit(self, x, epochs=1, *, verbose=False):\n"
        "        return x\n"
        "class Wide(Model):\n"
        "    pass\n"
        "class Deep(Model):\n"
        "    def __init__(self, layers=3):\n"
        "        super().__init__(4, layers)\n"
        "def train(x, lr=0.1, seed=0):\n"
        "    return x\n"
        "def score(x, scale=1.0):\n"
        "    return x\n"
        "def unset(x, limit=5):\n"
        "    return x\n"
    )
    caller = (
        "import dataclasses\n"
        "from functools import partial\n"
        "Model(3).fit([1], 5, verbose=True)\n"      # epochs: position 1 once self is skipped
        "Deep(layers=4)\n"                          # depth: Deep's super().__init__ sets it
        "Wide(2, bias=False)\n"                     # bias: Wide constructs as Model does
        "partial(train, [1], 0.5)(seed=1)\n"        # lr: position 1 of partial's train call
        "train([1], seed=2)\n"
        "score(*[[1], 2.0])\n"                      # scale: a spread sets every parameter
        "dataclasses.replace(Config('a'), rate=1.0, tags=[])\n"
        "unset([1])\n"
    )
    assert unset_defaults({"library.py": library}, [library, caller]) == [
        ("library.py", "unset", "limit", 22)]
