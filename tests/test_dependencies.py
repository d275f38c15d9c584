"""The package imports nothing beyond the standard library and numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "agentsynth").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "agentsynth"}


def _imported_modules(path):
    """Top-level names of the absolute imports in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    foreign = sorted(set(_imported_modules(path)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def _unread_imports(path):
    """Names a source file imports (``__future__`` aside) but never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_no_dead_imports(path, monkeypatch):
    # an import that no code reads is kept only where the benchmark wraps the
    # module's binding of it (perfbench/layers.py); once it stops wrapping
    # one, this names the alias that can go
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from layers import bindings

    wrapped = {attribute for module, attribute, *_ in bindings()
               if module.__name__ == f"agentsynth.{path.stem}"}
    dead = sorted(_unread_imports(path) - wrapped)
    assert not dead, f"{path.name} imports {dead} and never reads them"


def _private_definitions(path):
    """Names of the module-level functions and classes of a source file
    that start with an underscore."""
    return {node.name for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}


def _read_names(path):
    """Every name a source file reads, bare (``f``) or as an attribute
    (``module.f``)."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_no_unread_private_names(monkeypatch):
    # a private function or class that no package code reads is dead, tests
    # aside; names the benchmark wraps (perfbench/layers.py) are kept
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from layers import bindings

    read = set().union(*map(_read_names, SOURCES))
    wrapped = {attribute for _, attribute, *_ in bindings()}
    unread = sorted(f"{path.stem}.{name}" for path in SOURCES
                    for name in _private_definitions(path) - read - wrapped)
    assert not unread, f"no package code reads {unread}"


def _exception_reprs(path):
    """Lines where an ``except ... as exc`` handler formats ``exc`` with
    ``!r`` or ``repr(exc)``: such a message shows a Python exception's repr,
    not what is wrong with the input."""
    lines = []
    for handler in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name):
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                value = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "repr" and node.args):
                value = node.args[0]
            else:
                continue
            if isinstance(value, ast.Name) and value.id == handler.name:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_exception_repr_in_messages(path):
    lines = _exception_reprs(path)
    assert not lines, f"{path.name} formats a caught exception's repr at lines {lines}"


def _row_grouping_calls(path):
    """``module.function:line`` of every ``lexsort`` call outside
    ``dataset.row_groups`` and every ``unique`` call with an ``axis``
    argument in a source file."""
    calls = []
    for top in ast.parse(path.read_text(), str(path)).body:
        owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if (node.func.attr == "lexsort" and owner != "dataset.row_groups"
                    or node.func.attr == "unique"
                    and any(keyword.arg == "axis" for keyword in node.keywords)):
                calls.append(f"{owner}:{node.lineno}")
    return calls


def test_rows_are_grouped_only_by_row_groups():
    # one implementation of grouping equal rows; np.unique(axis=0) also took
    # 8.1 ms against the lexsort's 3.4 ms on 10,000 x 5 int64 rows
    calls = [call for path in SOURCES for call in _row_grouping_calls(path)]
    assert not calls, f"rows grouped outside dataset.row_groups at {calls}"


def _definitions(path):
    """Names of the module-level functions and classes of a file."""
    return {node.name for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_oracles_stay_out_of_src():
    # a test reference lives in tests/oracles.py only: a package copy of it
    # is a second form of the concept, and the package never reads the tests
    oracles = _definitions(TESTS / "oracles.py")
    copies = sorted(f"{path.stem}.{name}" for path in SOURCES
                    for name in _definitions(path) & oracles)
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    imports = sorted(f"{path.name} imports {module}" for path in SOURCES
                     for module in set(_imported_modules(path)) & test_modules)
    assert not copies, f"src defines the test oracles {copies}"
    assert not imports, f"src imports from the tests: {imports}"


NO_MASKED_ARRAYS = """
import json, sys
from agentsynth import cli, pipeline

config = sys.argv[1]
pipeline.run_pipeline(pipeline.load_config(config))
assert cli.main(["evaluate", "--config", config]) == 0
print(json.dumps("numpy.ma" in sys.modules))
"""


def test_no_pass_imports_numpy_ma(tmp_path):
    # numpy's np.unique without return_index, return_inverse or
    # return_counts imports numpy.ma (13 ms and 1.3 MB per process); the
    # package computes distinct values without it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3, "out_dir": str(tmp_path / "out"),
        "data": {"synthetic": {"kind": "latent-class", "size": 400, "seed": 2,
                               "n_variables": 4, "n_classes": 3, "category_width": 3,
                               "dependence": 0.8, "numeric_variables": 1}},
        "split": {"train_frac": 0.5, "val_frac_of_train": 0.25},
        "generation_count": 200,
        "methods": [
            {"name": "vae", "kind": "vae", "params": {"hidden": [6], "latent_dim": 2,
                                                      "epochs": 2, "batch_size": 32}},
            {"name": "gibbs", "kind": "gibbs", "params": {"warmup": 20, "thinning": 2}},
            {"name": "bn", "kind": "bn", "params": {"algorithm": "greedy"}},
        ],
    }))
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, str(config)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "false", "a pass imported numpy.ma"
