"""The runtime is pure standard library (pyproject.toml: dependencies = []),
and its start-up imports no module it does not need.

Test dependencies such as hypothesis, networkx and numpy are installed next
to the package, so an accidental runtime import of one of them would pass
every other test.
"""
import ast
import os
import pathlib
import subprocess
import sys
from graphlib import TopologicalSorter

import causalexpl

PACKAGE = pathlib.Path(causalexpl.__file__).resolve().parent


def _imported_modules(path):
    """The top-level names of the absolute imports of one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _package_imports(path):
    """The package modules one source file imports relatively, at any
    depth: x for ``from .x import y`` and for ``from . import x``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_package_import_graph_is_acyclic():
    # function-level imports count: a cycle through one is still a cycle
    sources = sorted(PACKAGE.glob("*.py"))
    graph = {path.stem: set(_package_imports(path)) for path in sources}
    assert graph["model"] == set()
    TopologicalSorter(graph).prepare()  # CycleError names the cycle


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    foreign = sorted("%s imports %s" % (path.name, module)
                     for path in sources
                     for module in _imported_modules(path)
                     if module not in sys.stdlib_module_names
                     and module != "causalexpl")
    assert sources and foreign == []


def test_runtime_parses_as_the_oldest_supported_python():
    # pyproject.toml: requires-python = ">=3.10"
    sources = sorted(PACKAGE.glob("*.py"))
    for path in sources:
        ast.parse(path.read_text(), filename=path.name, feature_version=(3, 10))
    assert sources


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, and the two take longer to import than
    # the rest of the package does; json is read and written only for JSON,
    # the oracle runs only under --oracle, and graphlib only where a theory
    # is validated; -S keeps site-packages' own imports out
    code = ("import sys, causalexpl.cli; print(sorted({'dataclasses', "
            "'inspect', 'json', 'causalexpl.oracle', 'graphlib'} & "
            "sys.modules.keys()))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
