"""The runtime is pure standard library (pyproject.toml: dependencies = []).

Test dependencies such as hypothesis, networkx and numpy are installed next
to the package, so an accidental runtime import of one of them would pass
every other test.
"""
import ast
import pathlib
import sys

import causalexpl

PACKAGE = pathlib.Path(causalexpl.__file__).resolve().parent


def _imported_modules(path):
    """The top-level names of the absolute imports of one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    foreign = sorted("%s imports %s" % (path.name, module)
                     for path in sources
                     for module in _imported_modules(path)
                     if module not in sys.stdlib_module_names
                     and module != "causalexpl")
    assert sources and foreign == []
