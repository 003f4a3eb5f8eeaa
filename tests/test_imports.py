"""The package's runtime dependencies are numpy and scipy alone; the test
extras (networkx, mpmath, hypothesis) are installed wherever the tests run,
so an import of one of them in the package would pass every other test."""

import ast
import pathlib
import sys

import ffparadox

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def test_package_imports_only_the_standard_library_numpy_and_scipy():
    sources = sorted(pathlib.Path(ffparadox.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []
