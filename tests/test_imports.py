"""The package's runtime dependencies are numpy and scipy alone; the test
extras (networkx, mpmath, hypothesis) are installed wherever the tests run,
so an import of one of them in the package would pass every other test.
scipy loads only where a graph needs it."""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

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


def test_commands_without_graphs_load_no_scipy():
    # A fresh interpreter: this one has loaded scipy long ago.  predict and
    # sweep build no graph; generate builds one but never labels components.
    script = textwrap.dedent("""
        import contextlib, io, sys
        from ffparadox import cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        assert scipy_modules() == [], scipy_modules()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["predict", "--alpha", "2.5", "--kmax", "100"]) == 0
            assert cli.main(["sweep", "--alphas", "2,2.5", "--kmaxs", "10,100"]) == 0
        assert scipy_modules() == [], scipy_modules()
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["generate", "--kmax", "100", "--n", "1000", "--seed", "1"]) == 0
        assert "scipy.sparse" in sys.modules
        assert "scipy.sparse.csgraph" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(ffparadox.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
