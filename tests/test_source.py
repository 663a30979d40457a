import ast
import sys
from pathlib import Path

import empathica


def test_no_runtime_asserts_in_the_package():
    # `python -O` strips assert statements, so an invariant the library
    # relies on must be a check that raises or a test, never an assert.
    offenders = []
    for path in sorted(Path(empathica.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def test_package_imports_only_the_standard_library():
    # The package is runtime-dependency-free: every absolute import must be
    # a standard-library module (``__future__`` is one); package modules are
    # imported relatively.
    offenders = []
    for path in sorted(Path(empathica.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert offenders == []
