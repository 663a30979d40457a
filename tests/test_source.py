import ast
from pathlib import Path

import empathica


def test_no_runtime_asserts_in_the_package():
    # `python -O` strips assert statements, so an invariant the library
    # relies on must be a check that raises or a test, never an assert.
    offenders = []
    for path in sorted(Path(empathica.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []
