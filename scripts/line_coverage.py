"""List the lines of ``src/empathica`` that the tier-1 tests never run.

    python scripts/line_coverage.py [PYTEST_ARGS...]

Runs pytest in this process under ``sys.settrace`` (and ``threading.settrace``
for any thread the tests start), with ``src`` first on the import path, and
records every line that runs in the package's sources.  Without arguments
pytest runs the tier-1 suite.  A source's executable lines are the line
numbers in its code objects' ``co_lines()``, less the lines inside the body
of an ``if TYPE_CHECKING:`` block, found in the source's syntax tree: those
hold imports for annotations only and never run by design.  Every other
executable line that never ran is printed.

Exit status: 0 when every such line ran, 1 otherwise.  Only the line list
decides it: the tests run far slower under the tracer, so their own results,
timing bounds among them, are reported and not gated on; the untraced tier-1
run is the gate for those.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "empathica"
TIER_1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of the source at ``path``,
    except those inside the body of an ``if TYPE_CHECKING:`` block."""
    source = path.read_text(encoding="utf-8")
    stack = [compile(source, str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        # A module's first instruction sits on line 0.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.If):
            continue
        # ``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``; an ``else`` runs.
        name = getattr(node.test, "id", None) or getattr(node.test, "attr", None)
        if name == "TYPE_CHECKING":
            lines -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``pytest_args`` under the tracer: its exit code, and the
    lines that ran in each package source, by file name."""
    names = {os.path.realpath(p): p.name for p in PACKAGE.glob("*.py")}
    hits: dict[str, set[int]] = {name: set() for name in names.values()}
    known: dict[str, str | None] = {}

    def local_tracer(ran: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return trace

        return trace

    tracers = {name: local_tracer(ran) for name, ran in hits.items()}

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            name = known[filename]
        except KeyError:
            name = known[filename] = names.get(os.path.realpath(filename))
        if name is None:
            return None
        # A call's first line (its ``def`` or first decorator) gets no line
        # event of its own.
        hits[name].add(frame.f_lineno)
        return tracers[name]

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(pytest_args: list[str]) -> int:
    code, hits = traced_run(pytest_args or TIER_1)
    unrun = sorted(
        (path.name, line)
        for path in PACKAGE.glob("*.py")
        for line in executable_lines(path) - hits[path.name]
    )
    print(f"\npytest exit code under the tracer: {code} (not gated on)")
    for name, line in unrun:
        print(f"src/empathica/{name}:{line}: NOT RUN")
    print(f"{len(unrun)} lines never ran")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
