"""List the lines of ``src/empathica`` that the tier-1 tests never run.

    python scripts/line_coverage.py [PYTEST_ARGS...]

Runs pytest in this process under ``sys.settrace`` (and ``threading.settrace``
for any thread the tests start), with ``src`` first on the import path, and
records every line that runs in the package's sources.  Without arguments
pytest runs the tier-1 suite.  A source's executable lines are the line
numbers in its code objects' ``co_lines()``.  Every executable line that
never ran is printed, marked ``allowed`` when ``line_coverage_allowlist.txt``
beside this script names it; that file has one ``FILE:LINE reason`` entry a
line, FILE relative to the package, and ``#`` comments.

Exit status: 0 when every line that never ran is in the allowlist and every
entry there is a line that never ran, 1 otherwise.  Only the line list
decides it: the tests run far slower under the tracer, so their own results,
timing bounds among them, are reported and not gated on; the untraced tier-1
run is the gate for those.
"""
from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "empathica"
ALLOWLIST = Path(__file__).with_name("line_coverage_allowlist.txt")
TIER_1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of the source at ``path``."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        # A module's first instruction sits on line 0.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def read_allowlist(path: Path) -> dict[tuple[str, int], str]:
    """``(file, line) -> reason`` for each entry; an entry needs a reason."""
    entries = {}
    for number, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        text = text.split("#", 1)[0].strip()
        if not text:
            continue
        where, _, reason = text.partition(" ")
        name, _, line = where.rpartition(":")
        if not (name and line.isdigit() and reason.strip()):
            raise SystemExit(f"{path}:{number}: want 'FILE:LINE reason', got {text!r}")
        entries[(name, int(line))] = reason.strip()
    return entries


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
    allowed = read_allowlist(ALLOWLIST)
    code, hits = traced_run(pytest_args or TIER_1)
    unrun = sorted(
        (path.name, line)
        for path in PACKAGE.glob("*.py")
        for line in executable_lines(path) - hits[path.name]
    )
    print(f"\npytest exit code under the tracer: {code} (not gated on)")
    for name, line in unrun:
        status = f"allowed: {allowed[name, line]}" if (name, line) in allowed else "NOT RUN"
        print(f"src/empathica/{name}:{line}: {status}")
    stale = sorted(set(allowed) - set(unrun))
    for name, line in stale:
        print(f"src/empathica/{name}:{line}: in the allowlist, but ran or is not executable")
    missing = [key for key in unrun if key not in allowed]
    print(f"{len(unrun)} lines never ran, {len(missing)} of them not in the allowlist; "
          f"{len(stale)} stale allowlist entries")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
