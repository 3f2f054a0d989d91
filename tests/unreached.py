"""List the statements of ``src/koopstab`` that the test suite never runs.

Runs pytest in this process under a ``sys.settrace`` line tracer, then
compares the lines it saw with every statement of the package that
compiles to bytecode. A statement counts as reached when its first line
ran. Prints each unreached statement as ``path:line: source`` and exits 1
when one of them is not in ``ALLOWED``; a failing test run exits with
pytest's own code. Needs only the standard library and pytest::

    PYTHONPATH=src python tests/unreached.py

By default it runs ``tests/`` without criteria 09 and 10, whose two
3000-epoch trainings run in worker processes that the tracer does not
see; further arguments are passed on to pytest. The file is not collected
as a test.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "koopstab"
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
               "-k", "not criterion_09 and not criterion_10"]

# file -> text that an unreached statement's source may contain
ALLOWED = {
    # the console-script entry point; tests call main() in-process, and the
    # one test that starts `python -m koopstab.cli` runs outside the tracer
    "cli.py": ("sys.exit(main())",),
    # reached only by a strict xfail in bench/tests, which pins a known
    # defect: asymmetric pgd_project falling short on two large EDMD fits
    "projection.py": ("failed to reach barrier targets",),
}


def statements(path: Path) -> dict[int, str]:
    """First line -> source of every statement of ``path`` that has bytecode.

    A docstring or a ``global`` line compiles to nothing, so it is left out.
    """
    source = path.read_text(encoding="utf-8")
    code_lines = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {node.lineno: ast.get_source_segment(source, node)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in code_lines}


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file, line) pairs of the package that ran."""
    prefix = str(PACKAGE) + os.sep
    ours: dict[str, bool] = {}
    seen: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            ours[filename] = os.path.realpath(filename).startswith(prefix)
        return trace_lines if ours[filename] else None

    sys.settrace(trace_calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), {(os.path.realpath(f), line) for f, line in seen}


def main(argv: list[str]) -> int:
    code, seen = run_traced(PYTEST_ARGS + argv)
    if code != 0:
        print(f"unreached: pytest exited {code}; no coverage verdict", file=sys.stderr)
        return code
    refused = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, source in sorted(statements(path).items()):
            if (str(path), line) in seen:
                continue
            allowed = any(text in source for text in ALLOWED.get(path.name, ()))
            refused += not allowed
            first = source.splitlines()[0]
            print(f"{path.relative_to(ROOT)}:{line}: {first}"
                  f"{'  (allowed)' if allowed else ''}")
    if refused:
        print(f"unreached: {refused} statement(s) outside the allowlist", file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
