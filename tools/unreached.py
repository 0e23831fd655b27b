"""List the statements of pathrev's source that no digests case reaches.

    python3 tools/unreached.py

Runs every case of tools/digests.py, setup steps included, in this one
process: each calls `pathrev.cli.main` in a fresh temporary directory, with
its stdout and stderr discarded, under a `sys.settrace` line tracer that
is set before pathrev is imported.  Then, for each `src/pathrev/*.py` of
the checkout holding this script, it prints the statements whose first
line the tracer never saw, each with its line number and text.  Docstrings,
`raise` statements and `if __name__ == "__main__":` blocks are not listed.
The list is a report, not a gate: the exit code is 0.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

from digests import cases

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pathrev"


def statements(path: Path) -> dict[int, str]:
    """First line -> text of each statement of the file that compiles to
    bytecode, less docstrings, raise statements and __main__ blocks."""
    text = path.read_text()
    tree = ast.parse(text)
    skipped = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            skipped.add(node.body[0].lineno)
        if isinstance(node, ast.Raise) or (
                isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    compiled, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        compiled.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    lines = text.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node.lineno in compiled
            and node.lineno not in skipped}


def trace_cases() -> dict[str, set[int]]:
    """File name -> the lines of pathrev seen by the tracer over every case."""
    reached = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        # frames outside pathrev are not traced line by line
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    cwd = os.getcwd()
    sys.settrace(calls)
    try:
        from pathrev.cli import main

        for case in cases(ROOT / "configs"):
            with tempfile.TemporaryDirectory(prefix="pathrev-unreached-") as tmp:
                os.chdir(tmp)
                try:
                    for argv in case.argvs(Path(tmp)):
                        with (contextlib.redirect_stdout(io.StringIO()),
                              contextlib.redirect_stderr(io.StringIO())):
                            main(argv)
                finally:
                    os.chdir(cwd)
    finally:
        sys.settrace(None)
    return reached


def main() -> int:
    reached = trace_cases()
    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statements(path)
        missed = sorted(set(stmts) - reached[str(path)])
        print(f"== src/pathrev/{path.name}: {len(missed)} of {len(stmts)} statements unreached")
        for line in missed:
            print(f"  {line:4d}  {stmts[line]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
