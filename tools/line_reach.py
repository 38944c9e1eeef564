"""Print each statement of src/qbarrier that no test in tests/ runs.

Runs pytest in-process under `sys.settrace` and `threading.settrace`, then
lists every executable statement that never ran as src/qbarrier/<file>:<line>.
Definitions, imports, docstrings, bare annotations and the body of an
`if __name__ == "__main__":` block are not counted.  Exits 1 if a test
fails or a statement is listed.

    python3 tools/line_reach.py [extra pytest arguments]
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbarrier"
DECLARATIONS = (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def executable(node):
    if isinstance(node, ast.AnnAssign):
        return node.value is not None
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return not isinstance(node.value.value, str)  # a docstring
    return isinstance(node, ast.stmt) and not isinstance(node, DECLARATIONS)


def unreached(path, ran):
    """First lines of the statements in path with no line of their own in ran."""
    tree = ast.parse(path.read_text(), str(path))
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            skip.update(range(node.body[0].lineno, node.end_lineno + 1))
    for node in ast.walk(tree):
        if executable(node) and node.lineno not in skip:
            body = getattr(node, "body", None)  # a compound statement owns its header only
            last = body[0].lineno - 1 if body else node.end_lineno
            if ran.isdisjoint(range(node.lineno, last + 1)):
                yield node.lineno


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    ran = set()  # (file name, line number) pairs that ran
    inside = {}  # file name -> whether it is a module of the package

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(os.path.realpath(name)).parent == PACKAGE
        return trace_lines if inside[name] else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        failed = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {}
    for name, line in ran:
        lines.setdefault(Path(name).name, set()).add(line)
    missed = [f"src/qbarrier/{path.name}:{line}"
              for path in sorted(PACKAGE.glob("*.py"))
              for line in sorted(unreached(path, lines.get(path.name, set())))]
    for line in missed:
        print(line)
    return 1 if failed or missed else 0


if __name__ == "__main__":
    sys.exit(main())
