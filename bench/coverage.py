"""List the statements of src/tvar2 that the tier-1 tests never execute.

Usage, from the root of a checkout:

    python3 bench/coverage.py [PYTEST_ARGS ...]

It runs pytest in this process (by default the tier-1 suite, `-q
--continue-on-collection-errors`, on tests/) with a line tracer
installed through sys.settrace and threading.settrace, so code that a
test runs on a thread of its own (the concurrent-caller tests) is traced
too; code run in child processes is not.  It then prints `path:line` for
every line of a src/tvar2 module that holds an instruction of some code
object of that module, outside the body of an `if TYPE_CHECKING:` or
`if __name__ == "__main__":` block, and raised no trace event, and
exits with pytest's exit status.
pytest's own report goes to standard error, so standard output holds
the list alone.  Only the standard library is used.  Tracing slows the
suite down about twofold.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tvar2")
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         os.path.join(ROOT, "tests")]


# tests of the if blocks whose bodies run only under a type checker, or
# only in a process of their own, which the tracer does not follow; as
# ast.unparse writes them
ELSEWHERE = {"TYPE_CHECKING", "typing.TYPE_CHECKING", "__name__ == '__main__'"}


def skipped_lines(tree: ast.AST) -> set[int]:
    """Lines of the bodies of ``if TYPE_CHECKING:``, ``if
    typing.TYPE_CHECKING:`` and ``if __name__ == "__main__":`` blocks; their
    ``else`` branches run here and are not included."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in ELSEWHERE:
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def statement_lines(path: str) -> set[int]:
    """Lines of ``path`` that hold an instruction of the module's code or
    of any code object nested in it, except those of ``if TYPE_CHECKING:``
    and ``if __name__ == "__main__":`` bodies."""
    with open(path) as fh:
        source = fh.read()
    todo = [compile(source, path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - skipped_lines(ast.parse(source, path))


def unexecuted(package: str, run) -> tuple[object, list[tuple[str, int]]]:
    """Call ``run()`` with every line of the .py files under ``package``
    traced; return its result and the (path, line) statements that raised
    no event, in path and line order.  The trace functions in place before
    the call are put back after it."""
    package = os.path.abspath(package) + os.sep
    seen = set()

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            return local(frame, event, arg)
        return None

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    missed = []
    for folder, _, files in sorted(os.walk(package)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            missed += [(path, line) for line in sorted(statement_lines(path))
                       if (path, line) not in seen]
    return result, missed


def main(argv=None) -> int:
    import pytest
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with contextlib.redirect_stdout(sys.stderr):
        status, missed = unexecuted(PACKAGE,
                                    lambda: pytest.main(args or TIER1))
    for path, line in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line}")
    print(f"{len(missed)} statement lines never executed", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
