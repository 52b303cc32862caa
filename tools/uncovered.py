"""The statements of the package that no test runs.

    python3 tools/uncovered.py                  # the whole test suite
    python3 tools/uncovered.py tests/test_cli.py -k coassoc   # any pytest arguments

Runs pytest in this process under a line trace (sys.settrace) that records
every line executed in `src/askeycg/*.py`, then prints, file by file, each
statement none of whose own lines was executed, as `path:line: text`, and
a count. A statement's own lines are all its lines for a simple statement,
and the header (decorators up to the first line of the body) for a
compound one, so a multi-line call counts as run wherever the trace enters
it. Docstrings and `global`/`nonlocal` declarations compile to no code,
and the body of `if TYPE_CHECKING:` is for type checkers only, so neither
is ever reported. The trace slows the suite about threefold, so this is
not part of the test suite: run it from the root of a checkout, like
`bench/`. Stdlib and pytest only; no file is written.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "askeycg"


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that belong to it and not to a nested one."""
    body = getattr(node, "body", None)
    if not body:
        return range(node.lineno, node.end_lineno + 1)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, max(body[0].lineno, node.lineno + 1))


def _compiles_to_nothing(node: ast.stmt, docstring: bool) -> bool:
    return isinstance(node, (ast.Global, ast.Nonlocal)) or (
        docstring and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str))


def _statements(body: list, in_scope: bool):
    """Every statement of a body that compiles to code, nested ones
    included; the first statement of a function or class body that is a
    string literal is its docstring."""
    for i, node in enumerate(body):
        if not _compiles_to_nothing(node, in_scope and i == 0):
            yield node
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            continue  # imports for type checkers only, never run
        scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []), scope and field == "body")
        for handler in getattr(node, "handlers", ()):
            yield from _statements(handler.body, False)
        for case in getattr(node, "cases", ()):
            yield from _statements(case.body, False)


def unexecuted(source: str, executed: set[int]) -> list[int]:
    """The first lines, in order, of the statements of `source` none of
    whose own lines is in `executed`, the lines a trace saw run."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in _statements(tree.body, False)
                  if executed.isdisjoint(_own_lines(node)))


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit code, {file: executed lines}) for the package's files."""
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set())
        return local

    import pytest

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, seen


def main(argv: list[str]) -> int:
    code, seen = traced_run(argv or [str(ROOT / "tests")])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for n in unexecuted(source, seen.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
            total += 1
    print(f"{total} statements in src/askeycg/ ran in no test (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main(sys.argv[1:]))
