"""List the statements of src/oscigeo that a test run never executes.

coverage is not a dependency, so this runs pytest in this process under a
stdlib ``sys.settrace`` line tracer that records the lines executed in
src/oscigeo, and prints each statement none of whose own lines ran.  A
compound statement's own lines are its header (decorators, ``if``,
``for``, ``def`` ...), not its body, which is judged statement by
statement.  Code run in a child process, such as the CLI tests that start
``python -m oscigeo``, is not traced, so what only those tests reach is
listed too.

Usage, from the repository root:

    python tools/linecov.py [pytest arguments]

With no arguments it runs the Tier-1 suite (``-q
--continue-on-collection-errors`` over ``tests``), which takes a few
minutes under the tracer.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oscigeo"


def executable_lines(code) -> set[int]:
    """The lines that carry bytecode in a code object and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable_lines(const)
    return lines


def statements(tree: ast.Module) -> list[tuple[ast.stmt, set[int]]]:
    """Each statement with the span of its own lines: its own span minus its children's."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
            elif isinstance(child, ast.ExceptHandler):  # its header stays, its body goes
                for inner in child.body:
                    own -= set(range(inner.lineno, inner.end_lineno + 1))
        out.append((node, own))
    return out


def unreached(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """(line, source) of each statement of path with executable own lines, none of them hit."""
    source = path.read_text()
    executable = executable_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []
    for node, own in statements(ast.parse(source, filename=str(path))):
        lines = own & executable
        if lines and not lines & hit:
            found.append((min(lines), text[min(lines) - 1].strip()))
    return sorted(found)


def trace_run(pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest under the line tracer; its exit code and the lines hit per package file."""
    import pytest

    hits: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    files: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None outside the package

    def lines_of(filename: str) -> set[int] | None:
        if filename not in files:
            files[filename] = hits.get(Path(os.path.realpath(filename)))
        return files[filename]

    def local(frame, event, arg):
        if event == "line":
            lines_of(frame.f_code.co_filename).add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if lines_of(frame.f_code.co_filename) is not None else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(start)
    sys.settrace(start)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, hits = trace_run(argv or ["-q", "--continue-on-collection-errors", "tests"])
    total = 0
    print("\nstatements of src/oscigeo that no test reached:")
    for path in sorted(hits):
        for line, text in unreached(path, hits[path]):
            print(f"  {path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} unreached statements")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
