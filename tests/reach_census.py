"""Reach census: the statements of the package's function bodies that a
short run of CLI calls leaves unexecuted.

Imports the package and makes ``test_reach.CALLS`` and ``analyze`` at the
alpha height ladder in one process under ``sys.settrace``, then prints each
function with statements not run (by first line), each module's count and
the total; docstrings, ``global`` and ``nonlocal`` do not count.  Stdlib
only and outside the test suite: ``python -m tests.reach_census`` from the
repository root.
"""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fibrant").glob("*.py"))
sys.path[:0] = [str(SOURCES[0].parents[1]), str(Path(__file__).parent)]
LADDER = ("1", "101/13", "12345/678", "1000003/999983")


def children(node):
    """The statements directly under a node, through handlers and cases."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        elif not isinstance(child, ast.expr):
            yield from children(child)


def lines(node) -> set:
    return set(range(node.lineno, node.end_lineno + 1))


def functions(tree, prefix=""):
    """(qualified name, {first line: the lines of the statement outside the
    statements under it}) of each function under ``tree``, nested ones
    too; a definition's body counts as its own function."""
    for node in children(tree):
        if isinstance(node, ast.FunctionDef):
            own, todo = {}, list(node.body)
            while todo:
                stmt = todo.pop()
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                    continue
                if not isinstance(stmt, (ast.Global, ast.Nonlocal, ast.ClassDef, ast.FunctionDef)):
                    inner = list(children(stmt))
                    own[stmt.lineno] = lines(stmt).difference(*map(lines, inner))
                    todo += inner
            yield prefix + node.name, own
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield from functions(node, f"{prefix}{node.name}.")


@contextlib.contextmanager
def traced():
    """Yield the set of (file, line) of each line event in the package
    while the block runs, filled as it runs."""
    files, seen = set(map(str, SOURCES)), set()

    def line(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename in files else None)
    try:
        yield seen
    finally:
        sys.settrace(None)


def executed_lines() -> set:
    """(file, line) of each line event in the package while it is imported
    and makes the calls."""
    with traced() as seen:
        cli, calls = importlib.import_module("fibrant.cli"), importlib.import_module("test_reach").CALLS
        for argv in calls + [["analyze", "--alpha", alpha] for alpha in LADDER]:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with contextlib.suppress(SystemExit):
                    cli.main(argv)
    return seen


def census(seen=None) -> dict:
    """{module: {qualified name: (first lines of the statements left
    unexecuted, number of statements)}} for the lines in ``seen``, by
    default those of ``executed_lines``."""
    seen, report = executed_lines() if seen is None else seen, {}
    for path in SOURCES:
        hit = {n for f, n in seen if f == str(path)}
        report[path.stem] = {
            name: (sorted(first for first, span in own.items() if not span & hit), len(own))
            for name, own in functions(ast.parse(path.read_text()))
        }
    return report


def main(seen=None):
    sums = {}
    for module, table in census(seen).items():
        for name, (missed, count) in table.items():
            if missed:
                print(f"{module}.{name}: {len(missed)} of {count}, lines {missed}")
        sums[module] = sum(len(m) for m, _ in table.values()), sum(c for _, c in table.values())
    sums["total"] = tuple(map(sum, zip(*sums.values())))
    for module, (missed, count) in sums.items():
        print(f"{module}: {missed} of {count} function-body statements unexecuted")


if __name__ == "__main__":
    main()
