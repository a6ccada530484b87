"""The package's import graph, read from the source: no module cycles."""

import ast
from pathlib import Path

import fibrant

PACKAGE = Path(fibrant.__file__).resolve().parent


def import_graph() -> dict:
    """module -> modules of the package it imports, anywhere in its body."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for module in modules:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    targets.add(node.module.split(".")[0])
                else:
                    targets |= {a.name if a.name in modules else "__init__" for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fibrant"):
                parts = node.module.split(".")
                targets.add(parts[1] if len(parts) > 1 else "__init__")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "fibrant":
                        targets.add(parts[1] if len(parts) > 1 else "__init__")
        graph[module] = targets & modules
    return graph


def find_cycle(graph: dict):
    """One cycle of the graph as a list of modules, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for target in sorted(graph[node]):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            cycle = visit(start, [start])
            if cycle:
                return cycle
    return None


def test_graph_sees_function_local_imports():
    graph = import_graph()
    assert "lagrange" in graph["miranda"]  # imported inside analyze_lagrange_family
    assert "__init__" in graph["cli"]      # from . import __version__


def test_no_import_cycle():
    assert find_cycle(import_graph()) is None


def test_cycle_finder():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None
