"""The package's source, read with ``ast``: no module cycles, no dead API."""

import ast
from pathlib import Path

import fibrant

PACKAGE = Path(fibrant.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"

# Library features kept without a caller in the pipeline or the benchmark.
KEEP = {
    "j_invariant",
    "smoothness_certificate",
    "intersection_multiplicity",
    "euler_poisson_rhs",
    "kodaira_monodromy",
    "from_strings",
}


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
    assert "lagrange" in graph["miranda"]  # from .lagrange import build_global_sections
    assert "__init__" in graph["cli"]      # from . import __version__


def test_imports_only_at_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [
            f"{path.stem}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []


def test_no_import_cycle():
    assert find_cycle(import_graph()) is None


def test_cycle_finder():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def public_functions() -> list:
    """(module, qualified name) of each public function and method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                found.append((path.stem, node.name))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [
                    (path.stem, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    return [(m, q) for m, q in found if not q.split(".")[-1].startswith("_")]


def used_names(paths) -> set:
    """Names read, called or imported anywhere in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names


def test_every_public_function_has_a_caller():
    assert BENCH.is_dir(), "run the tests from a source checkout"
    used = used_names([*PACKAGE.glob("*.py"), *BENCH.glob("*.py")])
    dead = [
        f"{module}.{name}"
        for module, name in public_functions()
        if name.split(".")[-1] not in used | KEEP
    ]
    assert dead == []
