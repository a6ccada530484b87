"""The package's source, read with ``ast``: no module cycles, no private
names shared between modules, no dead API."""

import ast
from pathlib import Path

import fibrant

PACKAGE = Path(fibrant.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"

# Public functions kept although the pipeline does not call them, or the
# CLI calls of ``test_reach`` do not enter them, each with its reason.
KEEP = {
    "kodaira_monodromy": "library feature: the local monodromy of each Kodaira type",
    "lie_poisson_bracket": "the benchmark's control bracket, outside its timed passes",
    "structure": "the alpha-independent report of acceptance criterion 6",
    "canonical": "the isomorphism invariant that structure() compares",
    "is_squarefree": "certifies non-rational crossings, which no call of test_reach meets",
    "exact_divide": "``//`` of polynomials: the PRS fallback, contents and multivariate radicals",
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


def test_upoly_imports_nothing_from_the_package():
    """The univariate integer layer stands alone; ``poly`` builds on it."""
    graph = import_graph()
    assert graph["upoly"] == set()
    assert graph["poly"] == {"upoly"}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path) -> list:
    """"module:line name" for each underscore name that one module of the
    package imports from another, or reads off a package module it imported."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    tree = ast.parse(path.read_text())
    found, bound = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 or (node.module or "").startswith("fibrant"):
            found += [(node.lineno, a.name) for a in node.names if is_private(a.name)]
            if node.module in (None, "fibrant"):
                bound |= {a.asname or a.name for a in node.names if a.name in modules}
    found += [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound and is_private(node.attr)
    ]
    return [f"{path.stem}:{line} {name}" for line, name in sorted(found)]


def test_no_private_names_across_modules():
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_imports(path)] == []


def test_private_import_finder(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from . import __version__, monodromy\n"
        "from .poly import MultiPoly, _make\n"
        "from fibrant.weierstrass import _hidden\n"
        "x = monodromy._table, monodromy.SL2Z, MultiPoly._ints\n"
    )
    assert private_imports(source) == [
        "probe:2 _make", "probe:3 _hidden", "probe:4 _table",
    ]


def reraise_only_handlers(path: Path) -> list:
    """"module:line" of each ``except`` clause whose whole body is a bare ``raise``."""
    return [
        f"{path.stem}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Raise)
        and node.body[0].exc is None
    ]


def test_no_handler_only_reraises():
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in reraise_only_handlers(path)] == []


def test_reraise_finder(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "try:\n    f()\nexcept KeyError:\n    raise\n"
        "except OSError as exc:\n    raise ValueError() from exc\n"
        "except TypeError:\n    log()\n    raise\n"
    )
    assert reraise_only_handlers(source) == ["probe:3"]


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
        if name.split(".")[-1] not in used.union(KEEP)
    ]
    assert dead == []


def test_every_kept_name_is_a_public_function():
    public = {name.split(".")[-1] for _, name in public_functions()}
    assert sorted(set(KEEP) - public) == []


KODAIRA_TAGS = {"II", "III", "IV", "I0*", "IV*", "III*", "II*"}
KODAIRA_TABLES = ("_KODAIRA_ROWS", "_ADDITIVE_COLLISIONS")


def kodaira_tag_constants(path: Path) -> tuple:
    """(tags written inside each table of ``KODAIRA_TABLES``, "module:line
    tag" for each one written anywhere else) of a module's source."""
    tree = ast.parse(path.read_text())
    inside = {name: set() for name in KODAIRA_TABLES}
    seen = set()
    for node in ast.walk(tree):
        name = getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
        if name in inside:
            for leaf in ast.walk(node.value):
                if isinstance(leaf, ast.Constant) and leaf.value in KODAIRA_TAGS:
                    inside[name].add(leaf.value)
                    seen.add(id(leaf))
    outside = [
        f"{path.stem}:{node.lineno} {node.value}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in KODAIRA_TAGS and id(node) not in seen
    ]
    return inside, outside


def test_kodaira_tags_are_written_only_in_the_tables():
    """Each fiber type of one tag has one home: its row of Kodaira's table
    (and the collision rows that name it), not a second table or branch."""
    inside = {name: set() for name in KODAIRA_TABLES}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        found, elsewhere = kodaira_tag_constants(path)
        for name, tags in found.items():
            inside[name] |= tags
        outside += elsewhere
    assert inside["_KODAIRA_ROWS"] == KODAIRA_TAGS
    assert inside["_ADDITIVE_COLLISIONS"]
    assert outside == []


def test_kodaira_tag_finder(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        '_KODAIRA_ROWS = (("II", 1), ("I{}", 2))\n'
        "_OTHER = {'III*': 3}\n"
        "def f(tag):\n    return tag == 'IV' or tag == 'I0'\n"
    )
    inside, outside = kodaira_tag_constants(source)
    assert inside == {"_KODAIRA_ROWS": {"II"}, "_ADDITIVE_COLLISIONS": set()}
    assert outside == ["probe:2 III*", "probe:4 IV"]
