"""Every name a library module imports is used in that module, every
import sits at module level, every private module-level function or class
is read somewhere in the library, and every public one is reached from a
command.

No linter ships with the test environment, so this is a small stand-in for
the unused-import, import-position and dead-code checks: parse each module
under ``src/chordalg`` and compare the names bound by its import statements
with the names it reads, list the imports made inside functions, list the
``_name`` functions and classes that no module reads, and walk from the
names the commands read to the public definitions they reach.
``__init__.py`` is skipped by the import checks because its imports are
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chordalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the programs whose names root the reach walk: the CLI and the benchmark
ENTRY_POINTS = [SRC / "cli.py", ROOT / "perfbench" / "run.py"]

# public definitions that no command reaches but that stay, with the reason
KEPT = {
    "brute_alpha": "exact oracle that criterion 8 checks",
    "brute_chromatic": "exact oracle that criterion 8 checks",
    "greedy_color_reverse_peo": "exact oracle that criterion 8 checks",
    "is_chordal": "perfbench/test_longpaths.py checks the generated graphs with it",
    "local_view": "the per-node clique forest that criterion 9 checks",
    "GatherProgram": "the engine's one raw-message program, for demo 03 and the engine tests",
    "color_interval": "interval coloring API that tests/test_intervals.py drives",
    "distance_k_mis": "distance-k independent set API that tests/test_intervals.py drives",
    "maximal_cliques": "public API: a chordal graph's maximal cliques, checked against brute force",
    "mvc_centralized": "public API: the centralized coloring that the MVC tests call",
}


def unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def function_local_imports(source: str):
    tree = ast.parse(source)
    return sorted({node.lineno
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def unreferenced_private(sources):
    """The module-level functions and classes named ``_x``, and the methods
    named ``_x`` (not dunders) of module-level classes, that no source in
    ``sources`` (module name -> text) reads, as (module, name) pairs; a
    method's name is ``Class._x``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)) and node.name.startswith("_"):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, "%s.%s" % (node.name, item.name))
                            for item in node.body if isinstance(item, functions)
                            and item.name.startswith("_")
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined
                  if name.rpartition(".")[2] not in read)


def loaded_names(tree):
    """The names a syntax tree reads: the names it loads and the attributes
    it takes. Import statements bind names and read none."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unreached_public(sources, entry_sources, kept):
    """The public module-level functions and classes of `sources` (module
    name -> text) that no root reaches, as (module, name) pairs, and the
    names of `kept` that the other roots reach anyway.

    The roots are the names that `entry_sources` read, the statements at
    module level of `sources` other than definitions, and `kept`. A
    definition is reached when a root or a reached definition reads its
    name; then the names it reads (its decorators, bases and body) are
    reached too. Names are matched alone, as `unreferenced_private` does,
    so a name that two modules define is reached in both."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {}  # name -> [(module, definition)]
    roots = set().union(*(loaded_names(ast.parse(text)) for text in entry_sources))
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, definitions):
                defined.setdefault(node.name, []).append((module, node))
            else:
                roots |= loaded_names(node)

    def reach(start):
        seen = set()
        stack = list(start)
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack += [read for _, node in defined.get(name, ())
                          for read in loaded_names(node)]
        return seen

    reached = reach(roots | set(kept))
    unreached = sorted((module, name) for name, nodes in defined.items()
                       for module, _ in nodes
                       if not name.startswith("_") and name not in reached)
    needless = sorted(name for name in kept
                      if name in reach(roots | (set(kept) - {name})))
    return unreached, needless


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nfrom .graphs import Graph, mcs_order as m\nm(Graph)\n"
    assert unused_imports(source) == [(1, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text()) == []


def test_detects_a_function_local_import():
    source = "import os\n\ndef f():\n    from .graphs import Graph\n    return Graph\n"
    assert function_local_imports(source) == [4]


def test_no_unreferenced_private_code():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private(sources) == []


def test_detects_unreferenced_private_code():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n\ndef f():\n    return _used()\n",
        "c": ("class P:\n    def __init__(self):\n        self._step()\n\n"
              "    def _step(self):\n        pass\n\n"
              "    def _unread(self):\n        pass\n"),
    }
    assert unreferenced_private(sources) == [
        ("a", "_Gone"), ("a", "_dead"), ("c", "P._unread")]


def test_every_public_definition_is_reached_from_a_command():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    entries = [p.read_text() for p in ENTRY_POINTS]
    assert unreached_public(sources, entries, KEPT) == ([], [])


def test_detects_unreached_public_code():
    sources = {
        # a chain from the entry point: main -> Helper (a base) -> leaf
        "a": ("def leaf():\n    pass\n\nclass Helper(Base):\n    pass\n\n"
              "class Base:\n    def go(self):\n        return leaf()\n\n"
              "def main():\n    return Helper()\n"),
        # reached by a module-level statement, and dead code
        "b": "def table():\n    pass\n\nTABLE = [table]\n\ndef dead():\n    pass\n",
        # an oracle kept on purpose, which reaches its helper, and a kept
        # name that the entry point reaches anyway
        "c": ("def oracle():\n    return helper()\n\ndef helper():\n    pass\n\n"
              "def public_api():\n    pass\n"),
    }
    entry = "from a import main\nimport c\n\nmain()\nc.public_api()\n"
    assert unreached_public(sources, [entry], {"oracle", "public_api"}) == (
        [("b", "dead")], ["public_api"])
    assert unreached_public(sources, [entry], {}) == (
        [("b", "dead"), ("c", "helper"), ("c", "oracle")], [])


def test_package_exports_every_node_program():
    import chordalg
    from chordalg import localsim

    programs = {name for name, value in vars(localsim).items()
                if isinstance(value, type) and name.endswith("Program")}
    assert programs == {"GatherProgram", "StagedProgram"}
    assert programs <= set(chordalg.__all__)
