"""Every name a library module imports is used in that module, every
import sits at module level, and every private module-level function or
class is read somewhere in the library.

No linter ships with the test environment, so this is a small stand-in for
the unused-import, import-position and dead-code checks: parse each module
under ``src/chordalg`` and compare the names bound by its import statements
with the names it reads, list the imports made inside functions, and list
the ``_name`` functions and classes that no module reads. ``__init__.py``
is skipped by the import checks because its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chordalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
    """The module-level functions and classes named ``_x`` that no source in
    ``sources`` (module name -> text) reads, as (module, name) pairs."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                    and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in read)


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
    }
    assert unreferenced_private(sources) == [("a", "_Gone"), ("a", "_dead")]


def test_package_exports_every_node_program():
    import chordalg
    from chordalg import localsim

    programs = {name for name, value in vars(localsim).items()
                if isinstance(value, type) and name.endswith("Program")}
    assert programs == {"GatherProgram", "StagedProgram"}
    assert programs <= set(chordalg.__all__)
