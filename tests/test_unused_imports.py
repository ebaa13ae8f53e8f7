"""Every name a library or test module imports is used in that module,
every private module-level name or method is read by some module of the
package, and every public module-level function or class has a caller in the
package or the benchmark.

`__init__.py` is left out of the import check and is no caller: its imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "graphscatter").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
# public names that nothing in the package or the benchmark calls, kept for their users
UNCALLED_PUBLIC = {
    "secular_zero_count": "the README's public way to count the zeros in an interval",
    "reconstruct_eigenvectors": "acceptance criterion 11 rebuilds every eigenspace with it",
}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read as a name."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_sources_found():
    assert len(SOURCES) >= 10
    assert len(TESTS) >= 10


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=lambda p: p.name if p in SOURCES else f"tests/{p.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_name():
    source = "import os\nimport numpy as np\nfrom .errors import A, B\nprint(np.pi, B)\n"
    assert unused_imports(source) == [(1, "os"), (3, "A")]


def _unread(defined: list, trees: list[ast.AST]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each (module, node, name) of defined that no
    tree reads outside node itself.

    A read is a name, an attribute or a name imported from a module, so
    `from .orbits import _x`, `orbits._x` and `self._x()` all count; a
    function that only calls itself is still unread.
    """
    read = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = []
            for name in names:
                read.setdefault(name, []).append(node)
    unread = []
    for module, node, name in defined:
        own = set(map(id, ast.walk(node)))
        if all(id(r) in own for r in read.get(name, [])):
            unread.append((module, node.lineno, name))
    return sorted(unread)


def orphaned_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private function, class or constant at
    module level, or private method of a module-level class, that no module
    reads outside its own definition (see `_unread`)."""
    defined, trees = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        trees.append(tree)
        for stmt in tree.body:
            nodes = [stmt]
            if isinstance(stmt, ast.ClassDef):
                nodes += [f for f in stmt.body if isinstance(f, ast.FunctionDef)]
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    names = []
                defined += [(module, node, n) for n in names
                            if n.startswith("_") and not n.startswith("__")]
    return _unread(defined, trees)


def uncalled_public_names(
    library: dict[str, str], callers: dict[str, str]
) -> list[tuple[str, int, str]]:
    """(module, line, name) of each public module-level function or class of
    a library module that no library or caller module reads outside its own
    definition (see `_unread`)."""
    trees = {module: ast.parse(source) for module, source in {**library, **callers}.items()}
    defined = [(module, stmt, stmt.name) for module in library for stmt in trees[module].body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")]
    return _unread(defined, list(trees.values()))


def test_no_orphaned_private_names():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert orphaned_private_names(sources) == []


def test_detector_flags_an_orphaned_private_name():
    sources = {
        "a.py": (
            "_USED = 1\n_ORPHAN: int = 2\n"
            "def _helper():\n    return _USED\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "class _Kept:\n    pass\n"
            "class _Lost:\n    def copy(self):\n        return _Lost()\n"
            "def public():\n    return _helper()\n"
            "class Cache:\n"
            "    def get(self):\n        return self._build()\n"
            "    def _build(self):\n        return 1\n"
            "    def _stale(self):\n        return self._stale()\n"
        ),
        "b.py": "from .a import _Kept\nfrom . import a\nprint(a._VIA_ATTRIBUTE)\n",
        "c.py": "_VIA_ATTRIBUTE = 3\n__all__ = []\n",
    }
    assert orphaned_private_names(sources) == [
        ("a.py", 2, "_ORPHAN"), ("a.py", 5, "_recursive"), ("a.py", 9, "_Lost"),
        ("a.py", 19, "_stale"),
    ]


def test_every_public_name_has_a_caller():
    library = {p.name: p.read_text() for p in SOURCES}
    callers = {f"perfbench/{p.name}": p.read_text() for p in BENCH}
    uncalled = uncalled_public_names(library, callers)
    # an allowed name that gains a caller leaves the list
    assert sorted(name for _, _, name in uncalled) == sorted(UNCALLED_PUBLIC), uncalled


def test_detector_flags_an_uncalled_public_name():
    library = {
        "a.py": (
            "def used():\n    return 1\n"
            "def self_only(n):\n    return self_only(n - 1) if n else 0\n"
            "class Kept:\n    pass\n"
            "def _private():\n    return used()\n"
            "def lost():\n    return 2\n"
            "VALUE = 3\n"
        ),
        "b.py": "from .a import Kept\nprint(_private())\n",
    }
    callers = {"perfbench/run.py": "import graphscatter as gs\nprint(gs.self_only)\n"}
    assert uncalled_public_names(library, callers) == [("a.py", 9, "lost")]
    assert uncalled_public_names(library, {}) == [("a.py", 3, "self_only"), ("a.py", 9, "lost")]
