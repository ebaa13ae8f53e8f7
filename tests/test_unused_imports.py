"""Every name a library or test module imports is used in that module, and
every private module-level name or method is read by some module of the
package.

`__init__.py` is left out of the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "graphscatter").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


def orphaned_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private function, class or constant at
    module level, or private method of a module-level class, that no module
    reads outside its own definition.

    A read is a name, an attribute or a name imported from a module, so
    `from .orbits import _x`, `orbits._x` and `self._x()` all count; a
    function that only calls itself is still an orphan.
    """
    defined, read = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
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
    orphans = []
    for module, node, name in defined:
        own = set(map(id, ast.walk(node)))
        if all(id(r) in own for r in read.get(name, [])):
            orphans.append((module, node.lineno, name))
    return sorted(orphans)


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
