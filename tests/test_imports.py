"""Every module of the package and of the tests reads each name it imports,
every private name the package defines has a user, and the package imports
nothing but the standard library, numpy and its own modules.

CI runs no linter, so this stands in for two of its rules. Unused imports:
a name bound by ``import`` or ``from ... import`` must be read somewhere in
its module. A name listed in the module's ``__all__`` counts as read, which
exempts the package's re-exports, and ``from __future__`` imports bind
nothing. Unused private names: a top-level function, class or constant of
the package whose name starts with one underscore must be named by another
statement of the package, so that a helper a removed path leaves behind is
found. Foreign imports: numpy is the package's one runtime dependency, so
each module it imports must be in ``sys.stdlib_module_names``, be numpy,
or be relative.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "extrack").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names the module imports and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in dict.fromkeys(imported) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.path.join\n", []),
    ("import numpy as np\n", ["np"]),
    ("from a import b, c as d\nd()\n", ["b"]),
    ("from __future__ import annotations\n", []),
    ("from .field import GridDomain\n__all__ = ['GridDomain']\n", []),
    ("import json\ndef f(x: json.JSONDecoder): pass\n", []),
])
def test_the_check_finds_what_is_never_read(source, unused):
    assert unused_imports(source) == unused


def _defines(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def unnamed_privates(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level name of the modules (their
    sources by module name) that no other statement names: by reading it in
    its own module, importing it from there, or as an attribute of the
    module's name."""
    defined, named = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defines(stmt)
            defined += [(module, n) for n in sorted(own)
                        if n.startswith("_") and not n.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom) and node.module:
                    named |= {(node.module.rsplit(".", 1)[-1], a.name) for a in node.names}
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    named.add((node.value.id, node.attr))
                elif isinstance(node, ast.Name) and node.id not in own:
                    named.add((module, node.id))
    return [f"{m}.{n}" for m, n in defined if (m, n) not in named]


def test_every_private_name_has_a_user():
    assert unnamed_privates({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


@pytest.mark.parametrize("sources, unnamed", [
    ({"a": "def _f(): pass\n"}, ["a._f"]),
    ({"a": "def _f(): pass\nx = _f()\n"}, []),
    ({"a": "def _f(n): return _f(n - 1)\n"}, ["a._f"]),
    ({"a": "_X = 1\nclass _C: pass\n_Y: int = 2\n_P, _Q = 3, 4\n"},
     ["a._X", "a._C", "a._Y", "a._P", "a._Q"]),
    ({"a": "_X = 1\n", "b": "from .a import _X\n"}, []),
    ({"a": "_X = 1\n", "b": "from . import a\na._X\n"}, []),
    ({"a": "_X = 1\n", "b": "_X = 2\nprint(_X)\n"}, ["a._X"]),
    ({"a": "def f(): pass\n__all__ = []\n"}, []),
])
def test_the_check_finds_a_private_name_without_a_user(sources, unnamed):
    assert unnamed_privates(sources) == unnamed


def foreign_imports(source: str) -> list[str]:
    """The top-level module of each import that is neither the standard
    library's, numpy's nor relative, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module.split(".")[0])
    return [m for m in dict.fromkeys(found) if m != "numpy" and m not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_the_package_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, foreign", [
    ("import scipy\n", ["scipy"]),
    ("from scipy.sparse import csr_matrix\n", ["scipy"]),
    ("def f():\n    import pandas as pd\n", ["pandas"]),
    ("from .field import GridDomain\n", []),
    ("from . import morse\n", []),
    ("import numpy.linalg\n", []),
    ("from __future__ import annotations\nimport os.path, json\n", []),
])
def test_the_check_finds_a_foreign_import(source, foreign):
    assert foreign_imports(source) == foreign
