"""Every module of the package and of the tests reads each name it imports.

CI runs no linter, so this stands in for its unused-import rule: a name
bound by ``import`` or ``from ... import`` must be read somewhere in its
module. A name listed in the module's ``__all__`` counts as read, which
exempts the package's re-exports, and ``from __future__`` imports bind
nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "extrack").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
