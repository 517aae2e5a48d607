"""Every imported name is used: a leftover import after a simplification
is dead code that still costs its import."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# skewfib/__init__.py imports to re-export, so its names are its interface.
FILES = sorted(
    [p for p in (ROOT / "src" / "skewfib").glob("*.py") if p.name != "__init__.py"]
    + [p for d in ("tests", "tools", "demos") for p in (ROOT / d).rglob("*.py")]
)


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that no expression reads;
    `import a.b` binds a, and __future__ imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_the_scan_sees_each_kind_of_import():
    source = "import os\nimport a.b\nimport numpy as np\nfrom x import y, z as w\nprint(a, w)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "np"), (4, "y")]
    assert _unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
