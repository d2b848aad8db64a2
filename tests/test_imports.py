"""Every imported name is used by the module that imports it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's imports are its re-exported API
SCANNED = sorted(path for folder in ("src/gossipbandits", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py")
                 if path != ROOT / "src/gossipbandits/__init__.py")
# the benchmark's tracer binds sim.comm_step by name
EXEMPT = {"src/gossipbandits/sim.py": {"comm_step"}}


def unused_imports(source):
    """The names ``source`` imports but never loads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - loaded)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\nos.sep, d\n") \
        == ["c", "np"]


@pytest.mark.parametrize("path", SCANNED, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    exempt = EXEMPT.get(str(path.relative_to(ROOT)), set())
    assert [name for name in unused_imports(path.read_text()) if name not in exempt] == []
