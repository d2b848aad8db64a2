"""Every imported name is used by the module that imports it, every name
``src/`` defines is used outside the tests, and every code pointer in the
README resolves."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's imports are its re-exported API
SCANNED = sorted(path for folder in ("src/gossipbandits", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py")
                 if path != ROOT / "src/gossipbandits/__init__.py")
# the benchmark's tracer binds sim.comm_step by name
EXEMPT = {"src/gossipbandits/sim.py": {"comm_step"}}
MODULES = sorted(path for path in (ROOT / "src/gossipbandits").glob("*.py")
                 if path.name != "__init__.py")
USERS = MODULES + sorted(path for folder in ("demos", "perfbench")
                         for path in (ROOT / folder).glob("*.py"))


def loaded_names(tree):
    """The names ``tree`` loads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source):
    """The names ``source`` imports but never loads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - loaded_names(tree))


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\nos.sep, d\n") \
        == ["c", "np"]


@pytest.mark.parametrize("path", SCANNED, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    exempt = EXEMPT.get(str(path.relative_to(ROOT)), set())
    assert [name for name in unused_imports(path.read_text()) if name not in exempt] == []


def defined_names(tree):
    """The functions, classes and assigned names at the top level of ``tree``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return names


def mentioned_names(tree):
    """The names ``tree`` loads, reads as attributes or imports from a module."""
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_src_name_has_a_user_outside_the_tests():
    """A name in ``src/`` is loaded by its own module or mentioned by another
    module, a demo or the benchmark: nothing exists only for the tests."""
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    unused = []
    for path in MODULES:
        own = loaded_names(trees[path])
        others = set().union(*(mentioned_names(tree) for user, tree in trees.items()
                               if user != path))
        unused += [f"{path.relative_to(ROOT)}:{name}"
                   for name in sorted(defined_names(trees[path]) - own - others)]
    assert unused == []


# `module.name[.attr]`, optionally followed by a call's "(", in a README code span
POINTER = re.compile(r"(agents|bandit|cli|config|consensus|graph|sim)\.(\w+(?:\.\w+)?)(?:\(|$)")


def readme_pointers():
    """(module, dotted name) of every pointer in an inline code span of the
    README, fenced blocks and ``.py`` file names left out."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    matches = (POINTER.match(span) for span in re.findall(r"`([^`]+)`", text))
    return [match.groups() for match in matches if match and match[2] != "py"]


def test_readme_pointers_resolve():
    pointers = readme_pointers()
    assert pointers
    missing = []
    for module, dotted in pointers:
        target = importlib.import_module(f"gossipbandits.{module}")
        try:
            for attr in dotted.split("."):
                target = getattr(target, attr)
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert missing == []
