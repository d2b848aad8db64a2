"""Every imported name is used by the module that imports it, every name
``src/`` defines and every defaulted parameter it declares is used outside
the tests, and every code pointer in the README resolves."""

import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path

import pytest

from gossipbandits.config import KEYS, ExperimentConfig

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


def defaulted_parameters(tree):
    """(callee name, offset, parameter -> positional index or None when
    keyword-only) of each function in ``tree`` with defaulted parameters. A
    class's ``__init__`` is read under the class name. ``offset`` is the index
    of the first parameter that a call's positional arguments fill: 1 for a
    method, whose ``self`` or ``cls`` is bound."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef)):
            continue
        for func in node.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = {a.arg: i for i, a in enumerate(positional) if i >= first}
            params.update((a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None)
            offset = 0 if isinstance(node, ast.Module) else 1
            name = node.name if func.name == "__init__" else func.name
            if params:
                found.append((name, offset, params))
    return found


def passed_arguments(trees):
    """callee name -> (most positional arguments, keyword names) over the
    calls in ``trees``; a ``*args`` or ``**kwargs`` call passes everything."""
    passed = {}
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        count, keywords = passed.get(name, (0, set()))
        keywords |= {k.arg for k in node.keywords}  # None for **kwargs
        if any(isinstance(a, ast.Starred) for a in node.args):
            keywords.add(None)
        passed[name] = (max(count, len(node.args)), keywords)
    return passed


def test_the_scan_finds_the_defaulted_and_the_passed_parameters():
    tree = ast.parse("def f(a, b=1, *, c=2): pass\n"
                     "class K:\n    def __init__(self, x=0): pass\n"
                     "f(1, 2)\nK(**{})\n")
    assert defaulted_parameters(tree) == [("f", 0, {"b": 1, "c": None}), ("K", 1, {"x": 1})]
    assert passed_arguments([tree]) == {"f": (2, set()), "K": (0, {None})}


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """Each parameter with a default in ``src/`` is passed, by keyword or by
    position, by some call in ``src/``, a demo or the benchmark: no
    parameter exists only for the tests."""
    passed = passed_arguments([ast.parse(path.read_text()) for path in USERS])
    unset = []
    for path in MODULES:
        for name, offset, params in defaulted_parameters(ast.parse(path.read_text())):
            count, keywords = passed.get(name, (0, set()))
            unset += [f"{name}: {param}" for param, index in params.items()
                      if None not in keywords and param not in keywords
                      and (index is None or index - offset >= count)]
    assert unset == []


def config_reads(tree, name="config"):
    """The attributes ``tree`` reads off the name ``name``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == name and isinstance(node.ctx, ast.Load)}


def test_the_scan_finds_the_config_reads():
    tree = ast.parse("config.d + config.x0_vector()\nconfig.n = 1\ngeo.x0\n")
    assert config_reads(tree) == {"d", "x0_vector"}


def test_every_config_field_is_read_by_the_simulator():
    """Each ``ExperimentConfig`` field is read as ``config.<field>`` in
    ``src/`` outside ``config.py``, or by an ``ExperimentConfig`` method read
    so: no key exists only to be validated and echoed. ``KEYS`` sets each
    field once."""
    config_py = ROOT / "src/gossipbandits/config.py"
    read = set().union(*(config_reads(ast.parse(path.read_text()))
                         for path in MODULES if path != config_py))
    cls = next(node for node in ast.walk(ast.parse(config_py.read_text()))
               if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name in read:
            read |= config_reads(method, "self")
    names = [f.name for f in fields(ExperimentConfig)]
    assert [name for name in names if name not in read] == []
    assert sorted(key.field for key in KEYS) == sorted(names)
