"""The package's public name list matches what it exports, every script
still finds the names it imports, and every function or class in the
package has a user besides the tests."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import quadcolor as qc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadcolor"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# Kept with no user outside the tests, each for the reason given.
TEST_ONLY = {
    # the frontier sweep: the reference oracle that Bounded verdicts are
    # held to (ROADMAP direction 3), sharing no walk with the search
    "length_profile",
    # the diagonal codec, the paper's tile numbering: the package decodes
    # through its own table and the checker's arithmetic, and the tests'
    # oracles lay sequences out on the grid through these two
    "tile_at",
    "tile_index",
}


def test_all_names_resolve_once():
    # a name deleted from the package but left in __all__ breaks
    # ``from quadcolor import *``
    assert len(qc.__all__) == len(set(qc.__all__))
    missing = [name for name in qc.__all__ if not hasattr(qc, name)]
    assert missing == []
    namespace: dict = {}
    exec("from quadcolor import *", namespace)
    assert set(qc.__all__) <= set(namespace)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_every_script_imports(monkeypatch, path):
    # each script guards main, so loading it runs only its imports: a
    # package name a script still imports cannot be removed unnoticed.
    # Loaded read-only, with the sys.path entry it adds undone afterwards.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert callable(script.main)


# Names a module of the package goes by where it is used.
MODULES = {"qc", "quadcolor"} | {path.stem for path in PACKAGE.glob("*.py")}


def _defined_and_used(path, strings=False):
    """(top-level function and class names, names used) in one module.  A
    use is a name that is read, an attribute of a package module, or, with
    strings, a string equal to the name (perfbench wraps functions by
    name); a def's references to itself do not count.  A field, a keyword
    or an attribute of any other value shares a name without using it."""
    defined, used = set(), set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
            names.discard(stmt.name)
        used |= names
    return defined, used


def test_every_definition_has_a_user_outside_the_tests():
    # a function only the tests call is a public name nobody uses: delete
    # it, or move it into the tests.  __init__.py's re-exports are no use.
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        names, uses = _defined_and_used(path)
        defined |= names
        if path.name != "__init__.py":
            used |= uses
    for path in SCRIPTS:
        used |= _defined_and_used(path)[1]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _defined_and_used(path, strings=True)[1]
    assert sorted(defined - used) == sorted(TEST_ONLY)
