"""The package's public name list matches what it exports, and every
script still finds the names it imports."""

import importlib.util
import sys
from pathlib import Path

import pytest

import quadcolor as qc

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


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
