"""The benchmark's tracer wraps package names from outside the program.

perfbench/workloads.py lists them in LAYERS, and Tracer.install reads each
with getattr before the first timed run, so a package name that one of
them still points at (census.canonicalize, for one) cannot be removed or
renamed without breaking every benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    # loaded read-only: no bytecode is written beside the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.LAYERS
    for owner, attr, span, _ in workloads.LAYERS:
        assert callable(getattr(owner, attr, None)), (span, owner, attr)
