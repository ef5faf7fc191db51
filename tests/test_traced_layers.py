"""The traced benchmark's harness layers still find the names they wrap.

``perfbench/spans.py`` wraps package functions by module and attribute
name (its ``LAYERS`` table), and a renamed or deleted function only shows
up there as an absent layer.  This reads that table and resolves every
binding into the experiment, allocation and benchmark modules the way
``spans.install`` does, without patching anything.  The engine bindings
into ``ecsa.optimizer`` and ``ecsa.rng`` are left out: several of them
no longer resolve, and rebinding them is a change to the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"
GUARDED = ("ecsa.experiments", "ecsa.allocation", "ecsa.benchmarks")


def _resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_harness_layer_bindings_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    bindings = [(module, path) for module, path, _, _ in spans.LAYERS if module in GUARDED]
    assert bindings
    assert [f"{module}:{path}" for module, path in bindings if not _resolves(module, path)] == []
