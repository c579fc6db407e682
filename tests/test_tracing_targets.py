"""The functions that bench/tracing.py wraps exist in the package.

The tracer skips a target it cannot find, and its metrics are then absent,
not an error, so a renamed scan stage would drop its layer from a traced
benchmark run without a word.  This test reads the tracer's target list
from its file, as the benchmark does, and fails on any name that no longer
resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_target_is_a_callable_of_the_package(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    layers = set()
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), target
        layers.add(target.layer)
    assert {"scan.accumulate", "scan.merge", "scan.finalize", "scan.consts"} <= layers
