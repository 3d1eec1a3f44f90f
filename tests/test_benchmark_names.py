"""The benchmark's per-layer metric names stay resolvable against the library.

``benchmarks/tracer.py`` names a span after the public function it wraps,
so renaming or removing a traced function drops its metrics from the
tracer's summary and the benchmark's per-layer record fails with a
KeyError.  This reads ``benchmarks/`` and ``BENCHMARK.json`` and changes
neither.
"""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: per-layer metrics that ``benchmarks/run.py`` adds to the tracer's summary
ADDED_BY_RUNNER = {"trace_overhead_ratio"}


def test_every_per_layer_metric_is_a_tracer_summary_key(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    workloads = importlib.import_module("workloads")
    for name in workloads.LAYER_MODULES:
        importlib.import_module(f"halfcake.{name}")
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        summary = tracer.summary()
    finally:
        tracer.restore()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in contract["per_layer"]} - ADDED_BY_RUNNER
    assert len(names) >= 30
    assert sorted(names - summary.keys()) == []
