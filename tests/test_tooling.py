"""The benchmark's tracer must find every function it traces.

``perfbench/spans.py`` replaces each traced function under every name it
is looked up by; a rename or move in ``cubetri`` should fail here rather
than in a benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    layers = list(spans.LAYERS) + list(spans.YIELD_COUNTERS)
    before = {layer: spans._resolve(layer)[2] for layer in layers}
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        for layer in layers:
            assert spans._resolve(layer)[2].__wrapped__ is before[layer], layer
    finally:
        tracer.uninstall()
    for layer in layers:
        assert spans._resolve(layer)[2] is before[layer], layer
