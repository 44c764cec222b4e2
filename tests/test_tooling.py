"""The benchmark must find every function it traces and everything it calls.

``perfbench/spans.py`` replaces each traced function under every name it
is looked up by, and ``perfbench/workloads.py`` calls the package with
options, classes and seeds of its own; a rename, move or removal in
``cubetri`` should fail here rather than in a benchmark run.
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


def test_benchmark_parts_run_against_the_package(monkeypatch, tmp_path):
    """One pass of each benchmark part at seed 1: set-up, operation, gates
    and negative controls. What the workloads call in ``cubetri`` (options,
    classes, seeds) must keep working, so a removal fails here first."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name in ("build-d8", "certify-d5", "verify-d8", "oracle-small"):
        part = workloads.WORKLOADS[name]
        work = tmp_path / name
        work.mkdir()
        state = part.setup(1, str(work))
        assert part.gates(state, part.op(state)) == [], name
        controls = part.controls(state)
        assert controls, name
        assert [check for check, held in controls if not held] == [], name


def test_benchmark_lift_round_trips_as_arrays(monkeypatch):
    """The perfbench d=4 lift goes through the writer and the reader as an
    index array: no simplex becomes a tuple on the way."""
    import numpy as np

    from cubetri.complexes import (
        Triangulation,
        triangulation_from_json,
        triangulation_to_json,
    )

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tri, _, _ = workloads._small_lift(4)
    calls = []
    tuples = Triangulation.simplices

    def counted(self):
        calls.append(self)
        return tuples.fget(self)

    monkeypatch.setattr(Triangulation, "simplices", property(counted))
    back = triangulation_from_json(triangulation_to_json(tri))
    assert calls == []
    assert back.config == tri.config and np.array_equal(back.rows, tri.rows)
