"""Span tracing of cubetri's public functions, installed from outside.

The tracer replaces each traced function under every name a caller can
look it up by: the attribute of its defining module (which also covers the
late ``from .staircase import multi_staircases`` inside
``StructuredChecker.run``), every ``cubetri`` module that imported it by
name, and the package namespace. Methods are replaced on their class.

Spans live in memory as flat arrays (span id, parent span id, layer,
start, end, one integer of extra work) under one run id, and are written
out once, when the traced process ends. Self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import pkgutil
import time
from array import array

import numpy as np

# Traced layers, as <module>.<qualname> below the cubetri package: the
# statistics reported for each, and the integer of extra work a span records
# (None: nothing beyond the call).
LAYERS = {
    "linalg.batch_abs_det": (("calls", "matrices", "s"), lambda args, res: len(args[0])),
    "linalg.feasible": (("calls", "s", "true_ratio"), lambda args, res: int(bool(res))),
    "linalg.simplices_face_to_face": (("calls", "s", "lp_ratio"), None),
    "linalg.simplices_interiors_disjoint": (("calls", "s"), None),
    "linalg.polytopes_interiors_disjoint": (("calls", "s"), None),
    "seeds.cayley_seed": (("s",), None),
    "cayley.validate_mixed": (("s",), None),
    "linalg.det_bareiss": (("calls", "s"), None),
    "geometry.normalized_volume": (("calls", "s"), None),
    "complexes.triangulation_from_json": (("s", "bytes"), lambda args, res: len(args[0])),
    "complexes.validate_dissection": (("s",), None),
    "complexes.ridge_report": (("s",), None),
    "complexes.validate_face_to_face": (("s",), None),
    "verification.StructuredChecker.run": (("s", "self_s"), None),
    "staircase.multi_staircases": (("calls", "simplices", "s"), lambda args, res: len(res)),
    "staircase.certify_cell_regular": (("calls", "s"), None),
    "coloring.product_size": (("calls", "s"), None),
    "coloring.triangulate_product": (("calls", "s"), None),
    "verification.batch_volumes_of": (("calls", "s"), None),
    "verification.volume_total": (("s",), None),
    "pipeline.build_cube_recursive": (("s", "self_s"), None),
    "oracle.min_weighted_size": (("s", "self_s"), None),
}
UNITS = {"s": "s", "self_s": "s", "bytes": "B", "true_ratio": "ratio", "lp_ratio": "ratio"}

# The two harness spans every traced span descends from. Layers that work
# only in set-up are totalled over set-up, every other layer over the
# timed operation.
SETUP, OP = "harness.setup", "harness.op"
SETUP_LAYERS = {
    "seeds.cayley_seed",
    "cayley.validate_mixed",
    "linalg.polytopes_interiors_disjoint",
}

# Counts not taken from spans: from the operation's own result, or the
# number of items a traced generator yielded.
COUNTERS = {
    "pipeline.simplices_emitted": "count",
    "pipeline.output_bytes": "B",
    "oracle.triangulations_enumerated": "count",
}

# Generators are counted per item yielded instead of timed: their time
# interleaves with the consumer's.
YIELD_COUNTERS = {"oracle.enumerate_triangulations": "oracle.triangulations_enumerated"}


def _cubetri_modules():
    import cubetri

    mods = [cubetri]
    for info in pkgutil.iter_modules(cubetri.__path__):
        mods.append(importlib.import_module(f"cubetri.{info.name}"))
    return mods


def _resolve(layer):
    modname, *attrs = layer.split(".")
    owner = importlib.import_module(f"cubetri.{modname}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1], getattr(owner, attrs[-1])


class Tracer:
    SETUP, OP = SETUP, OP

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []  # layer of each name id
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("q")
        self.counters: dict[str, int] = {}
        self._ids = itertools.count()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _record(self, sid, parent, name_id, t0, t1, extra):
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(name_id)
        self.start.append(t0)
        self.end.append(t1)
        self.extra.append(extra)

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness span (set-up or one operation) around the block."""
        sid, parent = next(self._ids), self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record(sid, parent, self._name_id(name), t0, t1, 0)

    def _wrap(self, fn, name_id, extract):
        ids, stack, record, clock = self._ids, self._stack, self._record, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            done = False
            try:
                res = fn(*args, **kwargs)
                done = True
                return res
            finally:
                t1 = clock()
                stack.pop()
                x = extract(args, res) if (extract is not None and done) else 0
                record(sid, parent, name_id, t0, t1, x)

        traced.__wrapped__ = fn
        return traced

    def _count_yields(self, fn, counter):
        counters = self.counters
        counters.setdefault(counter, 0)

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[counter] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        mods = _cubetri_modules()
        targets = {layer: extract for layer, (_, extract) in LAYERS.items()}
        targets.update(YIELD_COUNTERS)
        for layer, extract in targets.items():
            owner, attr, fn = _resolve(layer)
            if layer in YIELD_COUNTERS:
                new = self._count_yields(fn, extract)
            else:
                new = self._wrap(fn, self._name_id(layer), extract)
            if isinstance(owner, type):  # a method: replace it on its class
                self._patch(owner, attr, new)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, new)

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def _table(self):
        """Spans indexed by span id: (parent, name, duration, self time,
        extra, root span id)."""
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64), kind="stable")
        parent = np.frombuffer(self.parent, dtype=np.int64)[order]
        name = np.frombuffer(self.name, dtype=np.int32)[order]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[order]
        extra = np.frombuffer(self.extra, dtype=np.int64)[order]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        root = np.where(has_parent, parent, np.arange(len(dur)))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        return parent, name, dur, dur - child_time, extra, root

    def metrics(self, counts: dict) -> dict:
        """Every per-layer metric, by name: {"value": ..., "unit": ...}.
        ``counts`` are the operation's own counts named in COUNTERS."""
        parent, name, dur, self_t, extra, root = self._table()
        root_name = name[root]
        # face-to-face pair tests that reached an LP: parents of feasible spans
        reached_lp = np.zeros(len(name), dtype=bool)
        lp = (name == self._name_id("linalg.feasible")) & (parent >= 0)
        reached_lp[parent[lp]] = True
        out = {}
        for layer, (stats, _) in LAYERS.items():
            phase = SETUP if layer in SETUP_LAYERS else OP
            sel = (name == self._name_id(layer)) & (root_name == self._name_id(phase))
            calls = int(sel.sum())
            for stat in stats:
                if stat == "calls":
                    value = calls
                elif stat == "s":
                    value = float(dur[sel].sum())
                elif stat == "self_s":
                    value = float(self_t[sel].sum())
                elif stat == "true_ratio":
                    value = int(extra[sel].sum()) / calls if calls else 0.0
                elif stat == "lp_ratio":
                    value = int((sel & reached_lp).sum()) / calls if calls else 0.0
                else:  # matrices, simplices, bytes: the extra integer per span
                    value = int(extra[sel].sum())
                out[f"{layer}.{stat}"] = {"value": value, "unit": UNITS.get(stat, "count")}
        for counter, unit in COUNTERS.items():
            value = counts.get(counter, self.counters.get(counter, 0))
            out[f"{counter}.count"] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write every span, one tab-separated line each, after a JSON
        header that carries the run id and the layer names."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "layers": self.names,
                                 "counters": self.counters}) + "\n")
            fh.write("span\tparent\tlayer\tstart\tend\textra\n")
            for row in zip(self.sid, self.parent, self.name, self.start,
                           self.end, self.extra):
                fh.write("%d\t%d\t%d\t%.9f\t%.9f\t%d\n" % row)
