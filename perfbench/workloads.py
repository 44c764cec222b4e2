"""The benchmark's workloads: inputs, the timed operation, correctness
gates and negative controls.

Every workload runs one operation at a time in one single-threaded
process (a closed loop with one client). An operation takes 0.4 to 2 s,
so that one run times many of them. The workload seed is the
``rng_seed`` of the sampled colorings; ``oracle-small`` does not depend on
it. Pinned values hold for seed 1, the seed the ROADMAP quotes. Import
this module only with ``src/`` on the path (``run._import_cubetri``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import cubetri as ct
from cubetri.coloring import make_coloring
from cubetri.complexes import expected_volume
from cubetri.verification import StructuredChecker, batch_volumes_of, volume_total

# Sizes of the pipeline's outputs for samples=3, rng_seed=1 (ROADMAP).
SIZES_SEED1 = {4: 16, 5: 78, 6: 390, 7: 2155, 8: 16282, 9: 121596, 10: 935758}
# The streamed d=8 file of build-d8 for seed 1 (2 -> 5 -> 8); pins the
# order of the simplices.
D8_SHA256 = "32d8fc648947d248afd185c74d9d0428252e4776bf356256a3d562093a105f20"
D8_BYTES = 708_036
# The d=5 output with the balanced coloring alone (samples=1), any seed.
BALANCED_D5_SIZE = 84
# oracle-small: (name, configuration, minimum, simplices in the witness).
ORACLE_PROBLEMS = (
    ("cube(3)", lambda: ct.cube_config(3), Fraction(5, 6), 5),
    ("cube(2)xsimplex(1)", lambda: ct.product_config(ct.cube_config(2), ct.simplex_config(1)), 3, 5),
    ("cube(1)xsimplex(3)", lambda: ct.product_config(ct.cube_config(1), ct.simplex_config(3)), 4, 4),
    ("cube(1)xsimplex(4)", lambda: ct.product_config(ct.cube_config(1), ct.simplex_config(4)), 5, 5),
)


@dataclass
class Op:
    """What one timed operation produced, for the gates and the trace."""

    value: object
    counts: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    setup: Callable  # (seed, work_dir) -> state; part of set-up
    op: Callable  # (state) -> Op; the timed part
    gates: Callable  # (state, Op) -> list of failure messages
    controls: Callable  # (state) -> list of (name, behaved as required)
    timeout_s: int = 170  # the whole run, in seconds


# -- helpers -----------------------------------------------------------------


def in_fork(fn) -> dict:
    """Run ``fn`` in a forked copy of this process; return the JSON-able
    dict it returned, or one with an ``error``. Nothing ``fn`` caches or
    allocates stays in this process."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            try:
                out = json.dumps(fn())
            except BaseException:
                out = json.dumps({"error": traceback.format_exc()[-2000:]})
            with os.fdopen(w, "w") as fh:
                fh.write(out)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"forked process ended with wait status {status}"}
    return json.loads(data)


def seeds_setup():
    """Seed construction and verification, as every pipeline run does it."""
    ct.cayley_seed("i3d2")
    ct.cayley_seed("i3d1")


def _spec(dim, seed, **kw):
    return ct.PipelineSpec(dim=dim, samples=3, rng_seed=seed, **kw)


def _build_gates(report, seed, tag):
    """report.ok, each step's size equal to the closed-form product_size of
    the coloring it chose, and the pinned sizes at seed 1."""
    bad = []
    if not report.ok:
        bad.append(f"{tag}: report.ok is False")
    for st in report.steps:
        if st.size != min(st.sample_sizes):
            bad.append(f"{tag}: step to d={st.dim_to} size {st.size} != product_size")
    if seed == 1:
        for d, size in report.sizes.items():
            if d in SIZES_SEED1 and size != SIZES_SEED1[d]:
                bad.append(f"{tag}: d={d} size {size}, pinned {SIZES_SEED1[d]}")
    return bad


def _small_lift(dim):
    """The pipeline's own lift at dim 4 or 5, with provenance and coloring."""
    q_dim, seed, m = {4: (1, "i3d1", 2), 5: (2, "i3d2", 3)}[dim]
    t_q = ct.minimal_cube(q_dim)
    coloring = make_coloring(len(t_q.config.points), m, "balanced")
    tri, prov = ct.triangulate_product(
        t_q, ct.cayley_seed(seed), coloring, with_provenance=True
    )
    return tri, prov, coloring


def tampered(tri, kind):
    """A copy of ``tri`` that is not a triangulation: one simplex dropped,
    one duplicated, or one replaced by a different simplex of equal volume
    (which keeps the volume census exact but must overlap another)."""
    simplices = list(tri.simplices)
    mid = len(simplices) // 2
    if kind == "drop":
        del simplices[mid]
    elif kind == "duplicate":
        simplices.append(simplices[mid])
    elif kind == "overlap":
        present = set(simplices)
        n = len(tri.config.points)
        for i, s in enumerate(simplices):
            vol = tri.volume_of(s)
            swaps = (
                tuple(sorted(set(s) - {out} | {new}))
                for out in s
                for new in range(n)
                if new not in s
            )
            s2 = next((t for t in swaps if t not in present and tri.volume_of(t) == vol), None)
            if s2 is not None:
                simplices[i] = s2
                break
        else:
            raise AssertionError("no equal-volume replacement found")
    else:
        raise ValueError(kind)
    return ct.Triangulation(tri.config, tuple(simplices))


def _rejects(check, tri, kinds):
    return [(f"{check.__name__}:{k}", not check(tampered(tri, k))) for k in kinds]


# -- build-d8 ----------------------------------------------------------------


def _build_setup(seed, work):
    return {"seed": seed, "out": os.path.join(work, "build-d8.json")}


def _build_op(state):
    # materialize_max_dim=7 streams the last step, 5 -> 8, as d=10 is
    # streamed. face_check_max_dim=4 certifies the d=5 step by its cells
    # instead of the LP face-to-face tier, whose cost varies fivefold with
    # the seed's coloring at d=5 (certify-d5 times that tier).
    spec = _spec(8, state["seed"], out=state["out"], materialize_max_dim=7,
                 face_check_max_dim=4)
    tri, report = ct.build_cube_recursive(spec)
    return Op(
        (tri, report),
        {
            "pipeline.simplices_emitted": sum(st.size for st in report.steps),
            "pipeline.output_bytes": os.path.getsize(state["out"]),
        },
    )


def _build_gates_d8(state, op):
    tri, report = op.value
    bad = _build_gates(report, state["seed"], "build-d8")
    if tri is not None:
        bad.append("build-d8: d=8 was materialized, expected a streamed step")
    with open(state["out"], "rb") as fh:
        data = fh.read()
    os.remove(state["out"])
    written = data.count(b"\n[")  # one simplex per line after the header
    if written != report.sizes.get(8):
        bad.append(f"build-d8: file holds {written} simplices, report {report.sizes.get(8)}")
    if state["seed"] == 1:
        if len(data) != D8_BYTES:
            bad.append(f"build-d8: {len(data)} bytes, pinned {D8_BYTES}")
        if hashlib.sha256(data).hexdigest() != D8_SHA256:
            bad.append("build-d8: SHA-256 differs from the pinned digest")
    return bad


def batched_census(tri):
    """The batched census the pipeline runs on every step."""
    want = expected_volume(tri.config)
    vol, zeros = batch_volumes_of(tri.config.points, list(tri.simplices))
    return volume_total(tri) == want and vol == want and zeros == 0


def _build_controls(state):
    tri, _, _ = _small_lift(4)
    return [("batched_census:ok", batched_census(tri))] + _rejects(
        batched_census, tri, ("drop", "duplicate")
    )


# -- certify-d5 --------------------------------------------------------------


# The d=5 build and the d=5 input use the balanced coloring alone
# (samples=1), the same for every seed: with the seed's sampled colorings
# the structural tier took 0.05 to 0.25 s and the pairwise check grows
# with the square of a size that varies by 8%.
BALANCED_D5 = ct.PipelineSpec(dim=5)


def _certify_setup(seed, work):
    tri4, rep4 = ct.build_cube_recursive(_spec(4, seed))
    tri5, rep5 = ct.build_cube_recursive(BALANCED_D5)
    return {"seed": seed, "tri4": tri4, "rep4": rep4, "tri5": tri5, "rep5": rep5}


def _certify_op(state):
    tri5, rep5 = ct.build_cube_recursive(BALANCED_D5)
    f2f = ct.validate_face_to_face(state["tri4"])
    diss = ct.validate_dissection(state["tri5"])
    return Op((tri5, rep5, f2f, diss), {"pipeline.simplices_emitted": tri5.size})


def _certify_gates(state, op):
    tri5, rep5, f2f, diss = op.value
    bad = _build_gates(state["rep4"], state["seed"], "certify-d5 input d=4")
    for tri, rep in ((state["tri5"], state["rep5"]), (tri5, rep5)):
        bad += _build_gates(rep, None, "certify-d5 balanced d=5")
        if tri.size != BALANCED_D5_SIZE:
            bad.append(f"certify-d5: balanced d=5 has {tri.size} simplices")
    if rep5.steps[-1].face_to_face is not True:
        bad.append("certify-d5: the structural face-to-face tier did not certify d=5")
    if not (f2f.is_face_to_face and f2f.volume_total == 24):
        bad.append("certify-d5: validate_face_to_face rejected the d=4 output")
    if not (diss.is_dissection and diss.volume_total == 120):
        bad.append("certify-d5: validate_dissection rejected the d=5 output")
    return bad


def _certify_controls(state):
    tri4, _, _ = _small_lift(4)
    tri5, prov5, col5 = _small_lift(5)

    def face_to_face(tri):
        return ct.validate_face_to_face(tri).is_face_to_face

    def dissection(tri):
        return ct.validate_dissection(tri).is_dissection

    def structured(tri):
        return StructuredChecker(tri, prov5, col5).run().is_face_to_face

    kinds = ("drop", "duplicate", "overlap")
    return (
        [("structured:ok", structured(tri5))]
        + _rejects(structured, tri5, kinds)
        + _rejects(face_to_face, tri4, kinds)
        + _rejects(dissection, tri4, kinds)
    )


# -- verify-d8 ---------------------------------------------------------------


def _write_inputs(seed, work, dims, tag):
    """Build and write the pipeline's output at each dim; set-up of the
    read-side workloads. The builds run in a forked process, so that the
    memory they held is not part of the operations' peak RSS."""

    def write():
        files = {}
        for dim in dims:
            path = os.path.join(work, f"d{dim}.json")
            _, rep = ct.build_cube_recursive(_spec(dim, seed, out=path))
            files[str(dim)] = {
                "path": path,
                "size": rep.sizes[dim],
                "gates": _build_gates(rep, seed, f"{tag} input d={dim}"),
            }
        return files

    files = in_fork(write)
    if "error" in files:
        raise RuntimeError(files["error"])
    return files


def _verify_setup(seed, work):
    return {"seed": seed, "files": _write_inputs(seed, work, (8, 7), "verify-d8")}


def _verify_op(state):
    out = {}
    for dim in (8, 7):
        with open(state["files"][str(dim)]["path"]) as fh:
            tri = ct.triangulation_from_json(fh.read())
        out[dim] = (tri.size, ct.validate_dissection(tri, pairwise=False))
    out["ridge"] = ct.ridge_report(tri)
    return Op(out)


def _verify_gates(state, op):
    bad = []
    for dim, volume in ((8, 40320), (7, 5040)):
        facts = state["files"][str(dim)]
        bad += facts["gates"]
        size, census = op.value[dim]
        if size != facts["size"]:
            bad.append(f"verify-d8: read {size} simplices from d={dim}, wrote {facts['size']}")
        if not (census.is_dissection and census.volume_total == volume):
            bad.append(f"verify-d8: d={dim} census {census.volume_total}, want {volume}")
    ridge = op.value["ridge"]
    if not (ridge.is_face_to_face and ridge.volume_total == 5040):
        bad.append("verify-d8: ridge_report rejected the d=7 file")
    return bad


def _verify_controls(state):
    tri4, _, _ = _small_lift(4)

    def read(tri):  # tampering reaches the checkers through the file format
        return ct.triangulation_from_json(ct.triangulation_to_json(tri))

    def census(tri):
        return ct.validate_dissection(read(tri), pairwise=False).is_dissection

    def ridges(tri):
        return ct.ridge_report(read(tri)).is_face_to_face

    return _rejects(census, tri4, ("drop", "duplicate")) + _rejects(
        ridges, tri4, ("drop", "duplicate", "overlap")
    )


# -- oracle-small ------------------------------------------------------------


def _oracle_setup(seed, work):
    return {"problems": [(name, ct.SearchProblem(cfg())) for name, cfg, _, _ in ORACLE_PROBLEMS]}


def _oracle_op(state):
    return Op([ct.min_weighted_size(problem) for _, problem in state["problems"]])


def _witness_ok(tri):
    return ct.validate_face_to_face(tri).is_face_to_face


def _oracle_gates(state, op):
    bad = []
    for (name, _, value, size), (got, witness) in zip(ORACLE_PROBLEMS, op.value):
        if got != value or witness.size != size or not _witness_ok(witness):
            bad.append(f"oracle-small: {name} minimum {got} with a {witness.size}-simplex witness")
    return bad


def _oracle_controls(state):
    _, problem = state["problems"][1]
    witness = ct.min_weighted_size(problem)[1]
    return _rejects(_witness_ok, witness, ("drop", "duplicate", "overlap"))


# -- one-shot ROADMAP baseline rows (not in BENCHMARK.json) ------------------


def _baseline_f2f_setup(seed, work):
    return {"tri6": ct.build_cube_recursive(_spec(6, seed))[0]}


def _baseline_f2f_op(state):
    return Op(ct.validate_face_to_face(state["tri6"]))


def _baseline_f2f_gates(state, op):
    return [] if op.value.is_face_to_face else ["validate_face_to_face rejected d=6"]


def _baseline_structured_setup(seed, work):
    return {"seed": seed}


def _baseline_structured_op(state):
    return Op(ct.build_cube_recursive(_spec(7, state["seed"], face_check_max_dim=7)))


def _baseline_structured_gates(state, op):
    report = op.value[1]
    if report.ok and report.steps[-1].face_to_face:
        return []
    return ["StructuredChecker rejected d=7"]


def _baseline_ridge_setup(seed, work):
    return {"files": _write_inputs(seed, work, (9,), "baseline-ridge-d9")}


def _baseline_ridge_op(state):
    with open(state["files"]["9"]["path"]) as fh:
        return Op(ct.ridge_report(ct.triangulation_from_json(fh.read())))


def _baseline_ridge_gates(state, op):
    return [] if op.value.is_face_to_face else ["ridge_report rejected d=9"]


def _no_controls(state):
    return []


def combined(name, *parts):
    """A workload whose operation runs the parts' operations one after
    another, with the set-up, gates and controls of every part."""

    def setup(seed, work):
        state = {}
        for part in parts:
            state.update(part.setup(seed, work))
        return state

    def op(state):
        ops = [part.op(state) for part in parts]
        return Op(ops, {k: v for o in ops for k, v in o.counts.items()})

    def gates(state, op):
        return [bad for part, o in zip(parts, op.value) for bad in part.gates(state, o)]

    def controls(state):
        return [check for part in parts for check in part.controls(state)]

    return Workload(name, setup, op, gates, controls)


BUILD = Workload("build-d8", _build_setup, _build_op, _build_gates_d8, _build_controls)
CERTIFY = Workload("certify-d5", _certify_setup, _certify_op, _certify_gates, _certify_controls)
VERIFY = Workload("verify-d8", _verify_setup, _verify_op, _verify_gates, _verify_controls)
ORACLE = Workload("oracle-small", _oracle_setup, _oracle_op, _oracle_gates, _oracle_controls)

# BENCHMARK.json names the two combined workloads: the host's speed drifts
# over tens of seconds, and two workloads leave time for runs long enough to
# average over it. The parts run alone too, to look at one of them.
WORKLOADS = {
    w.name: w
    for w in (
        combined("build-verify-d8", BUILD, VERIFY),
        combined("certify-oracle", CERTIFY, ORACLE),
        BUILD,
        CERTIFY,
        VERIFY,
        ORACLE,
        Workload(
            "baseline-f2f-d6", _baseline_f2f_setup, _baseline_f2f_op,
            _baseline_f2f_gates, _no_controls, timeout_s=1800,
        ),
        Workload(
            "baseline-structured-d7", _baseline_structured_setup, _baseline_structured_op,
            _baseline_structured_gates, _no_controls, timeout_s=1800,
        ),
        Workload(
            "baseline-ridge-d9", _baseline_ridge_setup, _baseline_ridge_op,
            _baseline_ridge_gates, _no_controls, timeout_s=1800,
        ),
    )
}
