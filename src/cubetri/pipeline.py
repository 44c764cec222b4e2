"""End-to-end cube builder and reporting.

Recursive construction: split the target cube into a low block (default 3
coordinates) times the rest, keep a triangulation of the big factor, and
refine the product through the block seed and a coloring, one step at a
time. Each step multiplies the size by roughly the seed's weighted size
times (n/m + l)^l, which is what drives the asymptotic efficiency.

Every step is one loop (:func:`_product_step`) over the template engine
of :class:`coloring.ProductCells`. It takes the step's simplices as
integer arrays in slices of consecutive sigmas of about ``CENSUS_CHUNK``
rows, in the cell-by-cell order (one gather of the engine's template table
gives it). Each slice goes as the same array to the volume census, to
the file writer and, on a kept step, into the step's one index array of
the step's known size, which the triangulation keeps without a copy: no
simplex becomes a Python tuple on the way. The sampled sizes and the
cells take T_0's factor blocks from T_0 (:attr:`Triangulation.blocks`),
which derives them once. Materialization is only a memory policy: the
simplices are kept when the step's dimension is at most
``materialize_max_dim``, and otherwise the step is streamed. Only the last
step may be streamed: a spec whose middle step lands above
``materialize_max_dim`` is rejected. Either way the same bytes are written.

Validation policy per step (all exact):

* volume census always (batched signed integer determinants, chunked);
* on kept steps up to ``face_check_max_dim`` (default 9, every kept step
  by default), the ridge certificate of :mod:`complexes` on the kept rows
  and the census's signed volumes. It trusts neither provenance nor the
  inputs, and its verdict is the step's face-to-face and dissection
  verdict;
* on the steps the ridge check does not cover, a dissection certificate:
  the regularity certificate and the count identity of each distinct cell
  signature (checked once per signature), the volume census of every
  emitted simplex, and the inductively verified validity of the inputs.

The balanced coloring is always kept among the sampled candidates, so the
identity lift at the first step (where the big factor is a segment) is
reproduced exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coloring import (
    Coloring,
    ProductCells,
    make_coloring,
    product_size,
    size_bound,
    triangulate_product,
)
from .complexes import (
    CENSUS_CHUNK,
    Triangulation,
    TriangulationWriter,
    _index_dtype,
    _tally,
    efficiency,
    ridge_violations,
    signed_volumes,
    triangulation_to_json,
    weighted_size,
)
from .geometry import ambient_normalized_volume
from .seeds import (
    ASYMPTOTIC_TARGET_2,
    ASYMPTOTIC_TARGET_3,
    _SEEDS,
    cayley_seed,
    hadamard_lower,
    known_constants,
    minimal_cube,
    unimodular_cube,
)
from .staircase import certify_cell_regular, multi_staircase_count


# The block seeds of the seeds catalog, most colors first, then the cubes.
SEEDS = (*sorted(_SEEDS, key=lambda name: -_SEEDS[name][0]), "minimal", "unimodular")


@dataclass
class PipelineSpec:
    """One build. The seed sets the colors m of each step: a block seed's
    summand count (i3d2: 3, i3d1: 2, clamped to n by :func:`_pick_seed`),
    and 1 for a cube seed."""

    dim: int
    l: int = 3
    seed: str = "i3d2"  # one of SEEDS
    rng_seed: int = 0
    samples: int = 1
    out: str | None = None
    face_check_max_dim: int = 9
    materialize_max_dim: int = 9

    def __post_init__(self):
        if self.dim < 1 or self.l < 1 or self.samples < 1:
            raise ValueError("dim, l and samples must be positive")
        if self.seed not in SEEDS:
            raise ValueError(f"unknown seed {self.seed!r}, not one of {SEEDS}")
        if self.seed in _SEEDS and self.l != 3:
            raise ValueError(f"block seed {self.seed} requires l == 3")
        # The base is a minimal cube, and a step without a block seed takes
        # a minimal cube of dimension l (a unimodular one for that seed).
        base = (self.dim - 1) % self.l + 1
        if base > 3:
            raise ValueError(f"base dimension (dim-1) % l + 1 = {base} is above 3")
        kind, top = ("unimodular", 8) if self.seed == "unimodular" else ("minimal", 3)
        if self.dim > base and self.l > top:
            raise ValueError(f"l = {self.l} is above {top}, the largest {kind} cube")
        # Each step builds on the kept rows of the one before it.
        if self.dim - self.l > max(base, self.materialize_max_dim):
            raise ValueError(
                f"the step to dimension {self.dim - self.l} is above "
                f"materialize_max_dim = {self.materialize_max_dim}, and only "
                "the last step may be streamed"
            )


@dataclass
class StepReport:
    dim_from: int
    dim_to: int
    m_used: int
    seed_used: str
    size: int
    bound: Fraction
    bound_ok: bool
    volume_ok: bool
    # The ridge certificate's verdict; None on a step it did not run on
    # (streamed, or above face_check_max_dim), certified as a dissection.
    face_to_face: bool | None
    dissection_certified: bool
    sample_sizes: list[int] = field(default_factory=list)


@dataclass
class PipelineReport:
    steps: list[StepReport]
    sizes: dict[int, int]
    ok: bool


def _pick_seed(spec: PipelineSpec, n: int) -> tuple[str, int, Triangulation]:
    """Seed triangulation and colors m for one step. A block seed's m is
    its summand count in the seeds catalog, clamped so that m <= n: the
    block seed of most colors within that, else a minimal cube with
    m = 1. A cube triangulation is its own seed with m = 1.

    A seed that fails its build-time verification raises AssertionError,
    which fails the run.
    """
    if spec.seed == "unimodular":
        return "unimodular", 1, unimodular_cube(spec.l)
    want_m = min(_SEEDS.get(spec.seed, (1,))[0], n)
    for name in SEEDS:  # block seeds first, most colors first
        if name in _SEEDS and _SEEDS[name][0] <= want_m:
            return name, _SEEDS[name][0], cayley_seed(name)
    return "minimal", 1, minimal_cube(spec.l)


def _signature_certified(signature, count: int) -> bool:
    """The per-signature certificate: every block's staircases are strictly
    regular, and the signature's template holds as many simplices as the
    closed form says."""
    lvec, kvec = signature
    return certify_cell_regular(lvec, kvec) and count == multi_staircase_count(
        lvec, kvec
    )


@dataclass
class _Step:
    size: int = 0
    volume_ok: bool = False
    face_to_face: bool | None = None  # only when certified by the ridges
    dissection: bool = False
    tri: Triangulation | None = None  # only when kept


def _product_step(
    t_q, t0, coloring, keep: bool, certify: bool, out_path=None
) -> _Step:
    """One product step: generates the cells in chunks of about
    ``CENSUS_CHUNK`` simplices (:meth:`ProductCells.chunks`) and feeds each
    chunk to the volume census and (with ``out_path``) to the file writer.
    The simplices are kept only when ``keep``, written chunk by chunk into
    one array of the step's size. With ``certify`` (a kept step), the ridge
    certificate runs on the kept rows and the signs of the census's
    volumes, kept the same way as int8; otherwise each distinct cell
    signature is certified once for the dissection tier."""
    cells = ProductCells(t_q, t0, coloring)
    cfg = cells.config
    points = np.asarray(cfg.points, dtype=np.int64)
    total_rows = int(cells.starts[-1])
    if keep:
        rows = np.empty((total_rows, cfg.dim + 1), _index_dtype(len(cfg.points)))
    if certify:  # the ridge check takes only the volumes' signs
        signs = np.empty(total_rows, dtype=np.int8)
    step = _Step()
    volume = zeros = 0
    with open(out_path, "w") if out_path else contextlib.nullcontext() as fh:
        writer = TriangulationWriter(fh, cfg) if fh else None
        for chunk in cells.chunks(CENSUS_CHUNK):
            at = step.size
            step.size += len(chunk)
            vols = signed_volumes(points, chunk)
            total, degenerate = _tally(vols)
            volume += total
            zeros += len(degenerate)
            if writer is not None:
                writer.write(chunk)
            if keep:
                rows[at : step.size] = chunk
            if certify:
                signs[at : step.size] = np.sign(vols)
        if writer is not None:
            writer.close()
    step.volume_ok = volume == ambient_normalized_volume(cfg.label) and zeros == 0
    if keep:
        step.tri = Triangulation(cfg, rows)
    if certify:
        ridges = ridge_violations(cfg, step.tri.rows, signs)
        step.face_to_face = step.dissection = step.volume_ok and not ridges
    else:
        step.dissection = step.volume_ok and all(
            _signature_certified(sig, count)
            for sig, count in cells.signatures.items()
        )
    return step


def build_cube_recursive(spec: PipelineSpec):
    """Build a triangulation of the target cube by repeated product steps.

    Returns (triangulation_or_None, PipelineReport); the triangulation is
    None when the final step exceeded the materialization threshold. With
    no step (dim <= l) the base is the output, and ``spec.out`` gets it.
    """
    l = spec.l
    base_dim = ((spec.dim - 1) % l) + 1
    current = minimal_cube(base_dim)
    if base_dim == spec.dim and spec.out:
        with open(spec.out, "w") as fh:
            fh.write(triangulation_to_json(current))
    sizes = {base_dim: current.size}
    steps: list[StepReport] = []
    ok = True
    rng_counter = 0
    for cur in range(base_dim, spec.dim, l):
        n = cur + 1
        seed_name, m_step, t0 = _pick_seed(spec, n)
        t0_ws = weighted_size(t0)
        nq = len(current.config.points)
        candidates: list[Coloring] = [make_coloring(nq, m_step, "balanced")]
        while len(candidates) < spec.samples:
            candidates.append(
                make_coloring(
                    nq, m_step, "random", rng_seed=spec.rng_seed + 7919 * rng_counter
                )
            )
            rng_counter += 1
        sample_sizes = [product_size(current, t0, c) for c in candidates]
        best_size = min(sample_sizes)
        best = candidates[sample_sizes.index(best_size)]  # the first smallest
        new_dim = cur + l
        bound = size_bound(current.size, t0_ws, n, m_step, l)
        bound_ok = Fraction(best_size) <= bound
        keep = new_dim <= spec.materialize_max_dim
        certify = keep and new_dim <= spec.face_check_max_dim
        out_path = spec.out if new_dim == spec.dim else None
        step = _product_step(current, t0, best, keep, certify, out_path)
        if step.size != best_size:  # an explicit check, kept under python -O
            raise AssertionError(
                f"step to d={new_dim} emitted {step.size} simplices, "
                f"product_size gave {best_size}"
            )
        steps.append(
            StepReport(
                cur,
                new_dim,
                m_step,
                seed_name,
                best_size,
                bound,
                bound_ok,
                step.volume_ok,
                step.face_to_face,
                step.dissection,
                sample_sizes,
            )
        )
        sizes[new_dim] = best_size
        ok = ok and bound_ok and step.volume_ok and step.dissection
        current = step.tri  # None only when the last step was streamed
    return current, PipelineReport(steps, sizes, ok)


def build_cube_haiman(t_k: Triangulation, t_l: Triangulation) -> Triangulation:
    """Staircase refinement of T_k x T_l: size |T_k| |T_l| C(k+l, k), with
    k and l the factors' dimensions."""
    k, l = t_k.config.dim, t_l.config.dim
    coloring = make_coloring(len(t_l.config.points), 1, "balanced")
    tri = triangulate_product(t_l, t_k, coloring)
    expected = t_k.size * t_l.size * math.comb(k + l, k)
    if tri.size != expected:
        raise AssertionError("refinement size disagrees with the closed form")
    return tri


def haiman_baseline_sizes(d_max: int) -> dict[int, int]:
    """Best sizes reachable by composing minimal factors d <= 3 with the
    product refinement; a dynamic program over the split."""
    best = {1: 1, 2: 2, 3: 5}
    for d in range(4, d_max + 1):
        best[d] = min(best[k] * best[d - k] * math.comb(d, k) for k in range(1, d))
    return best


def report_table(d_max: int) -> str:
    """CSV report: per-dimension constants, bounds, and achieved sizes.

    Columns: d,size,efficiency,bound,hadamard,smith,phi_known,rho_known,
    haiman. Two footer rows carry the asymptotic targets of the two seeds.
    Sizes and bounds come from default builds of the last three dimensions.
    """
    # Every spec is checked before the first build.
    specs = [PipelineSpec(dim=t) for t in range(max(4, d_max - 2), d_max + 1)]
    sizes = {d: minimal_cube(d).size for d in range(1, min(3, d_max) + 1)}
    bounds: dict[int, Fraction] = {}
    for spec in specs:
        _, rep = build_cube_recursive(spec)
        for dd, ss in rep.sizes.items():
            sizes.setdefault(dd, ss)
        for st in rep.steps:
            bounds.setdefault(st.dim_to, st.bound)
    haiman = haiman_baseline_sizes(max(d_max, 3))
    buf = io.StringIO()
    w = csv.writer(buf)
    header = "d size efficiency bound hadamard smith phi_known rho_known haiman"
    w.writerow(header.split())
    for d in range(1, d_max + 1):
        size = sizes.get(d, "")
        eff = f"{efficiency(size, d):.4f}" if size != "" else ""
        bound = bounds.get(d, "")
        if bound != "":
            bound = f"{float(bound):.2f}"
        had = f"{hadamard_lower(d):.4f}"
        if 1 <= d <= 8:
            kc = known_constants(d)
            smith = f"{kc.smith_lower:.3f}"
            phi: int | str = kc.phi
            rho = f"{kc.rho:.3f}"
        else:
            smith = phi = rho = ""
        hai = haiman.get(d, "")
        w.writerow([d, size, eff, bound, had, smith, phi, rho, hai])
    w.writerow(["lim_i3d1", "", f"{ASYMPTOTIC_TARGET_2:.4f}", "", "", "", "", "", ""])
    w.writerow(["lim_i3d2", "", f"{ASYMPTOTIC_TARGET_3:.4f}", "", "", "", "", "", ""])
    return buf.getvalue()
