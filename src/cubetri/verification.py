"""Exact structural validation of lifted product triangulations.

The pairwise scan in :mod:`complexes` is authoritative but quadratic.
Constructed lifts carry enough structure to certify validity exactly with
far less work:

* within one lifted cell, per-block strict-regularity certificates show the
  multi-staircases are the lower facets of an exact integer lift, hence
  tile the cell face to face;
* for two simplices in different cells, the intersection of their hulls
  equals the intersection of their restrictions to the common wall (the
  wall is a face of both cells), so the face-to-face question for the pair
  reduces to a much smaller pair that repeats heavily and is memoized;
* interiors of different cells are disjoint whenever the input
  triangulations are valid, because cells are products / affine preimages
  of their cells.

Every certificate used here is exact; nothing is trusted without either a
direct computation or a previously verified input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import linalg
from .complexes import (  # re-exported: callers import the census from here
    Triangulation,
    ValidityReport,
    Violation,
    batch_volumes_of,
    expected_volume,
    volume_total,
)
from .coloring import CellProvenance, Coloring
from .staircase import (
    LiftedCell,
    certify_cell_regular,
    multi_staircases,
    signature_template,
)


def _model_cell_points(lvec, kvec):
    """Coordinates of the standard model cell for a signature, indexed by
    (row position, column position) across blocks as in
    :func:`staircase.signature_template`.

    Rows of all blocks become vertices of one standard simplex, columns of
    all blocks vertices of another; the model cell is affinely isomorphic
    to every instance cell with this signature, so pair validity computed
    on the model transports to instances.
    """
    lsum = sum(lvec)
    nsum = sum(kvec)
    row_off = list(itertools.accumulate(lvec, initial=0))
    col_off = list(itertools.accumulate(kvec, initial=0))
    pts = {}
    for l, k, r0, c0 in zip(lvec, kvec, row_off, col_off):
        for ri in range(r0, r0 + l):
            for ci in range(c0, c0 + k):
                p = [0] * (lsum - 1) + [0] * (nsum - 1)
                if ri > 0:
                    p[ri - 1] = 1
                if ci > 0:
                    p[lsum - 1 + ci - 1] = 1
                pts[(ri, ci)] = tuple(p)
    return pts


_model_pair_cache: dict = {}


def _model_signature_ok(lvec: tuple[int, ...], kvec: tuple[int, ...]) -> bool:
    """Within-cell face-to-face for one signature, via the regularity
    certificate; falls back to the pairwise predicate on the model cell."""
    key = (lvec, kvec)
    if key in _model_pair_cache:
        return _model_pair_cache[key]
    ok = certify_cell_regular(lvec, kvec)
    if not ok:
        pts = _model_cell_points(lvec, kvec)
        tr, tc = signature_template(lvec, kvec)
        cells = [
            tuple(sorted(pts[rc] for rc in zip(r, c)))
            for r, c in zip(tr.tolist(), tc.tolist())
        ]
        bary = [linalg.barycentric_rows(c) for c in cells]
        ok = all(
            linalg.simplices_face_to_face(cells[i], cells[j], bary[i], bary[j])
            for i in range(len(cells))
            for j in range(i + 1, len(cells))
        )
    _model_pair_cache[key] = ok
    return ok


@dataclass
class StructuredChecker:
    """Face-to-face verification of a constructed product triangulation.

    Assumes T_Q and T_0 have themselves been validated (their validity is
    an explicit input, supplied by the caller's own checks). Everything
    else is certified here, including that each provenance cell's simplex
    run really is the multi-staircase family of its blocks, so a tampered
    triangulation cannot pass on the strength of its provenance alone.
    """

    tri: Triangulation
    provenance: list[CellProvenance]
    coloring: Coloring
    _wall_cache: dict = field(default_factory=dict)

    def _wall_pair_ok(self, w1, w2) -> bool:
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        hit = self._wall_cache.get(key)
        if hit is None:
            # Wall restrictions are lower-dimensional: they have no
            # barycentric rows, so no facet certificate applies.
            hit = linalg.simplices_face_to_face(list(key[0]), list(key[1]))
            self._wall_cache[key] = hit
        return hit

    def _cell_wall_reps(self, cell: CellProvenance, x_set, z_base):
        """Distinct wall restrictions of the cell's simplices, as point
        tuples. Restriction keeps vertices whose Q part lies in the common
        Q-face and whose base pair lies in the common base face."""
        pts = self.tri.config.points
        colors = self.coloring.colors
        nq = len(colors)
        reps = {}
        for s in self.tri.simplices[cell.start : cell.end]:
            keep = []
            for idx in s:
                p, q = divmod(idx, nq)
                if q in x_set and (p, colors[q]) in z_base:
                    keep.append(pts[idx])
            reps.setdefault(tuple(keep), None)
        return list(reps)

    def run(self) -> ValidityReport:
        violations: list[Violation] = []
        nq = len(self.coloring.colors)
        # Within-cell certificates, one evaluation per distinct signature,
        # plus a recomputation of each cell's simplex run from its blocks.
        for cell in self.provenance:
            lvec, kvec = cell.signature
            if not _model_signature_ok(lvec, kvec):
                violations.append(
                    Violation("cell-not-face-to-face", (cell.sigma, cell.tau_index))
                )
            expected = multi_staircases(LiftedCell(cell.rows, cell.cols, nq))
            got = list(self.tri.simplices[cell.start : cell.end])
            if got != expected:
                violations.append(
                    Violation(
                        "cell-simplices-mismatch",
                        (cell.sigma, cell.tau_index),
                        f"{len(got)} stored vs {len(expected)} recomputed",
                    )
                )
        # Cross-cell pairs, reduced to their common wall.
        cells = self.provenance
        colors = self.coloring.colors
        for i in range(len(cells)):
            ci = cells[i]
            set_si = set(ci.sigma)
            for j in range(i + 1, len(cells)):
                cj = cells[j]
                x_set = set_si & set(cj.sigma)
                if not x_set:
                    continue
                x_colors = {colors[q] for q in x_set}
                z_base = {
                    pc
                    for pc in (ci.base_face & cj.base_face)
                    if pc[1] in x_colors
                }
                if not z_base:
                    continue
                reps_i = self._cell_wall_reps(ci, x_set, z_base)
                reps_j = self._cell_wall_reps(cj, x_set, z_base)
                for w1 in reps_i:
                    if not w1:
                        continue
                    for w2 in reps_j:
                        if not w2:
                            continue
                        if not self._wall_pair_ok(w1, w2):
                            violations.append(
                                Violation(
                                    "not-face-to-face",
                                    (
                                        (ci.sigma, ci.tau_index),
                                        (cj.sigma, cj.tau_index),
                                    ),
                                )
                            )
        vol = volume_total(self.tri)
        expected = expected_volume(self.tri.config)
        if expected is not None and vol != expected:
            violations.append(
                Violation("volume-mismatch", (), f"got {vol}, expected {expected}")
            )
        ok = not violations
        return ValidityReport(ok, ok, vol, violations)
