"""Exact validation of lifted product triangulations against their
provenance.

:func:`complexes.ridge_report` certifies a triangulation, face to face
included, from its simplices alone; the pipeline runs its ridge part on
every kept step. :class:`StructuredChecker` adds what only provenance can
say: that each cell's simplex run really is the multi-staircase family of
its blocks, in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (  # re-exported: callers import the census from here
    Triangulation,
    ValidityReport,
    Violation,
    batch_volumes_of,
    ridge_report,
    volume_total,
)
from .coloring import CellProvenance, Coloring
from .staircase import LiftedCell, multi_staircases


@dataclass
class StructuredChecker:
    """Validation of a constructed product triangulation and its
    provenance: each cell's simplex run is recomputed from its blocks
    (``cell-simplices-mismatch``), then :func:`complexes.ridge_report`
    decides the whole, trusting neither the provenance nor the inputs."""

    tri: Triangulation
    provenance: list[CellProvenance]
    coloring: Coloring

    def run(self) -> ValidityReport:
        violations: list[Violation] = []
        nq = len(self.coloring.colors)
        for cell in self.provenance:
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
        ridges = ridge_report(self.tri)
        violations += ridges.violations
        ok = not violations
        return ValidityReport(ok, ok, ridges.volume_total, violations)
