"""Triangulations: representation, exact validity checking, and accounting.

A simplex is a sorted row of indices into a :class:`PointConfiguration`.
A :class:`Triangulation` holds its simplices as one index array, the form
the generator, the file reader and writer, the census, the duplicate scan
and the ridge check all take; simplices of different sizes are rejected
where they enter. Rows that arrive sorted and in the index dtype, as the
generator and the reader give them, are kept as given, with no copy. A
tuple of tuples built from it on first use is the form
the pair scan takes. Validity is decided exactly on vertex coordinates:

* dissection = volumes sum to the ambient volume and all pairs of cells
  have disjoint interiors;
* face-to-face = for every pair, conv(S1) ∩ conv(S2) = conv(S1 ∩ S2).

A configuration is its label (:mod:`geometry`), so the census checks every
total against the label's volume and the certificate below takes the
label's facets. Both validators take the census once and try the ridge
certificate on it first; only a refusal runs the pair scan,
:func:`_pair_scan`, which then gives the verdict and the ordered
violations. The pair scan uses the certificate-first predicates of
:mod:`linalg`, with each simplex's barycentric rows computed once per
scan, and is the tests' reference.
Every volume total goes through one census, :func:`signed_volumes`:
batched signed integer determinants over fixed-size chunks of index rows.

:func:`ridge_report` is the certificate that needs neither provenance nor
a pair scan. It holds for full-dimensional simplices S_1..S_N in a
d-polytope P when (a) every ridge lies in at most two simplices, (b) a
ridge in one simplex lies in a facet of P, (c) the two simplices at any
other ridge lie on opposite sides of it, and (d) the volumes sum to
vol(P). Crossing a ridge of kind (c) leaves one simplex and enters
another, and a ridge of kind (b) is only crossed on leaving P, so the
number of simplices covering a generic point is the same constant c all
over P. The census gives sum vol(S_i) = c vol(P), so (d) forces c = 1:
the simplices tile P. With every interior ridge matched this way they
form a triangulation; this is the characterization of triangulations by
the pseudo-manifold property in De Loera, Rambau and Santos,
*Triangulations* (Springer, 2010), §4.5. Every caller takes the one
census, :func:`_census` (or :func:`_tally` on a chunk's signed volumes),
and then :func:`ridge_violations`, the ridge part alone, on the census's
signed volumes (only their signs are read). Equal ridges are matched as
runs of equal rows (:func:`_runs`, one stable lexicographic sort), and
equal simplices, the duplicates, the same way. The oracle's search grows
cells under the same ridge conditions, on the same census, ridge names
(:func:`_ridge_rows`) and their runs, apex sides (:func:`_apex_sides`)
and facet test (:func:`_facet_masks`).

Every step and check holds one bounded, narrow slice of its data at a
time, besides the index rows and one int8 (or, past int8, int64) volume
per row: the census takes chunks of ``CENSUS_CHUNK`` rows, and the ridge
check and the duplicate scan sort buckets of at most ``RIDGE_BUCKET``
ridges or rows, one index-dtype column per vertex position. A bucket is
a range of first vertices; a first vertex with more than ``RIDGE_BUCKET``
alone is cut by the second vertex, which equal ridges (and equal rows)
share too, so no bucket splits a group, and only the items of one first
and second vertex can overfill one (:func:`_bucket_cuts`).

Files hold one simplex per line (:class:`TriangulationWriter`), so a step
too large to keep in memory is written chunk by chunk in the same format.
:func:`triangulation_from_json` reads a file in exactly that layout
straight to an index array, ``READ_BLOCK`` characters at a time; from a
file handle it never holds the whole text, in two passes (count the
rows, then fill one array). Any other JSON layout goes through
``json.loads`` on the whole text; both reject an index that is not an
``int`` of range ``[0, len(points))``, simplices of different sizes and a
``dim`` that is not the label's, with the same message.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TextIO

import numpy as np

from . import linalg
from .geometry import (
    Label,
    PointConfiguration,
    ProductLabel,
    SimplexLabel,
    ambient_normalized_volume,
    facet_inequalities,
    normalized_volume,
    parse_label,
    point_count,
)

Simplex = tuple[int, ...]


class Triangulation:
    """A configuration and its simplices, as one read-only (N, k) index
    array :attr:`rows` in the :func:`index_rows` dtype, each row sorted.

    An integer array and an iterable of index tuples pass the same checks:
    one 2-d integer array (tuples of different sizes are rejected), every
    index one of the points. An array already in the index dtype whose
    rows are sorted (:func:`_rows_sorted`), as the generator and the
    reader give them, becomes :attr:`rows` itself, made read-only, with
    no copy; any other input is converted and sorted, which gives the same
    rows. :attr:`simplices` is the rows as a tuple of tuples and
    :attr:`blocks` their factor blocks, each built on first use; equality
    compares configuration and rows.
    """

    __slots__ = ("config", "rows", "_simplices", "_blocks")

    def __init__(self, config: PointConfiguration, simplices):
        self.config = config
        if not isinstance(simplices, np.ndarray):
            simplices = _tuple_rows(simplices, config.dim + 1)
        if simplices.ndim != 2 or simplices.dtype.kind not in "iu":
            raise ValueError("simplices must be one 2-d integer array")
        if simplices.size and (
            simplices.min() < 0 or simplices.max() >= len(config.points)
        ):
            raise ValueError("simplex index out of range")
        rows = np.ascontiguousarray(index_rows(simplices, len(config.points)))
        self.rows = rows if _rows_sorted(rows) else np.sort(rows, axis=1)
        self.rows.flags.writeable = False
        self._simplices = self._blocks = None

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        if self._simplices is None:
            self._simplices = tuple(map(tuple, self.rows.tolist()))
        return self._simplices

    @property
    def blocks(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each simplex's :func:`factor_blocks` over the simplex factor of
        the configuration (:func:`simplex_factor`), built on first use."""
        if self._blocks is None:
            _, m = simplex_factor(self.config)
            self._blocks = tuple(factor_blocks(s, m) for s in self.simplices)
        return self._blocks

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self.config == other.config and np.array_equal(self.rows, other.rows)

    def __repr__(self):
        return f"Triangulation({self.config.label}, size={self.size})"

    def points_of(self, s: Simplex) -> list[tuple[int, ...]]:
        pts = self.config.points
        return [pts[i] for i in s]

    def volume_of(self, s: Simplex) -> int:
        return normalized_volume(self.points_of(s))


def _rows_sorted(rows: np.ndarray) -> bool:
    """Whether every row is ascending, so that ``np.sort(rows, axis=1)``
    would return the same rows; checked ``CENSUS_CHUNK`` rows at a time."""
    for start in range(0, len(rows), CENSUS_CHUNK):
        chunk = rows[start : start + CENSUS_CHUNK]
        if not (chunk[:, 1:] >= chunk[:, :-1]).all():
            return False
    return True


def _tuple_rows(simplices, width: int) -> np.ndarray:
    """Index tuples as one array (of ``width`` columns if there are none);
    ValueError naming the first simplex whose size is not the first's."""
    simplices = [tuple(s) for s in simplices]
    for s in simplices:
        if len(s) != len(simplices[0]):
            raise ValueError(f"simplices of different sizes: {s} and {simplices[0]}")
    return np.array(simplices) if simplices else np.empty((0, width), np.int64)


@dataclass
class Violation:
    kind: str
    members: tuple
    detail: str = ""

    def __repr__(self):
        return f"Violation({self.kind}, {self.members}, {self.detail})"


@dataclass
class ValidityReport:
    is_dissection: bool
    is_face_to_face: bool
    volume_total: int
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.is_dissection


def expected_volume(config: PointConfiguration) -> int:
    return ambient_normalized_volume(config.label)


CENSUS_CHUNK = 8192  # rows per batch: bounds the census's working memory


def signed_volumes(points, rows) -> np.ndarray:
    """Signed determinants det(p_1 - p_0, ..., p_d - p_0) of full-dimensional
    simplices given as index rows into ``points``, in row order, as int64;
    their absolute values are the normalized volumes.

    Every entry p_r[c] - p_0[c] is at most the range (max - min) of
    coordinate c over ``points``, so one guard on the largest range
    (:func:`linalg.exact_dtype`) picks the dtype of the whole census: int32,
    int64, or Python ints (``object``) when neither is wide enough. Each
    chunk of ``CENSUS_CHUNK`` rows, which bounds the working memory, is
    written straight into the (d, d, N) layout of
    :func:`linalg.batch_last_det`: rows vertex differences, columns
    coordinates, batch last. Row r is the (d, N) block of vertex r's
    coordinates, taken from a (d, points) table by the chunk's own column
    of vertex r (in the index dtype), minus that of vertex 0, so no index
    array of the chunk's size is built. A volume that int64 cannot hold
    raises OverflowError.
    """
    out = np.zeros(len(rows), dtype=np.int64)
    if not len(out):
        return out
    pts = linalg.int_array(points)
    d = pts.shape[1]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = max((int(b) - int(a) for a, b in zip(lo, hi)), default=0)
    dtype = linalg.exact_dtype(span, d) or object
    if dtype is object:  # then the shift below might not fit int64
        pts = pts.astype(object)
    # Shifted to a zero minimum, every coordinate lies in [0, span] and
    # fits dtype. Entry (c, p) is coordinate c of point p.
    table = (pts - lo).T.astype(dtype, order="C")
    for start in range(0, len(rows), CENSUS_CHUNK):
        chunk = np.asarray(rows[start : start + CENSUS_CHUNK])
        g = np.empty((d, d, len(chunk)), dtype=dtype)
        base = table.take(chunk[:, 0], axis=1)  # (d, N) coordinates of p_0
        for r in range(d):
            np.subtract(table.take(chunk[:, r + 1], axis=1), base, out=g[r])
        try:
            out[start : start + len(chunk)] = linalg.batch_last_det(g)
        except OverflowError:
            raise OverflowError("a signed volume int64 cannot hold") from None
    return out


def _tally(vols: np.ndarray) -> tuple[int, list[int]]:
    # The int64 sum is exact while N max|v| < 2**63. Census volumes of the
    # int32 path are below 2**31 (linalg.exact_dtype), so only points with
    # huge coordinates can need Python's sum.
    big = max(int(vols.max()), -int(vols.min())) if len(vols) else 0
    if big * len(vols) < 2**63:
        total = int(np.abs(vols).sum())
    else:
        total = sum(map(abs, vols.tolist()))
    return total, np.flatnonzero(vols == 0).tolist()


def volume_total(tri: Triangulation) -> int:
    """Exact total normalized volume of a full-dimensional triangulation."""
    return _tally(signed_volumes(tri.config.points, tri.rows))[0]


def batch_volumes_of(points, simplex_rows) -> tuple[int, int]:
    """(sum of |det|, count of zero dets) for a batch of simplices given as
    index rows into ``points``."""
    total, degenerate = _tally(signed_volumes(points, simplex_rows))
    return total, len(degenerate)


def _census(tri: Triangulation):
    """The census part of every report: (full-dimensional simplices as index
    rows, their signed volumes, total volume, violations). The violations
    name each simplex that is not full-dimensional, then each degenerate
    one, then a total that is not the label's volume.

    The volumes are taken ``CENSUS_CHUNK`` rows at a time and kept as int8
    while they fit, as every unimodular simplex's does, and as int64 from
    the first chunk that does not."""
    full = tri.rows
    violations = []
    if full.shape[1] != tri.config.dim + 1:
        violations = [Violation("not-full-dimensional", (s,)) for s in tri.simplices]
        full = full[:0]
    points = linalg.int_array(tri.config.points)
    vols = np.zeros(len(full), dtype=np.int8)
    total, degenerate = 0, []
    for start in range(0, len(full), CENSUS_CHUNK):
        part = signed_volumes(points, full[start : start + CENSUS_CHUNK])
        if vols.dtype == np.int8 and not (-128 <= part.min() and part.max() < 128):
            vols = vols.astype(np.int64)
        vols[start : start + len(part)] = part
        part_total, part_degenerate = _tally(part)
        total += part_total
        degenerate += [start + i for i in part_degenerate]
    violations.extend(
        Violation("degenerate", (tuple(full[i].tolist()),)) for i in degenerate
    )
    expected = expected_volume(tri.config)
    if total != expected:
        violations.append(
            Violation("volume-mismatch", (), f"got {total}, expected {expected}")
        )
    return full, vols, total, violations


def duplicate_simplices(tri: Triangulation) -> list[Violation]:
    """A ``duplicate`` violation for each repeat of an earlier simplex, in
    order: each row of a run of equal rows (:func:`_runs`) but its first.

    Equal rows share their first two vertices, so the runs are found in
    buckets of at most ``RIDGE_BUCKET`` rows (:func:`_bucket_ids`, a row
    keyed by its first two vertices), unless the rows of one first and
    second vertex alone are more."""
    rows = tri.rows
    if not rows.shape[1]:  # empty rows are all equal
        picks = [np.arange(len(rows))]
    elif len(rows):
        groups = (((0, 1 if rows.shape[1] > 1 else None), 1),)
        buckets, ids = _bucket_ids(rows, len(tri.config.points), groups)
        picks = (np.flatnonzero(ids[0] == b) for b in range(buckets))
    else:
        return []
    repeats = [np.zeros(0, dtype=np.intp)]
    for pick in picks:
        order, starts = _runs(list(rows[pick].T), len(pick))
        repeats.append(pick[order[~starts[:-1]]])
    return [
        Violation("duplicate", (tuple(rows[i].tolist()),))
        for i in np.sort(np.concatenate(repeats)).tolist()
    ]


def _runs(cols: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of equal rows among n rows given as a list of columns:
    (order, starts). ``order`` is one stable lexicographic sort of the
    rows, first column first, so each run lists its rows ascending;
    ``starts[p]`` tells whether a run starts at sorted position p, and
    ``starts[n]`` closes the last. Each sorted column is compared as one
    1-d array and taken off ``cols`` first, which is left empty, so no
    column outlives its comparison. With no column, all n rows are equal.
    """
    order = np.lexsort(cols[::-1]) if cols else np.arange(n)
    starts = np.ones(n + 1, dtype=bool)
    starts[1:n] = False
    while cols:
        key = cols.pop(0)[order]
        starts[1:n] |= key[1:] != key[:-1]
        del key
    return order, starts


def validate_dissection(tri: Triangulation, pairwise: bool = True) -> ValidityReport:
    """Exact dissection check: volume census, duplicates and, with
    ``pairwise``, disjoint interiors, decided certificate first
    (:func:`_certificate_first`).

    Degenerate simplices are reported as violations, not raised.
    ``pairwise=False`` is the census and the duplicate scan alone.
    """
    if pairwise:
        return _certificate_first(tri, face_to_face=False)
    _, _, total, violations = _census(tri)
    violations += duplicate_simplices(tri)
    return ValidityReport(not violations, False, total, violations)


def validate_face_to_face(tri: Triangulation) -> ValidityReport:
    """Exact face-to-face check, decided certificate first
    (:func:`_certificate_first`).

    Two distinct simplices that meet in a common face have disjoint
    interiors, so a passing report is simultaneously a dissection
    certificate.
    """
    return _certificate_first(tri, face_to_face=True)


def _certificate_first(tri: Triangulation, face_to_face: bool) -> ValidityReport:
    """The pair scan's report (:func:`_pair_scan`), from the ridge
    certificate when it accepts.

    The census against the label's volume is taken once, and the
    certificate runs on its signed volumes when it found nothing. An input
    it accepts is a triangulation, whose pairs all meet face to face, so
    the pair scan would report nothing; every other input goes to the pair
    scan, which gives the verdict and the ordered violations.
    """
    full, vols, total, violations = census = _census(tri)
    if not violations and not ridge_violations(tri.config, full, vols):
        return ValidityReport(True, face_to_face, total)
    return _pair_scan(tri, census, face_to_face)


def _pair_scan(tri: Triangulation, census, face_to_face: bool) -> ValidityReport:
    """The report of the census's violations, then the duplicates, then a
    violation for each pair (i < j, in order) that the exact pair
    predicate of :mod:`linalg` refuses: ``not-face-to-face`` with
    ``face_to_face`` (a simplex is not paired with its own repeat),
    ``interior-overlap`` without. Each simplex's barycentric rows are
    computed once. No certificate: the tests' reference."""
    _, _, total, violations = census
    violations += duplicate_simplices(tri)
    if face_to_face:
        kind, meets = "not-face-to-face", linalg.simplices_face_to_face
    else:
        kind, meets = "interior-overlap", linalg.simplices_interiors_disjoint
    simplices = tri.simplices
    cells = [tri.points_of(s) for s in simplices]
    bary = [linalg.barycentric_rows(p) for p in cells]
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if face_to_face and simplices[i] == simplices[j]:
                continue  # already reported as duplicate
            if not meets(cells[i], cells[j], bary[i], bary[j]):
                violations.append(Violation(kind, (simplices[i], simplices[j])))
    ok = not violations
    return ValidityReport(ok, face_to_face and ok, total, violations)


def _apex_sides(vols: np.ndarray, d: int) -> np.ndarray:
    """(N, d+1) sides: entry [i, j] is the orientation of (ridge, apex) when
    position j is dropped from the sorted simplex i.

    The affine determinant is alternating in its d+1 points, and moving
    the apex s_j to the end is a cyclic shift of d-j places, so the side is
    o(s) (-1)^(d-j), with o(s) the simplex's signed volume.
    """
    parity = np.where((d - np.arange(d + 1)) % 2 == 1, -1, 1)
    return np.sign(vols).astype(np.int8)[:, None] * parity.astype(np.int8)


def _ridge_rows(simp: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Vertex rows of the ridges with flat indices ``ks``: ridge
    k = i (d+1) + j is sorted simplex i without its position j."""
    d1 = simp.shape[1]
    keep = ~np.eye(d1, dtype=bool)
    return simp[ks // d1][keep[ks % d1]].reshape(len(ks), d1 - 1)


def index_rows(rows, n_points: int) -> np.ndarray:
    """Index rows as the narrowest array the steps and checks take:
    ``uint16`` below 65,536 points, ``int64`` from there."""
    return np.asarray(rows, dtype=_index_dtype(n_points))


def _index_dtype(n_points: int):
    return np.uint16 if n_points < 2**16 else np.int64


RIDGE_BUCKET = 1 << 17  # ridges (or rows) matched at a time: bounds the working memory


def ridge_violations(
    config: PointConfiguration, simplices, signed_vols
) -> list[Violation]:
    """The ridge part of the certificate in the module docstring.

    ``simplices`` are full-dimensional simplices of ``config``
    as sorted index rows (tuples or one (N, d+1) array), and
    ``signed_vols`` their signed volumes (:func:`signed_volumes`), of
    which only the signs are read, so the signs alone will do. Pairs
    the ridges by sorting them: a ridge in more than two simplices is
    ``ridge-overused``, one in a single simplex and on no facet
    ``open-interior-ridge``, and two simplices on the same side of their
    ridge (or degenerate) ``ridge-same-side``. Violations come in the
    order of each ridge's first occurrence. Sides come from the signed
    volumes (:func:`_apex_sides`), so no determinant is taken per ridge.

    Equal ridges share their first two vertices, so the ridges are sorted
    in buckets of ranges of first vertices, and of second vertices within
    a first vertex whose ridges alone exceed ``RIDGE_BUCKET``
    (:func:`_ridge_buckets`), as in the distribution pass of an external
    sort (Knuth, *TAOCP* vol. 3, §5.4). A bucket never splits a group of
    equal ridges and holds at most ``RIDGE_BUCKET`` ridges, unless the
    ridges of one first and second vertex (at d = 1, of one vertex) alone
    are more, so the working memory is that of one bucket
    (:func:`_bucket_violations`).
    """
    d = config.dim
    simp = index_rows(simplices, len(config.points)).reshape(-1, d + 1)
    vols = np.asarray(signed_vols)
    masks = _facet_masks(config)
    found: list[tuple[int, Violation]] = []
    for rows, valid in _ridge_buckets(simp, len(config.points)):
        found += _bucket_violations(simp, rows, valid, vols, masks)
    found.sort(key=lambda item: item[0])
    return [v for _, v in found]


def _ridge_groups(d1: int) -> tuple:
    """The ridges of a sorted simplex of d1 vertices by their first two
    vertices, as (columns of the simplex, ridges) per group: the ridge
    without position 0, the one without position 1 and, for d >= 2, the
    d-1 without a later position. At d = 1 a ridge is one vertex."""
    if d1 == 2:
        return (((1, None), 1), ((0, None), 1))
    return (((1, 2), 1), ((0, 2), 1), ((0, 1), d1 - 2))


def _ridge_buckets(simp: np.ndarray, n_points: int):
    """The buckets of :func:`ridge_violations` as pairs (rows, valid): the
    ascending indices of the simplices that own the bucket's ridges, and a
    (rows, d+1) mask whose entry [r, j] tells whether the ridge without
    position j of simplex rows[r] is in the bucket (:func:`_bucket_ids`
    of the :func:`_ridge_groups`)."""
    n, d1 = simp.shape
    if not n:
        return
    if d1 == 1:  # a point's one ridge, the empty one, is the same for all
        yield np.arange(n), np.ones((n, 1), dtype=bool)
        return
    buckets, ids = _bucket_ids(simp, n_points, _ridge_groups(d1))
    for b in range(buckets):
        here = ids[0] == b
        for g in range(1, len(ids)):
            here |= ids[g] == b
        rows = np.flatnonzero(here)
        del here  # not held while the bucket is matched
        valid = np.empty((len(rows), d1), dtype=bool)
        for g in range(len(ids)):  # group g is position g; the last, 2..d
            valid[:, g : g + 1 if g < 2 else None] = ids[g, rows, None] == b
        yield rows, valid


def _bucket_ids(simp: np.ndarray, n_points: int, groups) -> tuple[int, np.ndarray]:
    """(buckets, ids) for the keyed items of ``groups``, pairs
    ((a, b), times) that give each row ``times`` items keyed by its
    columns a and b: ``ids[g, i]`` is the bucket of row i's items of group
    g. An item's key is first * n_points + second, with first = row[a] and
    second = row[b] (0 when b is None), so equal items have equal keys and
    keys ascend with the lexicographic order of (first, second). Bucket k
    holds the keys cuts[k]..cuts[k+1]-1 (:func:`_bucket_cuts`). The keys
    are taken ``CENSUS_CHUNK`` rows at a time."""
    cuts = _bucket_cuts(simp, n_points, groups)
    ids = np.empty((len(groups), len(simp)), np.min_scalar_type(len(cuts)))
    for start in range(0, len(simp), CENSUS_CHUNK):
        part = simp[start : start + CENSUS_CHUNK].astype(np.int64)
        for g, ((a, b), _) in enumerate(groups):
            key = part[:, a] * n_points + (part[:, b] if b is not None else 0)
            ids[g, start : start + len(part)] = np.searchsorted(cuts, key, "right") - 1
    return len(cuts) - 1, ids


def _bucket_cuts(simp: np.ndarray, n_points: int, groups) -> np.ndarray:
    """Ascending keys that start the buckets of :func:`_bucket_ids`, then
    ``n_points ** 2``, past every key.

    The units of the cut are the first vertices, except that a first
    vertex whose items alone exceed ``RIDGE_BUCKET`` is cut into its
    (first, second) vertex pairs when every group has a second column. A
    bucket takes units while its items stay within ``RIDGE_BUCKET``, and
    at least the next unit that has one. Equal items share
    a unit, so no bucket splits a group of equal items, and a bucket holds
    more than ``RIDGE_BUCKET`` items only when one unit does."""
    per_vertex = np.zeros(n_points, dtype=np.int64)
    for (a, _), times in groups:
        per_vertex += times * np.bincount(simp[:, a], minlength=n_points)
    splits = all(b is not None for (_, b), _ in groups)
    big = np.flatnonzero(per_vertex > RIDGE_BUCKET) if splits else []
    by_second = _second_counts(simp, big, n_points, groups) if len(big) else None
    vertex_keys = np.arange(n_points, dtype=np.int64) * n_points
    keys, counts, prev = [], [], 0
    for r, v in enumerate(big):
        keys += [vertex_keys[prev:v], v * n_points + np.arange(n_points)]
        counts += [per_vertex[prev:v], by_second[r]]
        prev = v + 1
    keys.append(vertex_keys[prev:])
    counts.append(per_vertex[prev:])
    cum = np.cumsum(np.concatenate(counts))
    firsts = [0]  # the first unit of each bucket, then the end of the last
    done = 0  # the items of the units before the last bucket's end
    while done < cum[-1]:
        hi = np.searchsorted(cum, [done + RIDGE_BUCKET, done], side="right")
        end = int(max(hi[0], hi[1] + 1))
        firsts.append(end)
        done = int(cum[end - 1])
    # The last bucket ends past the units that hold an item.
    return np.append(np.concatenate(keys)[firsts[:-1]], np.int64(n_points) ** 2)


def _second_counts(simp: np.ndarray, vertices, n_points: int, groups) -> np.ndarray:
    """(len(vertices), n_points) counts: entry [r, w] is the number of
    items of ``groups`` (:func:`_bucket_ids`) whose first vertex is
    vertices[r] and whose second is w, counted ``CENSUS_CHUNK`` rows at a
    time."""
    rank = np.full(n_points, -1, dtype=np.int64)
    rank[vertices] = np.arange(len(vertices))
    size = len(vertices) * n_points
    counts = np.zeros(size, dtype=np.int64)
    for start in range(0, len(simp), CENSUS_CHUNK):
        part = simp[start : start + CENSUS_CHUNK]
        for (a, b), times in groups:
            first = rank[part[:, a]]
            at = np.flatnonzero(first >= 0)
            keys = first[at] * n_points + part[at, b]
            counts += times * np.bincount(keys, minlength=size)
    return counts.reshape(len(vertices), n_points)


def _bucket_violations(
    simp: np.ndarray,
    rows: np.ndarray,
    valid: np.ndarray,
    vols: np.ndarray,
    masks: np.ndarray,
) -> list[tuple[int, Violation]]:
    """(first flat ridge, violation) for each bad group of equal ridges in
    one bucket of :func:`_ridge_buckets`; ridge k = i (d+1) + j is sorted
    simplex i without its position j.

    The bucket's d ridge columns are built from repeated vertex columns in
    the index dtype, in ascending flat order, so the runs of equal ridges
    (:func:`_runs`) list each group in first-occurrence order. The groups
    of one, two and more ridges come from the run starts one and two
    places on. A single ridge lies on a facet when the facet bitmasks of
    its vertices (:func:`_facet_masks`) share a bit; two ridges pair when
    their apexes lie on opposite sides (:func:`_apex_sides`).
    """
    d1 = simp.shape[1]
    d = d1 - 1
    sub = simp[rows]
    n = int(np.count_nonzero(valid))
    # Ridge r of the bucket is in simplex rows[owner] and drops position j,
    # the k-th valid one of its row: 0 if valid, then 1 if valid, then 2..d
    # all or none (:func:`_ridge_groups`).
    has0 = valid[:, 0]
    has1 = valid[:, 1] if d else np.zeros(len(valid), dtype=bool)
    per_row = has0.astype(np.intp) + has1 + max(d - 1, 0) * valid[:, -1]
    before = np.cumsum(per_row) - per_row
    # Column c of the ridge without position j is vertex c of the simplex
    # for j > c and vertex c+1 for j <= c; each vertex column is repeated
    # once per ridge of its row.
    dropped = np.tile(np.arange(d1, dtype=np.uint8), len(rows))[valid.ravel()]
    cols = []
    vertex = np.repeat(sub[:, 0], per_row)
    for c in range(d):
        following = np.repeat(sub[:, c + 1], per_row)
        cols.append(np.where(dropped > c, vertex, following))
        vertex = following
    del dropped, vertex
    order, starts = _runs(cols, n)
    first, last = starts[:n], starts[1:]  # sorted ridge p opens, closes a group
    bad = first & ~last
    bad[:-1] &= ~starts[2:]  # more than two ridges

    def locate(r):
        owner = np.searchsorted(before, r, side="right") - 1
        k = r - before[owner]
        h0, h1 = has0[owner], has1[owner]
        later = np.where(h1 & (k == h0), 1, k + 2 - h0 - h1)
        return owner, np.where(h0 & (k == 0), 0, later)

    # A point has no facet, and its one ridge, the empty one, is its boundary.
    single = np.flatnonzero(first & last) if d else np.zeros(0, np.intp)
    if len(single):
        owner, j = locate(order[single])
        common = np.full((len(single), masks.shape[1]), ~np.uint64(0))
        for c in range(d):
            common &= masks[sub[owner, c + (j <= c)]]
        bad[single[~common.any(axis=1)]] = True
    sides = _apex_sides(vols[rows], d)[valid][order]
    bad[:-1] |= first[:-1] & ~last[:-1] & starts[2:] & (sides[:-1] * sides[1:] >= 0)
    del sides
    out = []
    groups = np.flatnonzero(starts)
    for p in np.flatnonzero(bad).tolist():
        size = int(groups[np.searchsorted(groups, p, side="right")]) - p
        owner, j = locate(order[p : p + size])
        owners = tuple(map(tuple, sub[owner].tolist()))
        k = int(rows[owner[0]]) * d1 + int(j[0])  # the first ridge's flat index
        if size > 2:
            out.append((k, Violation("ridge-overused", owners)))
            continue
        ridge = str(tuple(_ridge_rows(simp, np.array([k]))[0].tolist()))
        kind = "open-interior-ridge" if size == 1 else "ridge-same-side"
        out.append((k, Violation(kind, owners, ridge)))
    return out


def _facet_masks(config: PointConfiguration) -> np.ndarray:
    """(points, words) ``uint64`` bitmasks: bit f % 64 of word f // 64 in
    row p is whether point p lies on facet f of the configuration's polytope."""
    facets = facet_inequalities(config.label)
    a = np.array([av for av, _ in facets], dtype=np.int64)
    b = np.array([bv for _, bv in facets], dtype=np.int64)
    pts = np.array(config.points, dtype=np.int64)
    on = pts @ a.reshape(len(facets), config.dim).T == b
    words = max(1, -(-on.shape[1] // 64))
    bits = np.zeros((on.shape[0], 64 * words), dtype=bool)
    bits[:, : on.shape[1]] = on
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def ridge_report(tri: Triangulation) -> ValidityReport:
    """The ridge certificate of the module docstring, decided exactly: the
    census against the label's volume, whose violations come first, then
    :func:`ridge_violations` on the census's signed volumes."""
    full, vols, total, violations = _census(tri)
    violations += ridge_violations(tri.config, full, vols)
    ok = not violations
    return ValidityReport(ok, ok, total, violations)


def efficiency(size: int, d: int) -> float:
    """(size / d!)^(1/d), for reporting only (never used in predicates)."""
    if size < 1 or d < 1:
        raise ValueError("size and dimension must be positive")
    return math.exp((math.log(size) - math.lgamma(d + 1)) / d)


def simplex_factor(config: PointConfiguration) -> tuple[Label, int]:
    """(P, m) for a configuration of P x simplex(m-1); a label that does
    not end in ``simplex(k)`` is P itself with m = 1, as P x simplex(0)
    has P's points in the same order.

    Vertex (p, i) of the product has index p * m + i, so ``idx % m`` is its
    simplex-factor vertex and ``idx // m`` its point of P.
    """
    label = config.label
    if isinstance(label, ProductLabel) and isinstance(label.right, SimplexLabel):
        return label.left, label.right.k + 1
    return label, 1


def factor_blocks(s: Simplex, m: int) -> tuple[tuple[int, ...], ...]:
    """Points of P under each of the m simplex-factor vertices, sorted."""
    blocks: list[list[int]] = [[] for _ in range(m)]
    for idx in s:
        blocks[idx % m].append(idx // m)
    return tuple(tuple(sorted(b)) for b in blocks)


def simplex_costs(
    config: PointConfiguration, rows: np.ndarray
) -> tuple[list[int], int]:
    """(costs, den): each row's weight as an integer cost over one
    denominator; no other code weighs a cell. On P x simplex(m-1)
    (:func:`simplex_factor`: m = 1 for a label with no simplex factor),
    with P of dimension l, a row of type (t_1, ..., t_m) (its
    :func:`factor_blocks` sizes minus one) weighs 1/∏ t_i!, so its cost is
    the multinomial l!/∏ t_i! and den is l!. ValueError for rows that are
    not of d+1 vertices and for a row with no vertex over some simplex
    vertex."""
    if rows.shape[1] != config.dim + 1:
        raise ValueError(f"rows of {rows.shape[1]} vertices, not {config.dim + 1}")
    left, m = simplex_factor(config)
    counts = (rows[:, :, None] % m == np.arange(m)).sum(axis=1)
    if not counts.all():
        raise ValueError("full-dimensional simplex must cover every factor vertex")
    fact = np.array([math.factorial(k) for k in range(left.dim + 1)], dtype=object)
    return (fact[-1] // fact[counts - 1].prod(axis=1)).tolist(), fact[-1]


def weighted_size(tri: Triangulation) -> Fraction:
    """Sum of 1/∏ t_i! over the simplices, from :func:`simplex_costs`."""
    costs, den = simplex_costs(tri.config, tri.rows)
    return Fraction(sum(costs), den)


def weighted_efficiency_from(ws: Fraction, l: int, m: int) -> float:
    return math.exp(
        (math.log(ws.numerator) - math.log(ws.denominator) - l * math.log(m)) / l
    )


class TriangulationWriter:
    """Writes the triangulation file format incrementally: a header with
    the configuration, then one simplex per line, then a footer.

    Each chunk is an (N, k) index array, encoded through tables of the
    indices' decimal strings (:func:`_encode_rows`), so it gives the bytes
    ``json.dumps`` gives for the same rows.
    """

    def __init__(self, fh: TextIO, config: PointConfiguration):
        self.fh = fh
        self.first = True
        self.tables = _row_tables(len(config.points))
        fh.write(_header(config))

    def write(self, simplices: np.ndarray) -> None:
        if not len(simplices):
            return
        if not self.first:
            self.fh.write(",\n")
        self.fh.write(_encode_rows(self.tables, simplices))
        self.first = False

    def close(self) -> None:
        self.fh.write(_FOOTER)


_FOOTER = "\n]}\n"


def _header(config: PointConfiguration) -> str:
    return '{"dim": %d, "label": %s, "points": %s, "simplices": [\n' % (
        config.dim,
        json.dumps(str(config.label)),
        json.dumps(config.points),
    )


def _row_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each index's decimal string followed by ``", "`` (inside a row) and
    by ``"],\\n["`` (ending one), as object arrays indexed by the index."""
    inner = np.array([f"{i}, " for i in range(n)], dtype=object)
    last = np.array([f"{i}],\n[" for i in range(n)], dtype=object)
    return inner, last


def _encode_rows(tables: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> str:
    """Rows ``[a, b, c]`` one per line, joined by ``,\\n``: the body of a
    file, or one chunk of it. One gather through :func:`_row_tables` and
    one join."""
    inner, last = tables
    tokens = inner[rows]
    tokens[:, -1] = last[rows[:, -1]]
    return "[" + "".join(tokens.ravel().tolist())[:-4] + "]"


def triangulation_to_json(tri: Triangulation) -> str:
    buf = io.StringIO()
    writer = TriangulationWriter(buf, tri.config)
    writer.write(tri.rows)
    writer.close()
    return buf.getvalue()


# Characters of the body parsed at a time. A block's transient working set
# (its translated copy, the int64 values, and the re-encode check's token
# array, list and string) is about seven times its characters.
READ_BLOCK = 1 << 17
_BRACKETS_AS_SPACES = str.maketrans("[],\n", "    ")


def _config_of(obj) -> PointConfiguration:
    """The configuration a parsed file names; ValueError unless its label
    is a string and its points and dimension are the label's."""
    if type(obj["label"]) is not str:
        raise ValueError(f"label {obj['label']!r} is not a string")
    label = parse_label(obj["label"])
    points = obj["points"]
    # Sizes first, so that building the label's points costs no more than
    # the file's own points allow.
    if type(points) is not list or len(points) != point_count(label):
        raise ValueError(f"points array does not hold the {label} points")
    if type(points[0]) is not list or len(points[0]) != label.dim:
        raise ValueError(f"points are not {label.dim}-dimensional")
    config = PointConfiguration(label)
    if tuple(tuple(p) for p in points) != config.points:
        raise ValueError("points array does not follow the canonical order")
    if type(obj["dim"]) is not int or obj["dim"] != config.dim:
        raise ValueError(f"dim {obj['dim']!r} is not the label's {config.dim}")
    return config


def _check_simplices(simplices) -> None:
    """ValueError unless every simplex is a list of ``int`` (not ``bool``)
    entries; :class:`Triangulation` checks their sizes and range."""
    if type(simplices) is not list:
        raise ValueError("simplices must be a list")
    for s in simplices:
        if type(s) is not list:
            raise ValueError(f"simplex {s!r} is not a list")
        for i in s:
            if type(i) is not int:
                raise ValueError(f"simplex index {i!r} is not an integer")


def _layout_config(head: str) -> PointConfiguration | None:
    """The configuration of a header line in exactly the writer's layout,
    or None. The line is parsed with ``json`` and must re-encode to
    itself."""
    if not (head.startswith('{"dim": ') and head.endswith('"simplices": [\n')):
        return None
    try:
        config = _config_of(json.loads(head + "]}"))
    except (ValueError, KeyError, TypeError):
        return None
    return config if _header(config) == head else None


def _parse_block(block: str, d1: int, tables) -> np.ndarray | None:
    """The rows of one block of a body in the writer's layout (whole rows
    joined by ``,\n``), or None. Brackets and commas become spaces for one
    ``np.fromstring``; every index must be in range, and the rows must
    re-encode through the writer's ``tables`` to exactly the block."""
    try:
        vals = np.fromstring(
            block.translate(_BRACKETS_AS_SPACES), dtype=np.int64, sep=" "
        )
    except ValueError:
        return None
    k = len(vals) // d1
    if k == 0 or len(vals) != k * d1 or vals.min() < 0 or vals.max() >= len(tables[0]):
        return None
    vals = vals.reshape(k, d1)
    return vals if _encode_rows(tables, vals) == block else None


def _read_rows(config: PointConfiguration, n_rows: int, blocks) -> Triangulation | None:
    """The triangulation of a body of ``n_rows`` rows given as blocks of
    whole rows (:func:`_parse_block`), or None. So a file this accepts is
    the writer's output for the rows it returns, and ``json.loads`` would
    read the same rows from it."""
    d1, n = config.dim + 1, len(config.points)
    rows = np.empty((n_rows, d1), dtype=_index_dtype(n))
    tables = _row_tables(n)
    done = 0
    for block in blocks:
        vals = _parse_block(block, d1, tables)
        if vals is None or done + len(vals) > n_rows:
            return None
        rows[done : done + len(vals)] = vals
        done += len(vals)
    return Triangulation(config, rows) if done == n_rows else None


def _read_text(text: str) -> Triangulation | None:
    """The triangulation of a text in exactly the writer's layout, or None;
    the body goes to :func:`_read_rows` in blocks of about ``READ_BLOCK``
    characters."""
    head_end = text.find("\n") + 1
    config = _layout_config(text[:head_end]) if text.endswith(_FOOTER) else None
    if config is None:
        return None
    body_end = len(text) - len(_FOOTER)
    n_rows = text.count("\n", head_end, body_end) + 1 if body_end > head_end else 0

    def blocks():
        lo = head_end
        while lo < body_end:
            hi = text.find(",\n", lo + READ_BLOCK, body_end)
            hi = body_end if hi < 0 else hi
            yield text[lo:hi]
            lo = hi + 2

    return _read_rows(config, n_rows, blocks())


def _read_handle(fh: TextIO) -> Triangulation | None:
    """The triangulation of a seekable text file handle in exactly the
    writer's layout, read from its position in two passes of reads of at
    most ``READ_BLOCK`` characters after the header line; or None, with the
    handle back at that position (and unread when it cannot seek). The
    first pass counts the body's rows and checks the footer, so the second
    fills one array of that size through :func:`_read_rows`: the file's
    text is never held whole. A file that cannot be decoded is None too,
    so that reading it again raises the error."""
    if not fh.seekable():
        return None
    start = fh.tell()
    try:
        tri = _read_handle_layout(fh)
    except ValueError:  # UnicodeDecodeError
        tri = None
    if tri is None:
        fh.seek(start)
    return tri


def _read_handle_layout(fh: TextIO) -> Triangulation | None:
    config = _layout_config(fh.readline())
    if config is None:
        return None
    body = fh.tell()
    size = newlines = 0
    tail = ""
    for data in iter(lambda: fh.read(READ_BLOCK), ""):
        size += len(data)
        newlines += data.count("\n")
        tail = (tail + data)[-len(_FOOTER) :]
    if tail != _FOOTER:
        return None
    # The footer holds two of the newlines; rows are joined by the others.
    body_size = size - len(_FOOTER)
    fh.seek(body)

    def blocks():
        left, carry = body_size, ""
        while left > 0:
            data = fh.read(min(READ_BLOCK, left))
            if not data:
                return  # the file shrank; the row count then disagrees
            left -= len(data)
            block, carry = carry + data, ""
            if left > 0:  # keep the last, maybe partial, row for the next read
                cut = block.rfind(",\n")
                if cut < 0:
                    carry = block
                    continue
                block, carry = block[:cut], block[cut + 2 :]
            yield block

    return _read_rows(config, newlines - 1 if body_size > 0 else 0, blocks())


def triangulation_from_json(source: str | TextIO) -> Triangulation:
    """Read a triangulation file from its text or from a text file handle.

    A file in the writer's layout is parsed straight to an index array,
    block by block (:func:`_read_rows`): from a seekable handle without
    ever holding its whole text (:func:`_read_handle`), from a text by
    slices of it (:func:`_read_text`). Any other JSON text goes through
    ``json.loads`` on the whole text. Either way a ValueError rejects text
    that is not an object with the keys ``dim``, ``label``, ``points`` and
    ``simplices``, a label that is not a string, points out of the
    label's canonical order, a ``dim`` that is not the label's, simplices
    of different sizes and any entry that is not an ``int`` index of a
    point, and equal files give equal triangulations.
    """
    if isinstance(source, str):
        text, tri = source, _read_text(source)
    else:
        text, tri = None, _read_handle(source)
    if tri is not None:
        return tri
    obj = json.loads(source.read() if text is None else text)
    if type(obj) is not dict or not {"dim", "label", "points", "simplices"} <= obj.keys():
        raise ValueError("not an object with the keys dim, label, points and simplices")
    config = _config_of(obj)
    simplices = obj["simplices"]
    _check_simplices(simplices)
    return Triangulation(config, simplices)
