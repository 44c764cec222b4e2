"""Triangulations: representation, exact validity checking, and accounting.

A simplex is a sorted row of indices into a :class:`PointConfiguration`.
A :class:`Triangulation` holds its simplices as one index array, the form
the generator, the file reader and writer, the census, the duplicate scan
and the ridge check all take; simplices of different sizes are rejected
where they enter. A tuple of tuples built from it on first use is the form
the pair scan takes. Validity is decided exactly on vertex coordinates:

* dissection = volumes sum to the ambient volume and all pairs of cells
  have disjoint interiors;
* face-to-face = for every pair, conv(S1) ∩ conv(S2) = conv(S1 ∩ S2).

Both validators take the census once and try the ridge certificate below
on it first; only a refusal runs the pair scan, :func:`_pair_scan`, which
then gives the verdict and the ordered violations. The pair scan uses the
certificate-first predicates of :mod:`linalg`, with each simplex's
barycentric rows computed once per scan, and is the tests' reference.
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
*Triangulations* (Springer, 2010). Every caller takes the one census,
:func:`_census` (or :func:`_tally` on a chunk's signed volumes), and then
:func:`ridge_violations`, the ridge part alone, on the census's signed
volumes. The oracle's search grows cells under the same ridge conditions,
on the same census, :func:`_apex_sides` and :func:`facet_incidence`.

Files hold one simplex per line (:class:`TriangulationWriter`), so a step
too large to keep in memory is written chunk by chunk in the same format.
:func:`triangulation_from_json` reads a file in exactly that layout
straight to an index array, block by block, and any other JSON layout
through ``json.loads``; both reject an index that is not an ``int`` of
range ``[0, len(points))``, simplices of different sizes and a ``dim``
that is not the label's.
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
    config_from_label,
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
    index one of the points. :attr:`simplices` is the rows as a tuple of
    tuples, built on first use; equality compares configuration and rows.
    """

    __slots__ = ("config", "rows", "_simplices")

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
        self.rows = np.sort(index_rows(simplices, len(config.points)), axis=1)
        self.rows.flags.writeable = False
        self._simplices = None

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        if self._simplices is None:
            self._simplices = tuple(map(tuple, self.rows.tolist()))
        return self._simplices

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


def _tuple_rows(simplices, width: int) -> np.ndarray:
    """Index tuples as one array (of ``width`` columns if there are none);
    ValueError naming the first simplex whose size is not the first's."""
    simplices = [tuple(s) for s in simplices]
    for s in simplices:
        if len(s) != len(simplices[0]):
            raise ValueError(f"simplices of different sizes: {s} and {simplices[0]}")
    return np.array(simplices) if simplices else np.empty((0, width), np.int64)


@dataclass(frozen=True)
class SimplexType:
    t: tuple[int, ...]

    @property
    def weight(self) -> Fraction:
        w = Fraction(1)
        for ti in self.t:
            w /= math.factorial(ti)
        return w


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


def expected_volume(config: PointConfiguration) -> int | None:
    if config.label is None:
        return None
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
    gathered straight into the (d, d, N) layout of
    :func:`linalg.batch_last_det`: rows vertex differences, columns
    coordinates, batch last. A volume that int64 cannot hold raises
    OverflowError.
    """
    out = np.zeros(len(rows), dtype=np.int64)
    if not len(out):
        return out
    pts = linalg.int_array(points)
    n_pts, d = pts.shape
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = max((int(b) - int(a) for a, b in zip(lo, hi)), default=0)
    dtype = linalg.exact_dtype(span, d) or object
    if dtype is object:  # then the shift below might not fit int64
        pts = pts.astype(object)
    # Shifted to a zero minimum, every coordinate lies in [0, span] and
    # fits dtype. Entry c P + p is coordinate c of point p.
    table = (pts - lo).T.astype(dtype).ravel()
    offsets = np.arange(0, d * n_pts, n_pts)[:, None]
    for start in range(0, len(rows), CENSUS_CHUNK):
        chunk = np.asarray(rows[start : start + CENSUS_CHUNK])
        verts = chunk.T.astype(np.intp, order="C")  # (d+1, N)
        g = table[verts[:, None, :] + offsets]  # (d+1, d, N), C-contiguous
        g = np.subtract(g[1:], g[:1])  # (d, d, N) vertex differences
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


def _census(tri: Triangulation, expected: int | None):
    """The census part of every report: (full-dimensional simplices as index
    rows, their signed volumes, total volume, violations). The violations
    name each simplex that is not full-dimensional, then each degenerate
    one, then a total that differs from ``expected``."""
    full = tri.rows
    violations = []
    if full.shape[1] != tri.config.dim + 1:
        violations = [Violation("not-full-dimensional", (s,)) for s in tri.simplices]
        full = full[:0]
    vols = signed_volumes(tri.config.points, full)
    total, degenerate = _tally(vols)
    violations.extend(
        Violation("degenerate", (tuple(full[i].tolist()),)) for i in degenerate
    )
    if expected is not None and total != expected:
        violations.append(
            Violation("volume-mismatch", (), f"got {total}, expected {expected}")
        )
    return full, vols, total, violations


def duplicate_simplices(tri: Triangulation) -> list[Violation]:
    """A ``duplicate`` violation for each repeat of an earlier simplex, in
    order. Equal rows are adjacent after a stable lexicographic sort, with
    the earliest first."""
    rows = tri.rows
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    repeat = (ordered[1:] == ordered[:-1]).all(axis=1)
    return [
        Violation("duplicate", (tuple(rows[i].tolist()),))
        for i in np.sort(order[1:][repeat]).tolist()
    ]


def validate_dissection(
    tri: Triangulation, expected: int | None = None, pairwise: bool = True
) -> ValidityReport:
    """Exact dissection check: volume census, duplicates and, with
    ``pairwise``, disjoint interiors, decided certificate first
    (:func:`_certificate_first`).

    Degenerate simplices are reported as violations, not raised.
    ``pairwise=False`` is the census and the duplicate scan alone.
    """
    if expected is None:
        expected = expected_volume(tri.config)
    if pairwise:
        return _certificate_first(tri, expected, face_to_face=False)
    _, _, total, violations = _census(tri, expected)
    violations += duplicate_simplices(tri)
    return ValidityReport(not violations, False, total, violations)


def validate_face_to_face(
    tri: Triangulation, expected: int | None = None
) -> ValidityReport:
    """Exact face-to-face check, decided certificate first
    (:func:`_certificate_first`).

    Two distinct simplices that meet in a common face have disjoint
    interiors, so a passing report is simultaneously a dissection
    certificate.
    """
    if expected is None:
        expected = expected_volume(tri.config)
    return _certificate_first(tri, expected, face_to_face=True)


def _certificate_first(
    tri: Triangulation, expected: int | None, face_to_face: bool
) -> ValidityReport:
    """The pair scan's report (:func:`_pair_scan`), from the ridge
    certificate when it applies and accepts.

    The census is taken once. The certificate runs on its signed volumes
    only for the input its proof covers: the census found nothing, the
    points are the label's own and ``expected`` is the label's volume. An
    input it accepts is a triangulation, whose pairs all meet face to face,
    so the pair scan would report nothing; every other input goes to the
    pair scan, which gives the verdict and the ordered violations.
    """
    full, vols, total, violations = census = _census(tri, expected)
    config = tri.config
    if (
        not violations
        and config.label is not None
        and expected == expected_volume(config)
        and config == config_from_label(config.label)
        and not ridge_violations(config, full, vols)
    ):
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
    """Index rows as the narrowest array the ridge check takes: ``uint16``
    below 65,536 points, ``int64`` from there."""
    return np.asarray(rows, dtype=_index_dtype(n_points))


def _index_dtype(n_points: int):
    return np.uint16 if n_points < 2**16 else np.int64


def facet_incidence(config: PointConfiguration) -> np.ndarray:
    """(points, facets) incidence of a labeled configuration: entry [p, f]
    is whether point p lies on facet f of its polytope."""
    facets = facet_inequalities(config.label)
    a = np.array([av for av, _ in facets], dtype=np.int64)
    b = np.array([bv for _, bv in facets], dtype=np.int64)
    pts = np.array(config.points, dtype=np.int64)
    return pts @ a.reshape(len(facets), config.dim).T == b


def ridge_violations(
    config: PointConfiguration, simplices, signed_vols
) -> list[Violation]:
    """The ridge part of the certificate in the module docstring.

    ``simplices`` are full-dimensional simplices of the labeled ``config``
    as sorted index rows (tuples or one (N, d+1) array), and
    ``signed_vols`` their signed volumes (:func:`signed_volumes`). Pairs
    the ridges by sorting them: a ridge in more than two simplices is
    ``ridge-overused``, one in a single simplex and on no facet
    ``open-interior-ridge``, and two simplices on the same side of their
    ridge (or degenerate) ``ridge-same-side``. Violations come in the
    order of each ridge's first occurrence. Sides come from the signed
    volumes (:func:`_apex_sides`), so no determinant is taken per ridge.
    """
    if config.label is None:
        raise ValueError("ridge mode needs a labeled configuration")
    d = config.dim
    simp = index_rows(simplices, len(config.points)).reshape(-1, d + 1)
    n_ridges = len(simp) * (d + 1)
    # Ridge k = i (d+1) + j drops position j of simplex i; its column c is
    # vertex c of the simplex before position j and vertex c+1 from there.
    drop = np.arange(d + 1)
    keys = [
        np.where(drop > c, simp[:, c, None], simp[:, c + 1, None]).reshape(-1)
        for c in reversed(range(d))
    ]
    # Stable, so each group of equal ridges lists them in first-occurrence order.
    order = np.lexsort(keys) if d else np.arange(n_ridges)
    del keys
    # Sorted ridges are compared chunk by chunk, so neither the ridge array
    # nor its sorted copy is ever held whole.
    change = np.ones(n_ridges, dtype=bool)
    for lo in range(1, n_ridges, CENSUS_CHUNK):
        rows = _ridge_rows(simp, order[lo - 1 : lo + CENSUS_CHUNK])
        change[lo : lo + CENSUS_CHUNK] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(change)
    del change
    counts = np.diff(starts, append=n_ridges)
    first = order[starts]
    bad = counts > 2
    # A point has no facet, and its one ridge, the empty one, is its boundary.
    single = np.flatnonzero(counts == 1) if d else np.zeros(0, np.intp)
    on_facet = facet_incidence(config)
    for lo in range(0, len(single), CENSUS_CHUNK):
        grp = single[lo : lo + CENSUS_CHUNK]
        inside = on_facet[_ridge_rows(simp, first[grp])].all(axis=1).any(axis=1)
        bad[grp[~inside]] = True
    pair = np.flatnonzero(counts == 2)
    sides = _apex_sides(signed_vols, d).reshape(-1)
    same = sides[first[pair]] * sides[order[starts[pair] + 1]] >= 0
    bad[pair[same]] = True
    bad = np.flatnonzero(bad)
    violations: list[Violation] = []
    for g in bad[np.argsort(first[bad])].tolist():
        ks = order[starts[g] : starts[g] + counts[g]]
        owners = tuple(map(tuple, simp[ks // (d + 1)].tolist()))
        ridge = str(tuple(_ridge_rows(simp, first[g : g + 1])[0].tolist()))
        if counts[g] > 2:
            violations.append(Violation("ridge-overused", owners))
        elif counts[g] == 1:
            violations.append(Violation("open-interior-ridge", owners, ridge))
        else:
            violations.append(Violation("ridge-same-side", owners, ridge))
    return violations


def ridge_report(tri: Triangulation) -> ValidityReport:
    """The ridge certificate of the module docstring, decided exactly: the
    census against the configuration's volume, whose violations come
    first, then :func:`ridge_violations` on the census's signed volumes."""
    full, vols, total, violations = _census(tri, expected_volume(tri.config))
    violations += ridge_violations(tri.config, full, vols)
    ok = not violations
    return ValidityReport(ok, ok, total, violations)


def efficiency(size: int, d: int) -> float:
    """(size / d!)^(1/d), for reporting only (never used in predicates)."""
    if size < 1 or d < 1:
        raise ValueError("size and dimension must be positive")
    return math.exp((math.log(size) - math.lgamma(d + 1)) / d)


def simplex_factor(config: PointConfiguration) -> tuple[Label, int]:
    """(P, m) for a configuration of P x simplex(m-1).

    Vertex (p, i) of the product has index p * m + i, so ``idx % m`` is its
    simplex-factor vertex and ``idx // m`` its point of P.
    """
    label = config.label
    if not isinstance(label, ProductLabel) or not isinstance(
        label.right, SimplexLabel
    ):
        raise ValueError("configuration is not a product with a simplex factor")
    return label.left, label.right.k + 1


def factor_blocks(s: Simplex, m: int) -> tuple[tuple[int, ...], ...]:
    """Points of P under each of the m simplex-factor vertices, sorted."""
    blocks: list[list[int]] = [[] for _ in range(m)]
    for idx in s:
        blocks[idx % m].append(idx // m)
    return tuple(tuple(sorted(b)) for b in blocks)


def simplex_type(s: Simplex, config: PointConfiguration) -> SimplexType:
    """Type (t_1, ..., t_m): per simplex-factor vertex counts minus one."""
    _, m = simplex_factor(config)
    counts = [len(b) for b in factor_blocks(s, m)]
    if any(c == 0 for c in counts):
        raise ValueError("full-dimensional simplex must cover every factor vertex")
    return SimplexType(tuple(c - 1 for c in counts))


def weighted_size(tri: Triangulation) -> Fraction:
    """Sum of 1/∏ t_i! over all simplices of a product-with-simplex config."""
    total = Fraction(0)
    for s in tri.simplices:
        total += simplex_type(s, tri.config).weight
    return total


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
        if config.label is None:
            raise ValueError("cannot serialize an unlabeled configuration")
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


READ_BLOCK = 1 << 20  # characters of the body parsed at a time
_BRACKETS_AS_SPACES = str.maketrans("[],\n", "    ")


def _config_of(obj) -> PointConfiguration:
    """The labeled configuration a parsed file names; ValueError unless its
    label is a string and its points and dimension are the label's."""
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
    config = config_from_label(label)
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


def _read_layout(text: str) -> Triangulation | None:
    """The triangulation of a file in exactly the writer's layout, or None.

    The header line is parsed with ``json`` and must re-encode to itself.
    The body is parsed in blocks of about ``READ_BLOCK`` characters, each
    with brackets and commas turned to spaces by one ``np.fromstring``;
    every index must be in range, and each block must re-encode through
    the writer to exactly its own text. So a file this accepts is the
    writer's output for the rows it returns, and ``json.loads`` would read
    the same rows from it.
    """
    head_end = text.find("\n") + 1
    if not (
        text.startswith('{"dim": ')
        and text.endswith(_FOOTER)
        and text.endswith('"simplices": [\n', 0, head_end)
    ):
        return None
    try:
        config = _config_of(json.loads(text[:head_end] + "]}"))
    except (ValueError, KeyError, TypeError):
        return None
    if _header(config) != text[:head_end]:
        return None
    body_end = len(text) - len(_FOOTER)
    d1, n = config.dim + 1, len(config.points)
    n_rows = text.count("\n", head_end, body_end) + 1 if body_end > head_end else 0
    rows = np.empty((n_rows, d1), dtype=_index_dtype(n))
    tables = _row_tables(n)
    lo = head_end
    done = 0
    while lo < body_end:
        hi = text.find(",\n", lo + READ_BLOCK, body_end)
        hi = body_end if hi < 0 else hi
        block = text[lo:hi]
        try:
            vals = np.fromstring(
                block.translate(_BRACKETS_AS_SPACES), dtype=np.int64, sep=" "
            )
        except ValueError:
            return None
        k = len(vals) // d1
        if (
            k == 0
            or len(vals) != k * d1
            or done + k > n_rows
            or vals.min() < 0
            or vals.max() >= n
        ):
            return None
        vals = vals.reshape(k, d1)
        if _encode_rows(tables, vals) != block:
            return None
        rows[done : done + k] = vals
        done += k
        lo = hi + 2
    if done != n_rows:
        return None
    return Triangulation(config, rows)


def triangulation_from_json(text: str) -> Triangulation:
    """Read a triangulation file.

    A file in the writer's layout is parsed straight to an index array
    (:func:`_read_layout`); any other JSON text goes through
    ``json.loads``. Either way a ValueError rejects text that is not an
    object with the keys ``dim``, ``label``, ``points`` and
    ``simplices``, a label that is not a string, points out of the
    label's canonical order, a ``dim`` that is not the label's, simplices
    of different sizes and any entry that is not an ``int`` index of a
    point, and equal files give equal triangulations.
    """
    tri = _read_layout(text)
    if tri is not None:
        return tri
    obj = json.loads(text)
    if type(obj) is not dict or not {"dim", "label", "points", "simplices"} <= obj.keys():
        raise ValueError("not an object with the keys dim, label, points and simplices")
    config = _config_of(obj)
    simplices = obj["simplices"]
    _check_simplices(simplices)
    return Triangulation(config, simplices)
