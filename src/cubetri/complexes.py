"""Triangulations: representation, exact validity checking, and accounting.

A simplex is a sorted row of indices into a :class:`PointConfiguration`.
A :class:`Triangulation` holds its simplices as one (N, d+1) index array,
the form the generator, the file reader and writer, the census, the
duplicate scan and the ridge check all take, or, when built from tuples,
as a tuple of sorted tuples, the form the pair scans and the oracle take;
each view is derived from the other on first use. Validity is decided
exactly on vertex coordinates:

* dissection = volumes sum to the ambient volume and all pairs of cells
  have disjoint interiors;
* face-to-face = for every pair, conv(S1) ∩ conv(S2) = conv(S1 ∩ S2).

Both pair scans use the certificate-first predicates of :mod:`linalg`,
with each simplex's barycentric rows computed once per scan. Every volume
total goes through one census, :func:`signed_volumes`: batched signed
integer determinants over fixed-size chunks of index rows.

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
*Triangulations* (Springer, 2010). The pairwise checks stay the
authoritative oracle on small inputs. :func:`ridge_violations` is the
ridge part alone, for a caller (the pipeline) that already holds the
census's signed volumes.

Files hold one simplex per line (:class:`TriangulationWriter`), so a step
too large to keep in memory is written chunk by chunk in the same format.
:func:`triangulation_from_json` reads a file in exactly that layout
straight to an index array, block by block, and any other JSON layout
through ``json.loads``; both reject an index that is not an ``int`` of
range ``[0, len(points))`` and a ``dim`` that is not the label's.
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
    CubeLabel,
    ambient_normalized_volume,
    config_from_label,
    facet_inequalities,
    normalized_volume,
    parse_label,
)

Simplex = tuple[int, ...]


class Triangulation:
    """A configuration and its simplices, as index rows sorted ascending.

    Built from an (N, k) integer array, the simplices are held as that
    array (:attr:`rows`, sorted once by ``np.sort(axis=1)`` in the
    :func:`index_rows` dtype, every index checked against the points).
    Built from any iterable of index tuples, they are held as the tuple of
    sorted tuples (:attr:`simplices`), which may mix sizes. Each view is
    derived from the other on first use and cached; neither cache is part
    of equality, which compares the configuration and the simplices.
    """

    __slots__ = ("config", "_rows", "_simplices")

    def __init__(self, config: PointConfiguration, simplices):
        self.config = config
        if isinstance(simplices, np.ndarray):
            if simplices.ndim != 2 or simplices.dtype.kind not in "iu":
                raise ValueError("simplices must be one 2-d integer array")
            if simplices.size and (
                simplices.min() < 0 or simplices.max() >= len(config.points)
            ):
                raise ValueError("simplex index out of range")
            self._rows = np.sort(index_rows(simplices, len(config.points)), axis=1)
            self._simplices = None
        else:
            self._rows = None
            self._simplices = tuple(tuple(sorted(s)) for s in simplices)

    @property
    def rows(self) -> np.ndarray:
        """The simplices as one (N, k) index array; ValueError when they
        have different sizes."""
        rows = _uniform_rows(self)
        if rows is None:
            raise ValueError("simplices of different sizes have no index array")
        return rows

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        if self._simplices is None:
            self._simplices = tuple(map(tuple, self._rows.tolist()))
        return self._simplices

    @property
    def size(self) -> int:
        return len(self._simplices if self._rows is None else self._rows)

    def __eq__(self, other):
        if not isinstance(other, Triangulation):
            return NotImplemented
        if self.config != other.config or self.size != other.size:
            return False
        if self._rows is not None and other._rows is not None and self.size:
            return np.array_equal(self._rows, other._rows)
        return self.simplices == other.simplices

    def __repr__(self):
        return f"Triangulation({self.config.label}, size={self.size})"

    def points_of(self, s: Simplex) -> list[tuple[int, ...]]:
        pts = self.config.points
        return [pts[i] for i in s]

    def volume_of(self, s: Simplex) -> int:
        return normalized_volume(self.points_of(s))


def _uniform_rows(tri: Triangulation) -> np.ndarray | None:
    """``tri.rows``, built and cached on first use, or None when the
    simplices have different sizes."""
    if tri._rows is None:
        simplices = tri._simplices
        if len(set(map(len, simplices))) > 1:
            return None
        width = len(simplices[0]) if simplices else tri.config.dim + 1
        tri._rows = index_rows(simplices, len(tri.config.points)).reshape(
            len(simplices), width
        )
    return tri._rows


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
    simplices given as index rows into ``points``, in row order; their
    absolute values are the normalized volumes.

    Exact batched determinants (:func:`linalg.batch_det`), taken over chunks
    of ``CENSUS_CHUNK`` rows so that the working arrays stay small however
    many rows there are.
    """
    pts = np.asarray(points, dtype=np.int64)
    chunks = [np.zeros(0, dtype=np.int64)]
    for start in range(0, len(rows), CENSUS_CHUNK):
        coords = pts[np.asarray(rows[start : start + CENSUS_CHUNK], dtype=np.intp)]
        chunks.append(linalg.batch_det(coords[:, 1:, :] - coords[:, :1, :]))
    return np.concatenate(chunks)


def _tally(vols: np.ndarray) -> tuple[int, list[int]]:
    # int64 determinants are below 2**31 (see linalg._int64_safe), so the
    # int64 sum is exact.
    return int(np.abs(vols).sum()), np.flatnonzero(vols == 0).tolist()


def volume_total(tri: Triangulation) -> int:
    """Exact total normalized volume of a full-dimensional triangulation."""
    return _tally(signed_volumes(tri.config.points, tri.rows))[0]


def batch_volumes_of(points, simplex_rows) -> tuple[int, int]:
    """(sum of |det|, count of zero dets) for a batch of simplices given as
    index rows into ``points``."""
    total, degenerate = _tally(signed_volumes(points, simplex_rows))
    return total, len(degenerate)


CENSUS_KINDS = ("not-full-dimensional", "degenerate", "volume-mismatch")


def _census(tri: Triangulation, expected: int | None):
    """The census part of every report: (full-dimensional simplices as index
    rows, their signed volumes, total volume, violations). The violations
    name each simplex that is not full-dimensional, then each degenerate
    one, then a total that differs from ``expected``."""
    d1 = tri.config.dim + 1
    rows = _uniform_rows(tri)
    if rows is not None and rows.shape[1] == d1:
        full, flat = rows, []
    else:
        full = [s for s in tri.simplices if len(s) == d1]
        flat = [s for s in tri.simplices if len(s) != d1]
        full = index_rows(full, len(tri.config.points)).reshape(len(full), d1)
    violations = [Violation("not-full-dimensional", (s,)) for s in flat]
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
    rows = _uniform_rows(tri)
    if rows is None:  # simplices of different sizes: a set of tuples
        seen = set()
        out = []
        for s in tri.simplices:
            if s in seen:
                out.append(Violation("duplicate", (s,)))
            seen.add(s)
        return out
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
    """Exact dissection check: volume census plus pairwise interior tests.

    Degenerate simplices are reported as violations, not raised. Set
    ``pairwise=False`` to skip the pair scan (volume census only), e.g.
    when the ridge certificate covers it.
    """
    if expected is None:
        expected = expected_volume(tri.config)
    _, _, total, violations = _census(tri, expected)
    violations += duplicate_simplices(tri)
    if pairwise:
        cells = [tri.points_of(s) for s in tri.simplices]
        bary = [linalg.barycentric_rows(p) for p in cells]
        n = len(cells)
        for i in range(n):
            for j in range(i + 1, n):
                if not linalg.simplices_interiors_disjoint(
                    cells[i], cells[j], bary[i], bary[j]
                ):
                    violations.append(
                        Violation(
                            "interior-overlap", (tri.simplices[i], tri.simplices[j])
                        )
                    )
    ok = not violations
    return ValidityReport(ok, False, total, violations)


def validate_face_to_face(
    tri: Triangulation, expected: int | None = None
) -> ValidityReport:
    """Authoritative pairwise face-to-face check (exact test per pair).

    Two distinct simplices that meet in a common face have disjoint
    interiors, so a passing report is simultaneously a dissection
    certificate.
    """
    if expected is None:
        expected = expected_volume(tri.config)
    base = validate_dissection(tri, expected=expected, pairwise=False)
    violations = list(base.violations)
    cells = [tri.points_of(s) for s in tri.simplices]
    bary = [linalg.barycentric_rows(p) for p in cells]
    n = len(cells)
    for i in range(n):
        si = tri.simplices[i]
        for j in range(i + 1, n):
            sj = tri.simplices[j]
            if si == sj:
                continue  # already reported as duplicate
            if not linalg.simplices_face_to_face(cells[i], cells[j], bary[i], bary[j]):
                violations.append(Violation("not-face-to-face", (si, sj)))
    ok = not violations
    return ValidityReport(ok, ok, base.volume_total, violations)


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
    pts = np.array(config.points, dtype=np.int64)
    simp = index_rows(simplices, len(pts)).reshape(-1, d + 1)
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
    single = np.flatnonzero(counts == 1)
    facets = facet_inequalities(config.label)
    a = np.array([av for av, _ in facets], dtype=np.int64).reshape(len(facets), d)
    b = np.array([bv for _, bv in facets], dtype=np.int64)
    on_facet = pts @ a.T == b  # (points, facets) incidence
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
    census of :func:`validate_dissection` against the configuration's
    volume, whose violations come first, then :func:`ridge_violations` on
    the census's signed volumes."""
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


def weighted_efficiency(tri: Triangulation) -> float:
    """(weighted size / m^l)^(1/l) for triangulations of cube(l) x simplex."""
    left, m = simplex_factor(tri.config)
    if not isinstance(left, CubeLabel):
        raise ValueError("weighted efficiency defined for cube x simplex products")
    return weighted_efficiency_from(weighted_size(tri), left.l, m)


class TriangulationWriter:
    """Writes the triangulation file format incrementally: a header with
    the configuration, then one simplex per line, then a footer.

    An index array is encoded through tables of the indices' decimal
    strings (:func:`_encode_rows`); a sequence of tuples, which may mix
    sizes, through ``json.dumps``. Both give the same bytes for the same
    rows.
    """

    def __init__(self, fh: TextIO, config: PointConfiguration):
        if config.label is None:
            raise ValueError("cannot serialize an unlabeled configuration")
        self.fh = fh
        self.first = True
        self.tables = _row_tables(len(config.points))
        fh.write(_header(config))

    def write(self, simplices) -> None:
        if not len(simplices):
            return
        if not self.first:
            self.fh.write(",\n")
        if isinstance(simplices, np.ndarray):
            self.fh.write(_encode_rows(self.tables, simplices))
        else:
            # Simplices hold only integers, so "], [" occurs only between two.
            self.fh.write(json.dumps(simplices)[1:-1].replace("], [", "],\n["))
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
    writer.write(tri.simplices if tri._rows is None else tri._rows)
    writer.close()
    return buf.getvalue()


READ_BLOCK = 1 << 20  # characters of the body parsed at a time
_BRACKETS_AS_SPACES = str.maketrans("[],\n", "    ")


def _config_of(obj) -> PointConfiguration:
    """The labeled configuration a parsed file names; ValueError unless its
    points and dimension are the label's."""
    config = config_from_label(parse_label(obj["label"]))
    if tuple(tuple(p) for p in obj["points"]) != config.points:
        raise ValueError("points array does not follow the canonical order")
    if type(obj["dim"]) is not int or obj["dim"] != config.dim:
        raise ValueError(f"dim {obj['dim']!r} is not the label's {config.dim}")
    return config


def _check_simplices(simplices, n_points: int) -> None:
    """ValueError unless every simplex is a list of ``int`` (not ``bool``)
    indices of the ``n_points`` points."""
    if type(simplices) is not list:
        raise ValueError("simplices must be a list")
    for s in simplices:
        if type(s) is not list:
            raise ValueError(f"simplex {s!r} is not a list")
        for i in s:
            if type(i) is not int:
                raise ValueError(f"simplex index {i!r} is not an integer")
            if not 0 <= i < n_points:
                raise ValueError(f"simplex index {i} out of range")


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
    ``json.loads``. Either way a ValueError rejects points out of the
    label's canonical order, a ``dim`` that is not the label's, and any
    simplex entry that is not an ``int`` index of a point, and equal files
    give equal triangulations.
    """
    tri = _read_layout(text)
    if tri is not None:
        return tri
    obj = json.loads(text)
    config = _config_of(obj)
    simplices = obj["simplices"]
    _check_simplices(simplices, len(config.points))
    return Triangulation(config, simplices)
