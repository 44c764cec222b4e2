"""Triangulations as index arrays: the type, the writer and the reader.

The array reader must read every file exactly as the ``json.loads``
reader it replaces (``helpers.reference_from_json``) does, and the table
writer must write the bytes of the ``json.dumps`` writer
(``helpers.reference_to_json``).
"""

import io
import json
import os
import sys

import numpy as np
import pytest
from helpers import reference_from_json, reference_to_json
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubetri import complexes
from cubetri.cli import main
from cubetri.coloring import ProductCells, make_coloring
from cubetri.complexes import (
    Triangulation,
    TriangulationWriter,
    duplicate_simplices,
    triangulation_from_json,
    triangulation_to_json,
)
from cubetri.geometry import PointConfiguration, parse_label, point_count
from cubetri.pipeline import PipelineSpec, build_cube_recursive
from cubetri.seeds import cayley_seed, minimal_cube

DIMS = (4, 5, 6, 7, 8)


def _spec(dim, **kw):
    return PipelineSpec(dim=dim, samples=3, rng_seed=1, **kw)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """dim -> (kept triangulation, kept file text, streamed file text)."""
    work = tmp_path_factory.mktemp("outputs")
    out = {}
    for dim in DIMS:
        kept_path = os.fspath(work / f"kept{dim}.json")
        streamed_path = os.fspath(work / f"streamed{dim}.json")
        tri, _ = build_cube_recursive(_spec(dim, out=kept_path))
        none, _ = build_cube_recursive(
            _spec(dim, out=streamed_path, materialize_max_dim=dim - 1)
        )
        assert none is None
        with open(kept_path) as fh, open(streamed_path) as fs:
            out[dim] = (tri, fh.read(), fs.read())
    return out


def _same(a: Triangulation, b: Triangulation) -> bool:
    return a == b and a.size == b.size and a.simplices == b.simplices


# -- the type --------------------------------------------------------------------


def test_array_and_tuple_triangulations_are_equal():
    tri = build_cube_recursive(_spec(5))[0]
    rows = tri.rows
    tuples = tri.simplices
    for first in ("rows", "simplices"):
        from_array = Triangulation(tri.config, rows[:, ::-1].astype(np.int64))
        from_tuples = Triangulation(tri.config, [s[::-1] for s in tuples])
        assert from_array == from_tuples and from_tuples == from_array
        order = (first, "simplices" if first == "rows" else "rows")
        for name in order:
            getattr(from_array, name)
            getattr(from_tuples, name)
            assert from_array == from_tuples and from_tuples == from_array
        assert from_array.size == from_tuples.size == tri.size
        assert from_array.simplices == from_tuples.simplices == tuples
        assert np.array_equal(from_array.rows, from_tuples.rows)
        assert from_array.rows.dtype == from_tuples.rows.dtype == np.uint16
        assert not from_array.rows.flags.writeable
        assert not from_tuples.rows.flags.writeable
        for s in tuples[:20]:
            assert from_array.volume_of(s) == from_tuples.volume_of(s)
    other = Triangulation(tri.config, rows[1:])
    assert other != tri and tri != other
    assert Triangulation(tri.config, rows[:0]) == Triangulation(tri.config, ())


def test_array_triangulation_rejects_bad_arrays():
    cfg = minimal_cube(3).config
    for bad in (np.array([[0, 1, 2, 8]]), np.array([[-1, 1, 2, 3]]),
                np.array([[0.0, 1, 2, 3]]), np.array([0, 1, 2, 3])):
        with pytest.raises(ValueError):
            Triangulation(cfg, bad)


def test_ragged_simplices_are_rejected():
    tri = minimal_cube(3)
    ragged = tri.simplices + (tri.simplices[0][:-1],)
    with pytest.raises(ValueError, match="different sizes") as exc:
        Triangulation(tri.config, ragged)
    assert str(ragged[-1]) in str(exc.value)
    text = reference_to_json(tri.config, ragged)
    for layout in (text, json.dumps(json.loads(text))):
        for read in (triangulation_from_json, reference_from_json):
            with pytest.raises(ValueError, match="different sizes"):
                read(layout)
    # Tuples go through the array checks: 0.5 and -1 would name point 0 and
    # the last point once truncated or wrapped.
    for value in (0.5, -1, len(tri.config.points)):
        bad = list(tri.simplices)
        bad[2] = (value,) + bad[2][1:]
        with pytest.raises(ValueError):
            Triangulation(tri.config, bad)


@pytest.mark.parametrize("dim", (4, 5))
def test_duplicate_scan_matches_the_set_scan(dim):
    tri = build_cube_recursive(_spec(dim))[0]
    simplices = list(tri.simplices)
    simplices += [simplices[3], simplices[0], simplices[3]]
    simplices.insert(1, simplices[5])
    tampered = Triangulation(tri.config, simplices)
    seen, expected = set(), []
    for s in tampered.simplices:
        if s in seen:
            expected.append(repr(s))
        seen.add(s)
    got = [repr(v.members[0]) for v in duplicate_simplices(tampered)]
    assert got == expected and len(got) == 4


# -- the writer ------------------------------------------------------------------


@pytest.mark.parametrize("dim", DIMS)
def test_array_chunks_write_the_reference_bytes(outputs, dim):
    tri, kept, streamed = outputs[dim]
    reference = reference_to_json(tri.config, tri.simplices)
    assert kept == streamed == reference == triangulation_to_json(tri)
    rows = tri.rows
    cut = len(rows) // 3
    chunks = [rows[:0], rows[:1], rows[1:cut], rows[:0], rows[cut:]]
    text = _write_chunks(tri.config, chunks)
    assert text == reference


def test_chunk_boundary_inside_one_sigma():
    t_q = minimal_cube(2)
    cells = ProductCells(t_q, cayley_seed("i3d2"), make_coloring(4, 3))
    rows = cells.simplex_rows(0, t_q.size)
    lo, hi = int(cells.starts[1]), int(cells.starts[2])
    assert hi - lo > 2
    mid = (lo + hi) // 2
    text = _write_chunks(cells.config, [rows[:1], rows[1:mid], rows[mid:]])
    assert text == reference_to_json(cells.config, rows.tolist())


def _write_chunks(config, chunks) -> str:
    buf = io.StringIO()
    writer = TriangulationWriter(buf, config)
    for chunk in chunks:
        writer.write(chunk)
    writer.close()
    return buf.getvalue()


# -- the reader ------------------------------------------------------------------


@pytest.mark.parametrize("dim", DIMS)
def test_reader_agrees_with_the_reference(outputs, dim):
    tri, kept, streamed = outputs[dim]
    for text in (kept, streamed):
        fast = triangulation_from_json(text)
        reference = reference_from_json(text)
        assert _same(fast, reference) and _same(fast, tri)
        assert fast.rows.dtype == reference.rows.dtype == np.uint16
        assert np.array_equal(fast.rows, reference.rows)


def _layouts(text: str) -> dict[str, str]:
    """The writer's layout and three others ``json.loads`` reads the same."""
    return {
        "writer": text,
        "json.dumps": json.dumps(json.loads(text)),
        "crlf": text.replace("\n", "\r\n"),
        "no footer newline": text[:-1],
    }


def _small_texts() -> tuple[list[str], list[str]]:
    """(small files in every layout, files both readers must reject): a
    ragged file in every layout, and the d=4 output without its footer."""
    d4 = build_cube_recursive(_spec(4))[0]
    cube = minimal_cube(3)
    readable = [
        text
        for tri in (d4, cube)
        for text in _layouts(triangulation_to_json(tri)).values()
    ]
    ragged = reference_to_json(cube.config, cube.simplices + ((0, 1, 2),))
    rejected = list(_layouts(ragged).values())
    return readable, rejected + [triangulation_to_json(d4)[: -len("\n]}\n")]]


READABLE_TEXTS, REJECTED_TEXTS = _small_texts()
SMALL_TEXTS = READABLE_TEXTS + REJECTED_TEXTS


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:  # noqa: BLE001 - any failure is an outcome
        return type(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(SMALL_TEXTS),
    st.sampled_from(("drop", "insert", "replace", "none")),
    st.floats(0, 1, exclude_max=True),
    st.sampled_from("[],\n -.0123456789"),
)
def test_reader_outcome_matches_the_reference(text, edit, where, char):
    # Edits start after the label: a digit inserted into "cube(3)" can name
    # a cube too large to build.
    start = text.index('"points"')
    at = start + int(where * (len(text) - start))
    if edit == "drop":
        text = text[:at] + text[at + 1 :]
    elif edit == "insert":
        text = text[:at] + char + text[at:]
    elif edit == "replace":
        text = text[:at] + char + text[at + 1 :]
    want = _outcome(reference_from_json, text)
    got = _outcome(triangulation_from_json, text)
    if isinstance(want, Triangulation):
        assert isinstance(got, Triangulation) and _same(got, want)
    else:
        assert not isinstance(got, Triangulation), text


def test_every_small_layout_reads_alike():
    for text in READABLE_TEXTS:
        assert _same(triangulation_from_json(text), reference_from_json(text))
    for text in REJECTED_TEXTS:
        for read in (triangulation_from_json, reference_from_json):
            with pytest.raises(ValueError):
                read(text)


def test_out_of_order_points_still_raise():
    text = triangulation_to_json(minimal_cube(3))
    obj = json.loads(text)
    obj["points"][0], obj["points"][1] = obj["points"][1], obj["points"][0]
    swapped = text.replace("[[0, 0, 0], [0, 0, 1]", "[[0, 0, 1], [0, 0, 0]", 1)
    for bad in (json.dumps(obj), swapped):
        assert bad != text
        with pytest.raises(ValueError):
            triangulation_from_json(bad)
        with pytest.raises(ValueError):
            reference_from_json(bad)


# -- a label is built only for a file that lists all its points ------------------


@pytest.mark.parametrize(
    "text",
    ("cube(0)", "cube(4)", "simplex(3)", "minkowski(cube(2),3)",
     "cube(2)xsimplex(1)", "simplex(2)xminkowski(cube(1),2)xcube(1)"),
)
def test_point_count_is_the_label_configuration_size(text):
    label = parse_label(text)
    assert point_count(label) == len(PointConfiguration(label).points)


def test_point_count_of_a_huge_label_is_capped():
    huge = ("cube(1000000000)", "minkowski(cube(1000000000),2)", "cube(40)xcube(40)")
    for text in huge:
        assert point_count(parse_label(text)) == sys.maxsize + 1
    assert point_count(parse_label("minkowski(cube(1000000000),0)")) == 1


# Labels of 2^40 points or more, far too many to build.
HUGE_LABELS = ("cube(40)", "cube(37)xsimplex(1)", "minkowski(cube(1000000000),2)")


def _huge_label_file(label: str, layout: int) -> str:
    """The 3-cube's file with its label edited, in the writer's layout (0)
    or in ``json.dumps``'s (1)."""
    text = triangulation_to_json(minimal_cube(3))
    edited = text.replace('"cube(3)"', f'"{label}"', 1)
    assert edited != text
    return edited if layout == 0 else json.dumps(json.loads(edited))


@pytest.mark.parametrize("label", HUGE_LABELS)
@pytest.mark.parametrize("layout", (0, 1))
def test_reader_rejects_a_label_before_building_it(label, layout):
    with pytest.raises(ValueError, match="points array"):
        triangulation_from_json(_huge_label_file(label, layout))


def test_reader_rejects_a_label_dimension_before_building_it():
    # One point, as many as the label has, but the label's has 10^9
    # coordinates.
    obj = {"dim": 2, "label": "minkowski(cube(1000000000),0)", "points": [[0, 0]]}
    with pytest.raises(ValueError, match="dimensional"):
        triangulation_from_json(json.dumps({**obj, "simplices": []}))


@pytest.mark.parametrize("label", HUGE_LABELS)
@pytest.mark.parametrize("layout", (0, 1))
def test_verify_rejects_a_label_before_building_it(tmp_path, capsys, label, layout):
    path = os.fspath(tmp_path / "huge.json")
    with open(path, "w") as fh:
        fh.write(_huge_label_file(label, layout))
    assert main(["verify", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid file: ")


# -- invalid indices reach neither checker ----------------------------------------


def _bad_files(tri) -> dict[str, tuple[str, str]]:
    """name -> (the file in the writer's layout, the same in json.dumps's)."""
    simplices = [list(s) for s in tri.simplices]
    n = len(tri.config.points)
    # -1 in place of the last point and 0.5 added to an index both name
    # the same point once numpy wraps or truncates them.
    last = next(i for i, s in enumerate(simplices) if s[-1] == n - 1)
    bad = {
        "float": (3, 0, simplices[3][0] + 0.5),
        "bool": (3, 1, True),
        "minus one": (last, -1, -1),
        "len(points)": (3, -1, n),
    }
    out = {}
    for name, (row, col, value) in bad.items():
        edited = [list(s) for s in simplices]
        edited[row][col] = value
        text = reference_to_json(tri.config, edited)
        out[name] = (text, json.dumps(json.loads(text)))
    text = triangulation_to_json(tri)
    dim = tri.config.dim
    wrong_dim = text.replace('{"dim": %d' % dim, '{"dim": %d' % (dim + 1), 1)
    assert wrong_dim != text
    out["dim"] = (wrong_dim, json.dumps(json.loads(wrong_dim)))
    # Well-formed JSON that is not a triangulation file has no writer's
    # layout: compact and indented json.dumps text instead.
    for key in ("label", "points", "simplices"):
        obj = json.loads(text)
        del obj[key]
        out[f"no {key}"] = (json.dumps(obj), json.dumps(obj, indent=1))
    obj = json.loads(text)
    obj["label"] = 5
    out["label 5"] = (json.dumps(obj), json.dumps(obj, indent=1))
    out["list"] = ("[1,2]", json.dumps([1, 2], indent=1))
    return out


BAD_D4 = _bad_files(build_cube_recursive(_spec(4))[0])


@pytest.mark.parametrize("name", sorted(BAD_D4))
@pytest.mark.parametrize("layout", (0, 1))
def test_reader_rejects_bad_indices_and_dim(name, layout):
    text = BAD_D4[name][layout]
    with pytest.raises(ValueError):
        triangulation_from_json(text)
    with pytest.raises(ValueError):
        reference_from_json(text)


@pytest.mark.parametrize("name", sorted(BAD_D4))
@pytest.mark.parametrize("layout", (0, 1))
@pytest.mark.parametrize("mode", ([],))  # verify's one mode; keeps the test ids
def test_verify_rejects_bad_indices_and_dim(tmp_path, capsys, name, layout, mode):
    path = os.fspath(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write(BAD_D4[name][layout])
    assert main(["verify", path, *mode]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid file: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", ("undecodable", "missing"))
@pytest.mark.parametrize("mode", ([],))  # verify's one mode; keeps the test ids
def test_verify_rejects_an_unreadable_file(tmp_path, capsys, name, mode):
    path = tmp_path / "file.json"
    if name == "undecodable":
        path.write_bytes(b"\xff\xfe{")
    assert main(["verify", os.fspath(path), *mode]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("invalid file: ")
    assert "Traceback" not in captured.err


# -- verify reads a handle in blocks ------------------------------------------------


# The line ``verify`` prints for each rejected file above; the parent of the
# streamed reader printed the same.
NO_KEYS = "not an object with the keys dim, label, points and simplices"
INVALID_MESSAGES = {
    "bool": "simplex index True is not an integer",
    "dim": "dim 5 is not the label's 4",
    "float": "simplex index 0.5 is not an integer",
    "label 5": "label 5 is not a string",
    "len(points)": "simplex index out of range",
    "list": NO_KEYS,
    "minus one": "simplex index out of range",
    "no label": NO_KEYS,
    "no points": NO_KEYS,
    "no simplices": NO_KEYS,
    **{label: f"points array does not hold the {label} points" for label in HUGE_LABELS},
}


def _verify_lines(tmp_path, capsys, data: bytes) -> tuple[int, list[str]]:
    path = tmp_path / "file.json"
    path.write_bytes(data)
    code = main(["verify", os.fspath(path)])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name", sorted(INVALID_MESSAGES))
@pytest.mark.parametrize("layout", (0, 1))
def test_verify_keeps_every_invalid_file_message(tmp_path, capsys, name, layout):
    if name in HUGE_LABELS:
        text = _huge_label_file(name, layout)
    else:
        text = BAD_D4[name][layout]
    code, lines = _verify_lines(tmp_path, capsys, text.encode())
    assert (code, lines) == (1, [f"invalid file: {INVALID_MESSAGES[name]}"])


def test_verify_keeps_the_ragged_and_undecodable_messages(outputs, tmp_path, capsys):
    cube = minimal_cube(3)
    ragged = reference_to_json(cube.config, cube.simplices + ((0, 1, 2),))
    assert _verify_lines(tmp_path, capsys, ragged.encode()) == (1, [
        "invalid file: simplices of different sizes: (0, 1, 2) and (1, 2, 4, 7)"
    ])
    # A bad byte past the first blocks: the position is the file's, as
    # decoding the whole text gives it.
    data = outputs[8][1].encode()
    at = 300_000
    assert len(data) > at > 2 * complexes.READ_BLOCK
    for bad in (b"\xff\xfe{", data[:at] + b"\xff" + data[at:]):
        where = 0 if len(bad) < 10 else at
        assert _verify_lines(tmp_path, capsys, bad) == (1, [
            f"invalid file: 'utf-8' codec can't decode byte 0xff in position "
            f"{where}: invalid start byte"
        ])


class _RecordingHandle:
    """A text file handle that records the length of every read."""

    def __init__(self, fh):
        self.fh = fh
        self.reads: list[tuple[str, int]] = []

    def read(self, size=-1):
        data = self.fh.read(size)
        self.reads.append(("read", len(data)))
        return data

    def readline(self, size=-1):
        data = self.fh.readline(size)
        self.reads.append(("readline", len(data)))
        return data

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_verify_reads_a_d8_file_block_by_block(outputs, tmp_path, capsys, monkeypatch):
    from cubetri import cli

    text = outputs[8][2]
    path = tmp_path / "d8.json"
    path.write_text(text)
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(_RecordingHandle(open(*args, **kwargs)))
        return handles[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert main(["verify", os.fspath(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "volume census: True (volume 40320, 0 violations)",
        "ridges: True (0 violations)",
    ]
    (handle,) = handles
    header = len(text[: text.index("\n") + 1])
    reads = [size for kind, size in handle.reads if kind == "read"]
    assert {size for kind, size in handle.reads if kind == "readline"} == {header}
    assert max(reads) <= complexes.READ_BLOCK < len(text) - header
    # the text after the header, then the body again without the footer,
    # each in more than one read
    body = len(text) - header - len("\n]}\n")
    assert sum(reads) == (body + 4) + body and len(reads) > 4


@pytest.mark.parametrize("dim", DIMS)
def test_handle_reader_reads_as_the_text_reader(outputs, dim, monkeypatch):
    monkeypatch.setattr(complexes, "READ_BLOCK", 997)  # many blocks, odd cuts
    tri, kept, streamed = outputs[dim]
    for text in (kept, streamed, *_layouts(kept).values()):
        assert _same(triangulation_from_json(io.StringIO(text)), tri)
    # the writer's layout is read by the streamed reader, not json.loads
    for text in (kept, streamed):
        assert _same(complexes._read_handle(io.StringIO(text)), tri)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(SMALL_TEXTS),
    st.sampled_from(("drop", "insert", "replace", "none")),
    st.floats(0, 1, exclude_max=True),
    st.sampled_from("[],\n -.0123456789"),
    st.sampled_from((7, 64, 1 << 17)),
)
def test_handle_outcome_matches_the_text_outcome(text, edit, where, char, block):
    start = text.index('"points"')
    at = start + int(where * (len(text) - start))
    if edit == "drop":
        text = text[:at] + text[at + 1 :]
    elif edit == "insert":
        text = text[:at] + char + text[at:]
    elif edit == "replace":
        text = text[:at] + char + text[at + 1 :]
    def outcome(source):
        try:
            return triangulation_from_json(source)
        except Exception as exc:  # noqa: BLE001 - any failure is an outcome
            return type(exc), str(exc)

    old, complexes.READ_BLOCK = complexes.READ_BLOCK, block
    try:
        want, got = outcome(text), outcome(io.StringIO(text))
    finally:
        complexes.READ_BLOCK = old
    if isinstance(want, Triangulation):
        assert isinstance(got, Triangulation) and _same(got, want)
    else:
        assert got == want, text


def test_sorted_index_rows_are_held_without_a_copy(monkeypatch):
    tri = build_cube_recursive(_spec(5))[0]
    rows = np.array(tri.rows)  # a writable uint16 copy, rows ascending
    held = Triangulation(tri.config, rows)
    assert np.shares_memory(held.rows, rows) and held == tri
    assert not held.rows.flags.writeable
    # One unsorted row, in the last of several chunks of the check, or rows
    # of another dtype: the rows np.sort gives, in a copy.
    monkeypatch.setattr(complexes, "CENSUS_CHUNK", 7)
    for bad in (np.array(tri.rows), np.array(tri.rows, dtype=np.int64)):
        if bad.dtype == np.uint16:
            bad[-1, [0, -1]] = bad[-1, [-1, 0]]
        got = Triangulation(tri.config, bad)
        assert not np.shares_memory(got.rows, bad)
        assert np.array_equal(got.rows, np.sort(bad, axis=1)) and got == tri
