"""The benchmark must find every function it traces and everything it calls.

``perfbench/spans.py`` replaces each traced function under every name it
is looked up by, and ``perfbench/workloads.py`` calls the package with
options, classes and seeds of its own; a rename, move or removal in
``cubetri`` should fail here rather than in a benchmark run. The package's
modules also import nothing they leave unused, so a removal does not
leave its imports behind, hold no ``assert`` statement, whose check
``python -O`` would strip, and each ``build cube`` flag is a spec field
that the pipeline reads.
"""

import ast
import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubetri"


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name an import in ``path`` binds and
    the module never reads. ``__future__`` imports are directives, and in
    ``verification.py`` an import whose first line says ``re-exported``
    is there for other modules to import."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if path.name == "verification.py" and "re-exported" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_package_modules_leave_no_import_unused():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    assert [u for path in modules for u in unused_imports(path)] == []


def assert_statements(path: Path) -> list[str]:
    """``file:line`` of each ``assert`` statement, which ``python -O``
    strips, in ``path``."""
    tree = ast.parse(path.read_text())
    nodes = ast.walk(tree)
    return [f"{path.name}:{n.lineno}" for n in nodes if isinstance(n, ast.Assert)]


def test_package_modules_hold_no_assert_statement(tmp_path):
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [a for path in modules for a in assert_statements(path)] == []
    module = tmp_path / "module.py"
    module.write_text("def f(x):\n    assert x, 'stripped by -O'\n")
    assert assert_statements(module) == ["module.py:2"]


def test_the_unused_import_check_sees_one(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from fractions import Fraction  # re-exported\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(module) == ["module.py:2 math", "module.py:4 Fraction"]


def owners(match) -> set[str]:
    """``module.function`` for each function of the package that holds a
    node for which ``match`` holds (``module`` for one outside any
    function)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if match(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def callers(name: str) -> set[str]:
    """The :func:`owners` of a call of ``name``, as a bare name or an
    attribute, or of a call that passes it on, as an argument (as to
    ``map``) or a keyword's value (as ``key=``)."""

    def named(node):
        return name in (getattr(node, "id", None), getattr(node, "attr", None))

    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        passed = [*node.args, *(kw.value for kw in node.keywords)]
        return any(map(named, [node.func, *passed]))

    return owners(calls)


def reachable(start: str) -> set[str]:
    """The names that the package's functions named ``start`` call,
    directly or through the package's functions of the names they call
    (a class stands for every call in its body), as :func:`callers`
    counts calls. Names, not modules: a function of any module counts."""
    calls: dict = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = calls.setdefault(node.name, set())
                for call in (c for c in ast.walk(node) if isinstance(c, ast.Call)):
                    for n in [call.func, *call.args, *(k.value for k in call.keywords)]:
                        names.add(getattr(n, "id", None) or getattr(n, "attr", None))
    seen, todo = set(), [start]
    while todo:
        for name in calls.get(todo.pop(), set()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def methods(module: str, cls: str) -> set[str]:
    """The :func:`owners` names of the functions in class ``cls`` of
    ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    (node,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return {f"{module}.{n.name}" for n in ast.walk(node) if isinstance(n, ast.FunctionDef)}


def counts_colors(node) -> bool:
    """The per-color count of a sigma's vertices:
    ``colors[:, :, None] == np.arange(m)``, under any names."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Subscript)
        and ast.unparse(node.left.slice).strip("()") == ":, :, None"
        and any(
            getattr(getattr(c, "func", None), "attr", None) == "arange"
            for c in node.comparators
        )
    )


def slices_seeds(node) -> bool:
    """A slice of ``SEEDS``, such as ``SEEDS[:2]`` for its block seeds."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Slice)
        and "SEEDS" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    )


def literal(text: str):
    return lambda node: isinstance(node, ast.Constant) and node.value == text


def reads(name: str):
    """A read of ``name``, as a bare name or an attribute; binding it is
    not a read."""

    def match(node):
        named = getattr(node, "id", None) or getattr(node, "attr", None)
        return named == name and isinstance(getattr(node, "ctx", None), ast.Load)

    return match


def raises(name: str):
    """A ``raise`` of the exception ``name``, called or not."""

    def match(node):
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return name in (getattr(exc, "id", None), getattr(exc, "attr", None))

    return match


def compares_a_size(node) -> bool:
    """An equality test with a size on a side, such as ``step.size !=
    best_size``: a name or attribute there that ends in ``size``."""
    if not isinstance(node, ast.Compare):
        return False
    if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        return False
    sides = [n for side in [node.left, *node.comparators] for n in ast.walk(side)]
    return any(
        (getattr(n, "id", None) or getattr(n, "attr", "")).endswith("size") for n in sides
    )


def identifiers(path: Path) -> set[str]:
    """Every name the code of ``path`` binds or reads: names, attributes,
    functions, classes and arguments; comments and strings are not code."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


def test_each_decision_has_one_owner():
    """The oracle takes its ridges and facets from the certificate, a label
    with no simplex factor is P x simplex(0) through
    ``complexes.simplex_factor``, the product sizes take the surviving T_0
    cells from the generator's rule, and the block seeds are named in the
    seeds catalog alone: the second owners stay gone. The census and
    ``batch_det`` alone ask the overflow guard for a block's dtype,
    ``batch_last_det`` alone picks the kernel and its levels' dtypes, and
    one function holds the width rule. One census stores and tallies a
    step's volumes and counts its rows against the closed-form size, which
    no step compares with its rows itself or asserts, and one reader parses
    the writer's layout. The cells read the staircases from one table per
    block, and the closed-form sizes never read them. One rule,
    ``census_batch``, sizes the batches of every pass over a step's rows
    from the census kernel, and no pass reads a batch size of its own."""
    gone = {
        "facet_incidence", "_cube_as_point_product", "by_ridge", "lift_count", "_lvecs",
        "_read_handle_layout", "signature_template", "_sigma_size", "_cell_types",
        "_signature_certified", "_surviving_cells",
    }
    found = {
        f"{path.name}: {name}"
        for path in PACKAGE.glob("*.py")
        for name in identifiers(path) & gone
    }
    assert found == set()
    # besides its own recursion over product factors
    assert callers("facet_inequalities") - {"geometry.facet_inequalities"} == {
        "complexes._facet_masks"
    }
    # runs of equal rows: the duplicate scan, the ridge buckets, the oracle
    assert callers("lexsort") == {"complexes._runs"}
    assert owners(counts_colors) == {"coloring._color_groups"}
    assert callers("_survivors") == {"coloring.__init__", "coloring._key_sizes"}
    # the staircases of a block come from its table, and the closed form of
    # their count is never read by the engine nor reaches the tables
    assert callers("monotone_paths") == {"staircase.block_paths"}
    closed_form = callers("multi_staircase_count") | callers("comb")
    assert methods("coloring", "ProductCells") & closed_form == set()
    assert reachable("product_size") & {"monotone_paths", "block_paths"} == set()
    assert {where.split(".")[0] for where in owners(literal("i3d1"))} == {"seeds"}
    assert owners(slices_seeds) == set()
    # the one overflow guard, and the one place that picks the kernel it
    # guards; the width rule itself has one owner
    assert callers("exact_dtype") == {"complexes.signed_volumes", "linalg.batch_det"}
    assert callers("_level_dtypes") == {"linalg.exact_dtype", "linalg.batch_last_det"}
    assert callers("iinfo") == {"linalg._narrowest"}
    assert callers("_narrowest") == {"linalg._level_dtypes"}
    assert callers("_eliminate") == {"linalg.batch_last_det"}
    assert callers("_expand_minors") == {"linalg.batch_last_det"}
    # one census for the steps and the reports: the pipeline neither takes
    # nor tallies volumes itself
    takes = callers("signed_volumes") | callers("_tally")
    assert [where for where in takes if where.startswith("pipeline")] == []
    assert callers("volume_census") == {"complexes._census", "pipeline._product_step"}
    # and only the census counts a step's rows: a mismatch fails the step
    assert owners(literal("row-count")) == {"complexes.volume_census"}
    step = {"pipeline.build_cube_recursive", "pipeline._product_step"}
    assert owners(compares_a_size) & step == set()
    assert owners(raises("AssertionError")) & step == set()
    # the layout reader: texts and file handles alike
    assert callers("_read_rows") == callers("_layout_config") == {"complexes._read_layout"}
    assert callers("_read_layout") == {"complexes._read_text", "complexes._read_handle"}
    # the batch rule: the elimination's chunk and the expansion's slice as a
    # batch size are read by the rule alone (the expansion reads its slice)
    assert owners(reads("CENSUS_CHUNK")) == {"complexes.census_batch"}
    assert owners(reads("MINOR_SLICE")) == {
        "complexes.census_batch", "linalg.batch_last_det"
    }
    assert callers("census_batch") == {
        "pipeline._product_step", "complexes.signed_volumes", "complexes._census",
        "complexes._rows_sorted", "complexes._bucket_ids", "complexes._second_counts",
    }


def test_the_owner_checks_see_a_second_owner(tmp_path, monkeypatch):
    module = tmp_path / "module.py"
    module.write_text(
        "def facet_incidence(config):\n"
        "    return geometry.facet_inequalities(config.label)\n"
        "class E:\n"
        "    def __init__(self):\n"
        "        self.by_ridge = {}  # by_ridge in a comment is not code\n"
        "def duplicates(rows):\n"
        "    return np.lexsort(rows.T[::-1])\n"
        "def sizes(c, k):\n"
        "    return (c[:, :, None] == np.arange(k)).sum(axis=1)\n"
        "SEEDS = ('i3d2', 'i3d1', 'minimal')\n"
        "BLOCK = pipeline.SEEDS[:2]\n"
        "def volumes(g, c):\n"
        "    assert np.iinfo(np.int8).bits == 8\n"
        "    g = g.astype(linalg.exact_dtype(c, len(g)))\n"
        "    return linalg._eliminate(g) if len(g) > 7 else _expand_minors(g)\n"
        "def widths(squares):\n"
        "    return tuple(map(_narrowest, squares))\n"
        "def step_volumes(points, chunks):\n"
        "    return sorted(chunks, key=complexes.signed_volumes)\n"
        "def product_size(t_q, t0):\n"
        "    return sum(Sizes(t0).sizes)\n"
        "class Sizes:\n"
        "    def __init__(self, t0):\n"
        "        self.sizes = [len(_table(2, k)) for k in range(3)]\n"
        "def _table(l, k):\n"
        "    return np.array(staircase.monotone_paths(l, k))\n"
        "def build_cube_recursive(spec):\n"
        "    if step.size != best_size:\n"
        "        raise AssertionError('sizes differ')\n"
        "    return Violation('row-count', ())\n"
        "CENSUS_CHUNK = 4096\n"
        "def batches(rows):\n"
        "    step = linalg.MINOR_SLICE\n"
        "    return [rows[i : i + CENSUS_CHUNK] for i in range(0, len(rows), step)]\n"
        "def census(config, rows):\n"
        "    return batches(rows[:: census_batch(config.dim)])\n"
    )
    assert identifiers(module) >= {"facet_incidence", "by_ridge"}
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", tmp_path)
    assert callers("facet_inequalities") == {"module.facet_incidence"}
    assert callers("lexsort") == {"module.duplicates"}
    assert owners(counts_colors) == {"module.sizes"}
    assert owners(literal("i3d1")) == owners(slices_seeds) == {"module"}
    assert callers("exact_dtype") == callers("_eliminate") == {"module.volumes"}
    assert callers("iinfo") == {"module.volumes"}
    assert callers("_expand_minors") == {"module.volumes"}
    # a function passed on, to map or as key=, has a caller too
    assert callers("_narrowest") == {"module.widths"}
    assert callers("signed_volumes") == {"module.step_volumes"}
    # a call through a class and a helper reaches the staircases
    assert reachable("product_size") >= {"Sizes", "_table", "monotone_paths"}
    # a second size check, raised rather than failing the step
    assert owners(compares_a_size) == {"module.build_cube_recursive"}
    assert owners(raises("AssertionError")) == {"module.build_cube_recursive"}
    assert owners(literal("row-count")) == {"module.build_cube_recursive"}
    assert methods("module", "Sizes") == {"module.__init__"}
    # a pass that sizes its own batches; binding the constant is no read
    assert owners(reads("CENSUS_CHUNK")) == owners(reads("MINOR_SLICE")) == {
        "module.batches"
    }
    assert callers("census_batch") == {"module.census"}


def spec_uses(cli_path: Path, pipeline_path: Path) -> tuple[dict, set[str]]:
    """``--flag -> field`` for each ``build cube`` flag: the keyword of its
    own name that ``_build_spec`` passes it to ``PipelineSpec`` as, or None
    (not passed, or under another name). Then the attributes the pipeline
    reads off a ``spec``; ``__post_init__`` reads its checks off ``self``."""
    cli_tree = ast.parse(cli_path.read_text())
    flags = [
        node.args[0].value
        for node in ast.walk(cli_tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and getattr(node.func.value, "id", None) == "p_cube"
    ]
    (build_spec,) = (
        node for node in ast.walk(cli_tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_build_spec"
    )
    passed = {
        kw.value.attr: kw.arg
        for node in ast.walk(build_spec)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if isinstance(kw.value, ast.Attribute)
    }
    sets = {}
    for flag in flags:
        name = flag.lstrip("-").replace("-", "_")
        sets[flag] = name if passed.get(name) == name else None
    read = {
        node.attr
        for node in ast.walk(ast.parse(pipeline_path.read_text()))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "spec"
    }
    return sets, read


def test_every_build_flag_sets_a_spec_field_that_the_pipeline_reads():
    """A ``build cube`` flag is the ``PipelineSpec`` field of its name, and
    the pipeline reads every field past the spec's checks: no flag is
    dropped or renamed on the way, and no field only passes the checks."""
    from dataclasses import fields

    from cubetri.pipeline import PipelineSpec

    names = {f.name for f in fields(PipelineSpec)}
    sets, read = spec_uses(PACKAGE / "cli.py", PACKAGE / "pipeline.py")
    assert len(sets) >= 6
    assert {flag: field for flag, field in sets.items() if field not in names} == {}
    assert names - read == set()


def test_the_spec_check_sees_a_dropped_flag_and_an_unread_field(tmp_path):
    cli = tmp_path / "cli.py"
    cli.write_text(
        "def _build_spec(args):\n"
        "    return PipelineSpec(dim=args.dim, colors=args.m)\n"
        "p_cube.add_argument('--dim')\n"
        "p_cube.add_argument('--m')\n"
        "p_cube.add_argument('--out')\n"
    )
    pipeline = tmp_path / "pipeline.py"
    pipeline.write_text(
        "class PipelineSpec:\n"
        "    def __post_init__(self):\n"
        "        assert self.m > 0\n"
        "def build(spec):\n"
        "    return spec.dim\n"
    )
    sets, read = spec_uses(cli, pipeline)
    assert sets == {"--dim": "dim", "--m": None, "--out": None}
    assert read == {"dim"}


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


def test_a_failing_given_test_leaves_the_session_running(tmp_path):
    """A failing ``@given`` test fails alone under the repo's warning
    filters. On a failure hypothesis's pytest plugin imports libcst, whose
    import warns a DeprecationWarning from ``mypy_extensions``; turned into
    an error, it ends the session in an INTERNALERROR (exit 3) and leaves
    every later test unrun."""
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    config = PERFBENCH.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in run.stdout, out
