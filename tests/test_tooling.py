"""The benchmark must find every function it traces and everything it calls.

``perfbench/spans.py`` replaces each traced function under every name it
is looked up by, and ``perfbench/workloads.py`` calls the package with
options, classes and seeds of its own; a rename, move or removal in
``cubetri`` should fail here rather than in a benchmark run. The package's
modules also import nothing they leave unused, so a removal does not
leave its imports behind.
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


def callers(name: str) -> set[str]:
    """``module.function`` for each function of the package that calls
    ``name``, as a bare name or an attribute (``module`` for a call outside
    any function)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


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
    """The oracle takes its ridges and facets from the certificate, and a
    label with no simplex factor is P x simplex(0) through
    ``complexes.simplex_factor``: the second owners stay gone."""
    gone = {"facet_incidence", "_cube_as_point_product", "by_ridge"}
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


def test_the_owner_checks_see_a_second_owner(tmp_path, monkeypatch):
    module = tmp_path / "module.py"
    module.write_text(
        "def facet_incidence(config):\n"
        "    return geometry.facet_inequalities(config.label)\n"
        "class E:\n"
        "    def __init__(self):\n"
        "        self.by_ridge = {}  # by_ridge in a comment is not code\n"
    )
    assert identifiers(module) >= {"facet_incidence", "by_ridge"}
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", tmp_path)
    assert callers("facet_inequalities") == {"module.facet_incidence"}


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
