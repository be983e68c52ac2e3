"""Smoke tests for the scripts under ``tools/``, and guards on the public surface."""

import ast
import gc
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sodelab"


def test_surface_prints_one_row_per_module_and_a_total():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "surface.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["module", "lines", "public", "defaults", "fields", "members"]
    table = {name: int(lines) for name, lines, *_ in (row.split() for row in rows)}
    modules = sorted(PACKAGE.glob("*.py"))
    assert [row.split()[0] for row in rows] == [p.name for p in modules] + ["total"]
    for path in modules:
        assert table[path.name] == path.read_text(encoding="utf-8").count("\n")
    assert table["total"] == sum(table[path.name] for path in modules)


def test_bench_cases_leave_no_node_behind():
    """Each ``tools/bench.py`` case is measured as the script measures it, and
    the interned node table is then back to its size from before the case:
    no case holds another's trees."""
    from sodelab import expr

    bench = runpy.run_path(str(ROOT / "tools" / "bench.py"))
    for name, setup in bench["_cases"]().items():
        gc.collect()
        before = len(expr._NODES)
        result = bench["_measure_case"](setup, dict, lambda: None)
        assert len(result["walls"]) == bench["_REPEAT"]
        gc.collect()
        assert len(expr._NODES) == before, name


def test_bench_counters_sum_each_wrapped_layer():
    """``tools/bench.py --measure`` counts every wrapped layer of one case:
    integration runs, and the interpolants their trajectories built,
    alongside code generation and batch builds.  Each timed run records its
    wall and its CPU time."""
    counters = {}
    for case in ("chart_period", "estimate_period", "cli_verify_oscillator_2"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench.py"), "--measure", case],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        counters[case] = result["counters"]
        assert len(result["cpus"]) == len(result["walls"]) > 0
        assert all(t > 0.0 for t in result["walls"] + result["cpus"])
    period = counters["chart_period"]
    assert period["runs"] == 1 and period["nfev"] > 0
    assert (period["codegen"], period["batch_evals"]) == (1, 0)
    # a plain run reads no interpolant; period detection builds the one step
    # that crosses its section at the first return
    assert period["interpolants"] == 0
    assert counters["estimate_period"]["interpolants"] == 1
    verify = counters["cli_verify_oscillator_2"]
    assert verify["builds"] == 1 and verify["box_draws"] == 1
    # a chart is built and certified on the batch backend alone
    assert verify["batch_evals"] > 0 and verify["codegen"] == 0


def test_cli_digest_matches_the_golden_file():
    """Every byte the fixed CLI runs of ``tools/cli_digest.py`` write is pinned
    by ``tests/cli_digest.txt``; a change that moves output bytes rewrites that
    file (``python3 tools/cli_digest.py > tests/cli_digest.txt``), so its diff
    names each moved output."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_digest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    golden = (ROOT / "tests" / "cli_digest.txt").read_text(encoding="utf-8")
    assert proc.stdout.splitlines() == golden.splitlines()


# public names (module.name) and class members (module.Class.member) that
# no program code reaches yet, each kept for a stated reason
_UNREACHED_BY_DESIGN = {
    "geometry.pullback_twoform": "ROADMAP.md direction 1 builds the source-space "
    "tangent structure on it",
    "dynamics.Trajectory.min_step": "ROADMAP.md direction 4 reports it as run "
    "telemetry",
}


def _program_reads():
    """(names, attributes) that program code uses.

    Program code is the package, ``perfbench/``, ``tools/`` and the
    acceptance suite.  ``attributes`` holds the names read after a dot;
    ``names`` adds every plain name and import alias.  The tracer patches
    functions by name, so its strings count in both.
    """
    paths = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
        *(ROOT / "tools").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    names, attributes = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif path.name == "tracing.py" and isinstance(node, ast.Constant):
                if isinstance(node.value, str):
                    attributes.add(node.value)
    return names | attributes, attributes


def _exemptions(dots):
    return {key for key in _UNREACHED_BY_DESIGN if key.count(".") == dots}


def _modules():
    for path in PACKAGE.glob("*.py"):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_is_reached_by_program_code():
    public_names = runpy.run_path(str(ROOT / "tools" / "surface.py"))["_public_names"]
    reached, _ = _program_reads()
    unreached = {
        f"{module}.{name}"
        for module, tree in _modules()
        for name in public_names(tree)
        if name not in reached
    }
    # an exemption that code now reaches fails here too, so none goes stale
    assert unreached == _exemptions(1)


def test_every_class_member_is_read_by_program_code():
    """Each public method, property and dataclass field of a class in a
    module's ``__all__`` is read as an attribute by program code.

    A name-based tripwire, not a proof: it matches attribute names, not
    classes, so a member that shares its name with any attribute read
    elsewhere (``of``, ``ctx``, ``to_json``) escapes it.
    """
    surface = runpy.run_path(str(ROOT / "tools" / "surface.py"))
    public_names, members = surface["_public_names"], surface["_members"]
    _, read = _program_reads()
    unread = {
        f"{module}.{node.name}.{member}"
        for module, tree in _modules()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in public_names(tree)
        for member in members(node)
        if member not in read
    }
    assert unread == _exemptions(2)
