"""Smoke tests for the scripts under ``tools/``, and a guard on the public surface."""

import ast
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
    assert header.split() == ["module", "lines", "public", "defaults", "fields"]
    table = {name: int(lines) for name, lines, *_ in (row.split() for row in rows)}
    modules = sorted(PACKAGE.glob("*.py"))
    assert [row.split()[0] for row in rows] == [p.name for p in modules] + ["total"]
    for path in modules:
        assert table[path.name] == path.read_text(encoding="utf-8").count("\n")
    assert table["total"] == sum(table[path.name] for path in modules)


# public names that no program code reaches yet, each kept for a stated reason
_UNREACHED_BY_DESIGN = {
    "geometry.pullback_twoform": "ROADMAP.md direction 1 builds the source-space "
    "tangent structure on it",
}


def _reached_names():
    """Names used as a name, an attribute or an import by program code.

    Program code is the package, ``perfbench/``, ``tools/`` and the
    acceptance suite; the tracer patches functions by name, so its strings
    count too.
    """
    paths = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
        *(ROOT / "tools").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    reached = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name)
            elif path.name == "tracing.py" and isinstance(node, ast.Constant):
                if isinstance(node.value, str):
                    reached.add(node.value)
    return reached


def test_every_public_name_is_reached_by_program_code():
    public_names = runpy.run_path(str(ROOT / "tools" / "surface.py"))["_public_names"]
    reached = _reached_names()
    unreached = {
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in public_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in reached
    }
    # an exemption that code now reaches fails here too, so none goes stale
    assert unreached == set(_UNREACHED_BY_DESIGN)
