"""Smoke tests for the scripts under ``tools/``."""

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
