"""Count and time the integration layers of one or more source trees.

Usage::

    python3 tools/bench.py --out BENCH.json [LABEL=PATH ...]

Each ``LABEL=PATH`` names a checkout whose ``src/`` is measured in a Python
process of its own (default: ``change=`` the checkout holding this script),
so two trees can be compared in one file.  Five cases are run:

* ``chart_period``: ``integrate`` on the Kepler chart field over one period
  2*pi from the E = -0.5 shell representative, rtol 1e-10, atol 1e-12;
* ``chart_period_rtol_1e-11``: the same at rtol 1e-11, so that cores of
  different accuracy can also be compared at equal error, not only at equal
  rtol (both chart-period cases record ``end_gap``, the Euclidean distance
  of the end state from the start, which is the global error there);
* ``estimate_period``: ``estimate_period`` on the same field and start;
* ``cli_match``: ``sodelab match`` on its default grid, into a temporary
  directory;
* ``cli_verify_kepler_chart``: ``sodelab verify --scenario kepler-chart``,
  into a temporary directory; its only ``integrate`` calls are the backward
  flows of the dilation field.

Each case records deterministic counters summed over every ``integrate``
call it makes (RHS evaluations ``nfev``, ``accepted`` and ``rejected``
steps, ``runs``) and the median and spread of the wall time over
``_REPEAT`` timed runs, after one untimed run that also warms the compiled
fields.  Wall times depend on the machine and its load; the counters do not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve()
_REPEAT = 5  # timed runs per case


def _count_integrate() -> Counter:
    """Wrap ``integrate`` wherever ``sodelab`` bound it; return the totals."""
    import sodelab.cli  # noqa: F401  (binds the names patched below)
    import sodelab.dynamics as dynamics

    original = dynamics.integrate
    totals: Counter = Counter()

    def integrate(*args, **kwargs):
        traj = original(*args, **kwargs)
        totals["runs"] += 1
        totals["nfev"] += traj.nfev
        totals["accepted"] += traj.accepted
        totals["rejected"] += traj.rejected
        return traj

    for name, module in list(sys.modules.items()):
        if name.startswith("sodelab") and getattr(module, "integrate", None) is original:
            module.integrate = integrate
    return totals


def _cases():
    import numpy as np
    from sodelab import kepler
    from sodelab.cli import main
    from sodelab.dynamics import estimate_period, integrate

    field = kepler.chart_field()
    x0 = kepler.shell_representative(-0.5)

    def chart_period(rtol):
        traj = integrate(field.ode_rhs, x0, 2.0 * math.pi, rtol=rtol, atol=1e-12)
        return {"end_gap": float(np.linalg.norm(traj.final_state - x0))}

    def period():
        estimate_period(field.ode_rhs, x0)

    def cli(*argv):
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", out])
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")

    return {
        "chart_period": lambda: chart_period(1e-10),
        "chart_period_rtol_1e-11": lambda: chart_period(1e-11),
        "estimate_period": period,
        "cli_match": lambda: cli("match"),
        "cli_verify_kepler_chart": lambda: cli("verify", "--scenario", "kepler-chart"),
    }


def measure() -> dict:
    """The counters and wall times of every case, for the imported tree."""
    totals = _count_integrate()
    results = {}
    for name, run in _cases().items():
        totals.clear()
        extra = run() or {}
        counters = dict(sorted({**totals, **extra}.items()))
        walls = []
        for _ in range(_REPEAT):
            start = time.perf_counter()
            run()
            walls.append(time.perf_counter() - start)
        results[name] = {
            **counters,
            "wall_s_median": statistics.median(walls),
            "wall_s_min": min(walls),
            "wall_s_max": max(walls),
        }
    return results


def _measure_tree(path: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(path / "src")}
    out = subprocess.run(
        [sys.executable, str(HERE), "--measure"],
        env=env, cwd=path, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="LABEL=PATH")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.out is None:
        parser.error("--out is required")
    trees = {}
    for spec in args.trees or [f"change={HERE.parents[1]}"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            parser.error(f"expected LABEL=PATH, got {spec!r}")
        trees[label] = _measure_tree(Path(path).resolve())
    report = {
        "machine": {
            "python": platform.python_version(),
            "arch": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "repeat": _REPEAT,
        "trees": trees,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
