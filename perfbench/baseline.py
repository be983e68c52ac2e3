"""Measure the benchmark's baseline and its run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload it runs ``perfbench/run.py`` once per seed, one run at a
time, and reports for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  A spread at or
above a third of the metric's bound in ``BENCHMARK.json`` is flagged.  One
traced run per workload (the first seed) adds the per-layer metrics.  The
output also records the machine: ``nproc``, Python and numpy versions, and
the load average at start and end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its final JSON line, plus its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def _machine(load_start) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    load_start = list(os.getloadavg())
    started = time.time()
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in report["seeds"]]
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "run_wall_s": [r["run_wall_s"] for r in runs],
                 "end_to_end": {}}
        for name in bounds:
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds[name]
            stats["within_third"] = name == "setup_s" or stats["spread"] < bounds[name] / 3
            entry["end_to_end"][name] = stats
            flag = "" if stats["within_third"] else "   <-- spread >= bound/3"
            print(f"{workload:14s} {name:12s} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}",
                  flush=True)
        traced = run_once(workload, report["seeds"][0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    report["wall_s"] = time.time() - started
    report["machine"] = _machine(load_start)
    report["layers"] = json.loads((HERE / "layers.json").read_text())
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
