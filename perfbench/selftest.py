"""Self-test for the benchmark; exits 0 when every check holds.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It runs a minimum-size smoke pass of each workload and checks that every
end-to-end metric named in ``BENCHMARK.json`` prints with its unit (plus the
``fail_frac`` line), that two traced runs with the same seed repeat their
deterministic counts exactly, and that the benchmark exits non-zero without
a result when the sodelab source is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SMOKE_OPS = {"shell-match": 1, "chart-certify": 4, "orbit-dense": 4}
REPEATING = (
    "fields.rhs.n",
    "dynamics.steps.accepted",
    "dynamics.steps.rejected",
    "expr.compile.n",
    "fields.jacobian_at.n",
    "cli.out_bytes",
)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{what}: {result['failed']} of "
                             f"{result['attempted']} ops failed")
    return result


def _check_metrics(result: dict, declared: list[dict], what: str) -> None:
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise AssertionError(f"{what}: {metric['name']} missing or has unit "
                                 f"{got and got['unit']!r}, not {metric['unit']!r}")
        if not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            raise AssertionError(f"{what}: {metric['name']} = {got['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # rejected steps are legitimately zero on these inputs
    seen_positive = {name: False for name in REPEATING if "rejected" not in name}
    for workload in SMOKE_OPS:
        ops = str(SMOKE_OPS[workload])
        common = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--max-ops", ops]
        smoke = _run(ROOT, *common, "--trace", "0")
        _check_metrics(_result(smoke, f"{workload} smoke"), spec["end_to_end"], workload)
        if "# fail_frac = 0 ratio" not in smoke.stdout:
            raise AssertionError(f"{workload}: no fail_frac line with its unit")

        first, second = (
            _result(_run(ROOT, *common, "--trace", "1"), f"{workload} traced")
            for _ in range(2)
        )
        _check_metrics(first, spec["per_layer"], f"{workload} traced")
        for name in REPEATING:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                raise AssertionError(f"{workload}: {name} read {a} then {b}")
            if name in seen_positive:
                seen_positive[name] |= a > 0
        print(f"ok {workload}", flush=True)

    silent = [name for name, seen in seen_positive.items() if not seen]
    if silent:
        raise AssertionError(f"counts never above zero: {silent}")

    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "orbit-dense", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("without src/ the benchmark must fail without a result")
    print("ok missing-source run exits", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
