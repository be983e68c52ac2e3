"""sodelab benchmark: one closed-loop client, one process, no threads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload shell-match --seed 1 --seconds 30 --trace 0

Each op is one call into sodelab's public entry points (mostly
``sodelab.cli.main(argv)`` in-process); the next op starts when the previous
one returns.  Ops run in whole rounds (see ``workloads.py``); the run stops at
the round boundary nearest to ``--seconds`` of summed op wall time, and each
op's output is checked against its oracle outside the timed region.

``--trace 0`` prints the end-to-end metrics.  Their times are CPU times of
the benchmark process (``time.process_time`` plus reaped children), scaled to
a reference machine speed.  One client runs each op in-process on one thread,
so an op's CPU time is its latency less the time the host gave the vCPU to
other tenants, which the guest kernel accounts as steal and leaves out.  The
scaling divides out the drift of the vCPU's own speed, measured by a fixed
calibration loop interleaved with the ops (see ``speed.py``).  The raw
wall-clock and CPU figures, and the scale factor, are printed beside them as
``#`` lines.  ``--trace 1`` runs each op of
the first round twice, untraced and then with the layer boundaries wrapped
(see ``tracing.py``), and prints the per-layer metrics plus the tracing
overhead.
A traced run always covers one whole round, whatever ``--seconds`` says, so
its counts repeat exactly for a given seed.  Spans and the op list are
written under ``.perfbench_run/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark imports
sodelab from ``src/`` of the checkout it sits in, and exits 2 without a
result when that source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# the load model is one single-threaded client; keep BLAS to one thread too
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 7
# speed samples after each set-up process, per CPU second it took
SETUP_CAL_SHARE = 0.25
PROBE_TIMEOUT_S = 60

def _import_sodelab():
    """Import sodelab from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sodelab
    except ImportError as exc:
        print(f"perfbench: cannot import sodelab from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(sodelab.__file__).resolve().parents:
        print(f"perfbench: sodelab came from {sodelab.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many ops (smoke runs)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _setup(workload_name: str, seed: int):
    """Import sodelab, build the scenario registry, generate the first round."""
    _import_sodelab()
    from sodelab import scenarios as sc

    import workloads

    if workload_name not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {workload_name!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        sys.exit(2)
    sc.sode_scenarios()
    sc.conformal_scenarios()
    workload = workloads.WORKLOADS[workload_name]()
    first_round = workload.round(seed, 0)
    return workloads, workload, first_round


def _cpu_s() -> float:
    """CPU seconds of this process, its threads and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _measure_setup(args, probe) -> tuple[list[float], list[float]]:
    """CPU and wall time of fresh processes from spawn until set-up is done.

    ``probe`` measures the machine's speed after each process.
    """
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        word, _, probe_cpu = line.partition(" ")
        if word != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        cpu.append(float(probe_cpu))
        wall.append(elapsed)
        probe.calibrate(SETUP_CAL_SHARE * cpu[-1])
    return cpu, wall


def _rounds(workload, seed: int, first_round: list[dict]):
    """The rounds of the run, in order; round 0 was generated during set-up."""
    yield first_round
    r = 1
    while True:
        yield workload.round(seed, r)
        r += 1


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _run_one(workloads, workload, op_id: int, op: dict, out: Path, tracer=None,
             probe=None):
    """Run and check one op; returns (CPU s, ok, output bytes, wall s).

    The times leave out what ``probe``'s speed samples took during the op.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = None
    error = None
    sampled = (probe.spent_s, probe.spent_wall_s) if probe else (0.0, 0.0)
    start = time.perf_counter()
    cpu_start = _cpu_s()
    try:
        if tracer is None:
            result = workload.run(op, out)
        else:
            tracer.active = True
            try:
                result = tracer.run_op(op_id, workload.run, op, out)
            finally:
                tracer.active = False
    except Exception:  # an op that raises is a failed op, and the run goes on
        error = traceback.format_exc(limit=3)
    cpu = _cpu_s() - cpu_start
    elapsed = time.perf_counter() - start
    if probe is not None:
        cpu -= probe.spent_s - sampled[0]
        elapsed -= probe.spent_wall_s - sampled[1]
    if error is None:
        try:
            workload.check(op, result, out)
        except workloads.OpFailed as exc:
            error = str(exc)
        except Exception:
            error = traceback.format_exc(limit=3)
    if error is not None:
        print(f"perfbench: op {op_id} failed: {json.dumps(op)}\n  {error}",
              file=sys.stderr)
    return cpu, error is None, _output_bytes(out), elapsed


def _tail(latencies_ms: list[float], q: float) -> float:
    """The q-th percentile (nearest rank); the median when q is 50."""
    ordered = sorted(latencies_ms)
    if q == 50.0:
        return statistics.median(ordered)
    return ordered[math.ceil(q / 100.0 * len(ordered)) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _record_ops(args, ops: list[dict]) -> None:
    record = {"workload": args.workload, "seed": args.seed, "ops": ops}
    (RUN_DIR / f"{args.workload}-seed{args.seed}-ops.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(record))


def _timed_run(args, workloads, workload, first_round) -> None:
    import speed

    setup_probe = speed.SpeedProbe()
    setup_cpu, setup_wall = _measure_setup(args, setup_probe)
    op_probe = speed.SpeedProbe()
    out = RUN_DIR / f"out-{os.getpid()}"
    cpu_ms, wall_ms, spans = [], [], []
    ok = 0
    timed = 0.0
    done = []
    op_id = 0
    rounds = 0
    # whole rounds only, so every run measures the same input mix; stop at
    # the round boundary nearest to --seconds, so the run length does not
    # jump by a whole round when the machine's speed drifts
    with op_probe:
        for ops in _rounds(workload, args.seed, first_round):
            if rounds and timed + 0.5 * timed / rounds >= args.seconds:
                break
            if args.max_ops and op_id >= args.max_ops:
                break
            for op in ops[: args.max_ops - op_id if args.max_ops else None]:
                began = time.perf_counter()
                cpu, good, _, elapsed = _run_one(workloads, workload, op_id, op, out,
                                                 probe=op_probe)
                spans.append((began, time.perf_counter()))
                op_id += 1
                timed += elapsed
                cpu_ms.append(cpu * 1e3)
                wall_ms.append(elapsed * 1e3)
                ok += good
                done.append({**op, "ms": elapsed * 1e3, "cpu_ms": cpu * 1e3, "ok": good})
            rounds += 1
    shutil.rmtree(out, ignore_errors=True)
    attempted = len(cpu_ms)
    failed = attempted - ok
    # the percentile is fixed per workload, not chosen from the run's op
    # count, so that every run reports the same percentile
    q = workload.tail_q
    cpu_s = sum(cpu_ms) / 1e3
    ref_ms = [ms * op_probe.factor(*span) for ms, span in zip(cpu_ms, spans)]
    for record, ms in zip(done, ref_ms):
        record["ref_ms"] = ms
    setup_scale = setup_probe.factor()
    metrics = {
        "setup_s": (statistics.median(setup_cpu) * setup_scale, "s"),
        "ops_per_ref_s": (ok / (sum(ref_ms) / 1e3), "ops/s"),
        "op_ref_ms.p50": (statistics.median(ref_ms), "ms"),
        "op_ref_ms.tail": (_tail(ref_ms, q), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    raw = {
        "speed.scale": (op_probe.factor(), "ratio"),
        "speed.setup_scale": (setup_scale, "ratio"),
        "setup_cpu_s": (statistics.median(setup_cpu), "s"),
        "setup_wall_s": (statistics.median(setup_wall), "s"),
        "ops_per_cpu_s": (ok / cpu_s, "ops/s"),
        "op_cpu_ms.p50": (statistics.median(cpu_ms), "ms"),
        "op_cpu_ms.tail": (_tail(cpu_ms, q), "ms"),
        "ops_per_s": (ok / timed, "ops/s"),
        "op_ms.p50": (statistics.median(wall_ms), "ms"),
        "op_ms.tail": (_tail(wall_ms, q), "ms"),
    }
    _record_ops(args, done)
    beyond = attempted - math.ceil(q / 100.0 * attempted)
    print(f"# {args.workload} seed={args.seed}: {attempted} ops in {rounds} rounds, "
          f"{timed:.3f} s wall and {cpu_s:.3f} s CPU of op time "
          f"(closed loop, 1 client, 1 process); {len(op_probe.cpu)} speed samples "
          f"of {op_probe.chunk_s() * 1e3:.4g} ms CPU each")
    for name, (value, unit) in {**metrics, **raw}.items():
        note = (f"  (p{q:g} of {attempted} ops, {beyond} beyond)"
                if name.endswith("ms.tail") else "")
        print(f"# {name} = {value:.6g} {unit}{note}")
    print(f"# fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    _print_result(failed == 0, attempted, failed, metrics)


def _traced_run(args, workloads, workload, first_round) -> None:
    import tracing

    ops = first_round[: args.max_ops] if args.max_ops else first_round
    out = RUN_DIR / f"out-{os.getpid()}"
    tracer = tracing.Tracer()
    plain, traced = [], []
    # each op runs untraced, then traced, so slow drift of the machine's
    # speed cancels out of the overhead
    for i, op in enumerate(ops):
        plain.append(_run_one(workloads, workload, i, op, out))
        tracing.install(tracer)
        traced.append(_run_one(workloads, workload, i, op, out, tracer))
        tracer.uninstall()
    shutil.rmtree(out, ignore_errors=True)

    plain_s = sum(r[3] for r in plain)
    traced_s = sum(r[3] for r in traced)
    values = tracing.layer_metrics(tracer)
    values["cli.out_bytes"] = float(sum(r[2] for r in traced))
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    attempted = len(plain) + len(traced)
    failed = sum(not r[1] for r in plain + traced)
    tracer.write(
        RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
        {"workload": args.workload, "seed": args.seed, "ops": ops,
         "untraced_s": plain_s, "traced_s": traced_s},
    )
    _record_ops(args, ops)
    print(f"# {args.workload} seed={args.seed}: traced {len(ops)} ops, "
          f"{traced_s:.3f} s traced vs {plain_s:.3f} s untraced, "
          f"{len(tracer.spans)} spans")
    metrics = {name: (value, tracing.unit_of(name)) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    _print_result(failed == 0, attempted, failed, metrics)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print(f"ready {_cpu_s()!r}", flush=True)
        return 0
    workloads, workload, first_round = _setup(args.workload, args.seed)
    RUN_DIR.mkdir(exist_ok=True)
    if args.trace:
        _traced_run(args, workloads, workload, first_round)
    else:
        _timed_run(args, workloads, workload, first_round)
    return 0


if __name__ == "__main__":
    sys.exit(main())
