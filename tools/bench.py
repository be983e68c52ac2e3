"""Count and time the integration layers of one or more source trees.

Usage::

    python3 tools/bench.py --out BENCH.json [LABEL=PATH ...]

Each ``LABEL=PATH`` names a checkout whose ``src/`` is measured in Python
processes of its own (default: ``change=`` the checkout holding this script),
so two trees can be compared in one file.  Each case is measured in a
process of its own, so that no case runs on the allocator state another
case left behind.  Each tree gets ``_PROCESSES`` measuring processes per
case, started alternately in ABBA order (A B, B A, A B, ...), so that load
drift on a shared machine lands on both trees alike.  Twenty-three cases are run:

* ``chart_period``: ``integrate`` on the Kepler chart field over one period
  2*pi from the E = -0.5 shell representative, rtol 1e-10, atol 1e-12;
* ``chart_period_rtol_1e-11``: the same at rtol 1e-11, so that cores of
  different accuracy can also be compared at equal error, not only at equal
  rtol (both chart-period cases record ``end_gap``, the Euclidean distance
  of the end state from the start, which is the global error there);
* ``estimate_period``: ``estimate_period`` on the same field and start;
* ``rhs_chart_field``: ``_RHS_CALLS`` calls of the chart field's RHS at that
  start, as the integrator makes them: the stage function
  ``field.ode_rhs.stage_fn`` on plain floats;
* ``integrator_zero_rhs``: ``integrate`` on the zero field of dimension 8
  over [0, 1e6], so that its time per RHS call is the integrator's own work
  (its steps grow tenfold each, 13 of them);
* ``cli_match``: ``sodelab match`` on its default grid, into a temporary
  directory;
* ``cli_integrate_kepler_chart``: ``sodelab integrate --scenario
  kepler-chart`` from the state of the CLI period example over [0, 20];
* ``cli_integrate_dense``: ``sodelab integrate --scenario kepler-chart
  --state=0.73,0,0,0,0,0.93,0,0 --t-end 20 --csv-samples 4096``, into a
  temporary directory: a dense 4096-row ``trajectory.csv`` whose columns
  hold exact zeros and tiny exponents;
* ``sample_dense``: ``Trajectory.sample_many`` of the ``cli_integrate_dense``
  run at its 4096 evenly spaced times, the read that command makes: the run
  is integrated once, before the runs, and each run reads a fresh copy of it
  with no interpolant built yet, so every run builds the steps it reads.  It
  records ``interpolants``, the steps the read built, and ``nfev``, their
  RHS calls (3 each);
* ``cli_verify_kepler_chart``: ``sodelab verify --scenario kepler-chart``,
  into a temporary directory; it makes no ``integrate`` call, since the
  canonical structure of a chart holds by construction;
* ``cli_verify_oscillator_2``: ``sodelab verify --scenario oscillator-2``,
  the 4-dim chart verify that makes up most of the chart-certify
  benchmark workload, also without ``integrate`` calls;
* ``cli_verify_fosc_power_2``: ``sodelab verify --scenario fosc-power-2``,
  whose chart ranks a 2 x 2 fibre block at every sample point, as most
  sampled library charts do (kepler-chart ranks a 4 x 4 block, and
  oscillator-2's constant Jacobian is ranked at one point);
* ``lookup_construction``, ``lookup_rescaling`` and ``lookup_kepler_chart``:
  the scenario lookup of ``sodelab integrate`` (construction names first,
  then rescaling ones) for ``oscillator-2``, ``uniform-speedup`` and
  ``kepler-chart``, whose field is the unfolded field times its clock
  factor 2 |y|^2 (trees alone: the factor's sign is not sampled there);
* ``cli_build_kepler_chart``: ``sodelab build --scenario kepler-chart``,
  into a temporary directory;
* ``bracket_kepler_clock``: ``conformal.bracket_rescaling_residual`` of the
  ``kepler-clock`` field and factor against the probe field with components
  ``(next coordinate)^2 - (coordinate)``, over the scenario box's default
  sample (about 15k points): the batch backend on 8 large derived trees,
  compiled and evaluated in every run.  Each run looks the scenario up and
  builds the probe afresh, as a benchmark op does: a tree node keeps the
  derivatives taken of it, so runs that reused one field would find the
  brackets' derivatives already taken;
* ``substitute_print_bracket``: ``expr.substitute`` (each coordinate
  renamed to the next) and then ``expr.to_source`` on each component of the
  bracket of the rescaled ``kepler-clock`` field with the probe field above,
  bracketed with the probe once more: 8 trees over 3,965 tape entries, whose
  shared subtrees a walk meets many times over.  Each run builds the
  brackets afresh, and records ``chars``, the printed length of the renamed
  trees;
* ``parse_library_fields``: ``kepler.chart_field``, ``unfolded_field``,
  ``rescaled_field`` and ``kepler3d_field``, ``foscillator.make_oscillator(2)``
  and ``foscillator.kepler_matching_deformation(1.0)``, built afresh in each
  run: every formula of the paper's construction enters as text, so this is
  the parser at work on the library's own fields;
* ``sample_kepler_box``: ``kepler.unfolded_domain().sample(seed=0)``, the
  8-dim box draw (an 11-point grid on four axes, 500 seeded draws, the
  collision ball taken out) that chart building and verification repeat;
* ``build_library``: ``bundle.build`` of every buildable scenario, in
  process (``scenarios.structure_library``), with each scenario's default
  sample;
* ``build_coupled_fibres_7`` and ``build_coupled_fibres_8``:
  ``bundle.build`` on R^14 and R^16 of the field x_k' = x_(k+r) + 0.001 s^2
  for k <= r, s = x_(r+1) + ... + x_(2r) (r = 7 or 8), the other components
  0, over the plain coordinate base x_1..x_r in the cube [-1, 1]^(2r) with
  its default sample.  The fibre block I + 0.002 s J (J all ones) has no
  constant entry, so its 7 x 7 or 8 x 8 determinant is dense work at every
  point, on either side of the largest block whose determinant the rank
  screen takes by cofactors.

Each case builds its own expression trees and keeps none of them past its
end, so no case finds another's trees alive.  Nodes are interned and keep
the derivatives taken of them, so a case that did would run warm where a
cold op would not.  The four chart-field cases and ``sample_dense`` build
the field once, before their runs, which then share its compiled function;
every other case builds its trees afresh in each run.

Each case records deterministic counters summed over every ``integrate``
call it makes (RHS evaluations ``nfev``, ``accepted`` and ``rejected``
steps, ``runs``, and ``interpolants``, the built steps of the recorded
trajectories, each charged 3 RHS evaluations in ``nfev``; a case that makes
none records none).  They are totalled when the case ends, so interpolants
built by reads after ``integrate`` returns count too.
Each case that calls ``bundle.build`` also records ``builds``, the number
of calls, and ``svd_points``, the matrices handed to
``bundle._singular_values`` (the points whose rank a cheaper test did not
settle).  Each case records ``box_draws``, the calls to
``fields.Box.sample``, and ``box_points``, the rows they return (0 and 0
for a case that draws none), and ``codegen``, the calls to
``expr.compile_scalar`` (each generates one function), and ``batch_evals``, the calls to ``fields.vectorized_scalar``
(each builds one batch function, which a tree whose batch backend is
generated code also counts in ``codegen``).  Each ``cli_`` case records
``csv_bytes``, the size of the CSV files the command wrote (0 for one that
writes none).
Each case also records the median and spread of the wall time over all
timed runs of all the tree's processes for the case, ``_REPEAT`` per
process after one untimed run that also warms the compiled fields, and
beside them the same of the CPU time (``time.process_time``) of each timed
run, which time the process spends waiting for a shared CPU does not
inflate.  ``cpu_s_process_medians`` keeps each measuring process's own CPU
median, in run order: on a shared machine a whole process can run in a
slow or a fast phase, and a case whose process medians form two clusters
cannot show a small gain, since its pooled median depends on how many
processes of each tree landed in each phase.  The measuring processes run
with BLAS and OpenMP held to one thread (where the environment does not set
their thread counts), so that no idle thread pool's spinning counts as a
case's CPU time.  Wall and CPU times depend on the machine and its load;
the counters do not, and the script fails if they differ between two
processes of one tree.  Each case with RHS evaluations also gets
``us_per_fev``, its median wall time per RHS evaluation, and
``rhs_chart_field`` gets ``us_per_call``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
from functools import partial
from pathlib import Path

# each case is one single-threaded client: keep BLAS and OpenMP to one thread
# too, before numpy loads, so that every measuring process inherits it and
# no idle thread pool adds its spinning to a case's CPU time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve()
_REPEAT = 5  # timed runs per case and process
_PROCESSES = 3  # measuring processes per tree
_RHS_CALLS = 10_000  # calls per timed run of rhs_chart_field


def _rebind(name: str, original, wrapper) -> None:
    """Bind ``wrapper`` in place of ``original`` wherever ``sodelab`` bound ``name``."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("sodelab") and getattr(module, name, None) is original:
            setattr(module, name, wrapper)


def _counters():
    """Wrap ``integrate``, ``build`` and its SVD, the code generator and the
    batch builder wherever ``sodelab`` bound them, and ``Box.sample`` on its
    class.

    Returns ``(totals, reset)``.  ``totals()`` sums the counters of the runs
    made since the last ``reset()``, reading each trajectory's ``nfev`` and
    built steps only then: a tree that builds interpolants on read counts
    them, and their RHS calls, after ``integrate`` returns.
    """
    import sodelab.bundle as bundle
    import sodelab.cli  # noqa: F401  (binds the names patched below)
    import sodelab.dynamics as dynamics
    import sodelab.expr as expr
    import sodelab.fields as fields

    original = dynamics.integrate
    runs: list = []
    charts = Counter()
    draws = Counter(box_draws=0, box_points=0)
    built_code = Counter(codegen=0, batch_evals=0)

    def counted(counter, builder):
        def wrapper(*args, **kwargs):
            built_code[counter] += 1
            return builder(*args, **kwargs)

        return wrapper

    _rebind("compile_scalar", expr.compile_scalar, counted("codegen", expr.compile_scalar))
    _rebind("vectorized_scalar", fields.vectorized_scalar,
            counted("batch_evals", fields.vectorized_scalar))

    def integrate(*args, **kwargs):
        traj = original(*args, **kwargs)
        runs.append(traj)
        return traj

    _rebind("integrate", original, integrate)

    original_build, singular_values = bundle.build, bundle._singular_values

    def build(*args, **kwargs):
        charts["builds"] += 1
        return original_build(*args, **kwargs)

    def counted_singular_values(jac):
        charts["svd_points"] += len(jac)
        return singular_values(jac)

    _rebind("build", original_build, build)
    bundle._singular_values = counted_singular_values

    original_sample = fields.Box.sample

    def sample(self, *args, **kwargs):
        points = original_sample(self, *args, **kwargs)
        draws["box_draws"] += 1
        draws["box_points"] += len(points)
        return points

    fields.Box.sample = sample

    def totals() -> dict:
        counts = {"svd_points": 0, **charts} if charts else {}
        counts.update(draws)
        counts.update(built_code)
        if not runs:
            return counts
        return {
            **counts,
            "runs": len(runs),
            "nfev": sum(traj.nfev for traj in runs),
            "accepted": sum(traj.accepted for traj in runs),
            "rejected": sum(traj.rejected for traj in runs),
            "interpolants": sum(
                not callable(step) for traj in runs for step in traj._steps
            ),
        }

    def reset() -> None:
        runs.clear()
        charts.clear()
        for counter in (draws, built_code):
            for key in counter:
                counter[key] = 0

    return totals, reset


def _cases():
    """Each case's setup by name: a call builds the case's expression trees
    and returns the case's run, which holds them for as long as it lives."""
    import numpy as np
    from sodelab import bundle, conformal, kepler
    from sodelab import foscillator as fo
    from sodelab import scenarios as sc
    from sodelab.cli import _scenario, main
    from sodelab.dynamics import estimate_period, integrate
    from sodelab.expr import Var, VariableContext, parse, qv_context, substitute, to_source
    from sodelab.fields import Box, VectorField
    from sodelab.geometry import lie_bracket

    def chart_start():
        """The Kepler chart field, built afresh, and the E = -0.5 shell start."""
        return kepler.chart_field(), kepler.shell_representative(-0.5)

    def chart_period(rtol):
        field, x0 = chart_start()

        def run():
            traj = integrate(field.ode_rhs, x0, 2.0 * math.pi, rtol=rtol, atol=1e-12)
            return {"end_gap": float(np.linalg.norm(traj.final_state - x0))}

        return run

    def period():
        field, x0 = chart_start()

        def run():
            estimate_period(field.ode_rhs, x0)

        return run

    def sample_dense():
        _, scenario = _scenario("kepler-chart", "construction", "rescaling")
        traj = integrate(
            scenario.field.ode_rhs, [0.73, 0, 0, 0, 0, 0.93, 0, 0], 20.0,
            rtol=1e-10, atol=1e-12,
        )
        times = np.linspace(traj.times[0], traj.final_time, 4096)
        unbuilt = list(traj._steps)

        def run():
            fresh = dataclasses.replace(traj, _steps=list(unbuilt))
            fresh.sample_many(times)
            built = sum(not callable(step) for step in fresh._steps)
            return {"interpolants": built, "nfev": 3 * built}

        return run

    def zero_rhs():
        zero = VectorField(qv_context(4), (0.0,) * 8)

        def run():
            integrate(zero.ode_rhs, np.ones(8), 1e6)

        return run

    def rhs_calls():
        field, x0 = chart_start()
        stage = field.ode_rhs.stage_fn
        coords = x0.tolist()

        def run():
            for _ in range(_RHS_CALLS):
                stage(0.0, *coords)
            return {"calls": _RHS_CALLS}

        return run

    def clock_and_probe():
        """The kepler-clock scenario, looked up afresh, and the probe field."""
        clock = sc.get_conformal_scenario("kepler-clock")
        names = clock.ctx.names
        return clock, VectorField(clock.ctx, tuple(
            parse(f"{names[(i + 1) % len(names)]}^2 - {name}", clock.ctx)
            for i, name in enumerate(names)
        ))

    def bracket():
        clock_points = sc.get_conformal_scenario("kepler-clock").box.sample()

        def run():
            clock, probe = clock_and_probe()
            conformal.bracket_rescaling_residual(
                clock.field, clock.factor, probe, clock_points
            )
            return {"points": len(clock_points)}

        return run

    def substitute_print_bracket():
        clock, probe = clock_and_probe()
        names = clock.ctx.names
        bracket = lie_bracket(lie_bracket(clock.field.scaled(clock.factor.expr), probe), probe)
        renamed = {name: Var(names[(i + 1) % len(names)]) for i, name in enumerate(names)}
        texts = [to_source(substitute(e, renamed)) for e in bracket.components]
        return {"chars": sum(map(len, texts))}

    def parse_library_fields():
        for build in (kepler.chart_field, kepler.unfolded_field, kepler.rescaled_field,
                      kepler.kepler3d_field, partial(fo.make_oscillator, 2),
                      partial(fo.kepler_matching_deformation, 1.0)):
            build()

    def sample_kepler_box():
        kepler.unfolded_domain().sample(seed=0)

    def build_library():
        return {"structures": len(sc.structure_library())}

    def build_coupled_fibres(rows):
        ctx = VariableContext.of(*(f"x{k}" for k in range(1, 2 * rows + 1)))
        fibre = ctx.names[rows:]
        total = " + ".join(fibre)
        field = VectorField(ctx, tuple(
            parse(f"{x} + 0.001 * ({total})^2", ctx) for x in fibre
        ) + (0.0,) * rows)
        bundle.build(field, ctx.names[:rows], Box.cube(ctx, 1.0))

    def lookup(name):
        _scenario(name, "construction", "rescaling")

    def cli(*argv):
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", out])
            csv_bytes = sum(path.stat().st_size for path in Path(out).rglob("*.csv"))
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")
        return {"csv_bytes": csv_bytes}

    def plain(fn, *args):
        """The setup of a case that builds all its trees in each run."""
        return lambda: lambda: fn(*args)

    return {
        "chart_period": lambda: chart_period(1e-10),
        "chart_period_rtol_1e-11": lambda: chart_period(1e-11),
        "estimate_period": period,
        "rhs_chart_field": rhs_calls,
        "integrator_zero_rhs": zero_rhs,
        "cli_match": plain(cli, "match"),
        "cli_integrate_kepler_chart": plain(
            cli, "integrate", "--scenario", "kepler-chart", "--state", "1,0,0,0,0,0.5,0,0",
            "--t-end", "20",
        ),
        "cli_integrate_dense": plain(
            cli, "integrate", "--scenario", "kepler-chart", "--state=0.73,0,0,0,0,0.93,0,0",
            "--t-end", "20", "--csv-samples", "4096",
        ),
        "sample_dense": sample_dense,
        "cli_verify_kepler_chart": plain(cli, "verify", "--scenario", "kepler-chart"),
        "cli_verify_oscillator_2": plain(cli, "verify", "--scenario", "oscillator-2"),
        "cli_verify_fosc_power_2": plain(cli, "verify", "--scenario", "fosc-power-2"),
        "lookup_construction": plain(lookup, "oscillator-2"),
        "lookup_rescaling": plain(lookup, "uniform-speedup"),
        "lookup_kepler_chart": plain(lookup, "kepler-chart"),
        "cli_build_kepler_chart": plain(cli, "build", "--scenario", "kepler-chart"),
        "bracket_kepler_clock": bracket,
        "substitute_print_bracket": plain(substitute_print_bracket),
        "parse_library_fields": plain(parse_library_fields),
        "sample_kepler_box": plain(sample_kepler_box),
        "build_library": plain(build_library),
        "build_coupled_fibres_7": plain(build_coupled_fibres, 7),
        "build_coupled_fibres_8": plain(build_coupled_fibres, 8),
    }


def _measure_case(setup, totals, reset) -> dict:
    """One case's counters and timed wall and CPU times; its trees die on return."""
    run = setup()
    reset()
    extra = run() or {}
    counters = dict(sorted({**totals(), **extra}.items()))
    walls, cpus = [], []
    for _ in range(_REPEAT):
        start, cpu_start = time.perf_counter(), time.process_time()
        run()
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu_start)
        reset()
    return {"counters": counters, "walls": walls, "cpus": cpus}


def measure(name: str) -> dict:
    """The counters and timed wall and CPU times of one case, for the imported tree."""
    totals, reset = _counters()
    return _measure_case(_cases()[name], totals, reset)


def _run_script(path: Path, *argv: str):
    """Run this script on the ``src/`` of ``path``; its stdout, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(path / "src")}
    out = subprocess.run(
        [sys.executable, str(HERE), *argv],
        env=env, cwd=path, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def _measure_trees(trees: dict[str, Path]) -> dict:
    """Run each case's processes in ABBA order over the trees; merge each
    tree's timed runs of the case."""
    order = list(trees)
    report: dict[str, dict] = {label: {} for label in trees}
    for case in _run_script(trees[order[0]], "--cases"):
        runs: dict[str, list[dict]] = {label: [] for label in trees}
        for k in range(_PROCESSES):
            for label in order if k % 2 == 0 else order[::-1]:
                runs[label].append(_run_script(trees[label], "--measure", case))
        for label, results in runs.items():
            first = results[0]
            for other in results[1:]:
                if other["counters"] != first["counters"]:
                    raise RuntimeError(
                        f"{label}: counters of {case} differ between processes: "
                        f"{first['counters']} vs {other['counters']}"
                    )
            counters = first["counters"]
            entry = report[label][case] = dict(counters)
            for key, clock in (("walls", "wall"), ("cpus", "cpu")):
                times = [t for result in results for t in result[key]]
                entry[f"{clock}_s_median"] = statistics.median(times)
                entry[f"{clock}_s_min"] = min(times)
                entry[f"{clock}_s_max"] = max(times)
            entry["cpu_s_process_medians"] = [
                statistics.median(result["cpus"]) for result in results
            ]
            for count, key in (("nfev", "us_per_fev"), ("calls", "us_per_call")):
                if counters.get(count):
                    entry[key] = entry["wall_s_median"] / counters[count] * 1e6
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="LABEL=PATH")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--cases", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure", metavar="CASE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cases:
        print(json.dumps(list(_cases())))
        return 0
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    trees = {}
    for spec in args.trees or [f"change={HERE.parents[1]}"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            parser.error(f"expected LABEL=PATH, got {spec!r}")
        trees[label] = Path(path).resolve()
    report = {
        "machine": {
            "python": platform.python_version(),
            "arch": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "repeat": _REPEAT,
        "processes": _PROCESSES,
        "trees": _measure_trees(trees),
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
