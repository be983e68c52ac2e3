"""Command-line front end.

Subcommands cover the whole workflow: verify tangent-structure axioms,
build charts for library scenarios, integrate and period-hunt named fields,
run the gravitational and oscillator demonstrations, and produce the
frequency-matched motion figure data.  Outputs are deterministic: JSON is
sorted, CSV floats carry 17 significant digits, and a run manifest echoes
the resolved options so a run can be reproduced byte for byte.

Exit codes: 0 success, 1 domain failure (a verification, construction,
periodicity, or matching claim fails), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import foscillator as fo
from . import kepler as kp
from . import motions as mo
from . import scenarios as sc
from .bundle import structure_sode_residual
from .dynamics import estimate_period, integrate, write_csv
from .errors import SodelabError
from .fields import Box, canonical_tangent_structure
from .geometry import verify_tangent_structure

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}") from exc


class _Run:
    """Collects outputs for one invocation and writes the manifest."""

    def __init__(self, command: str, opts: dict):
        self.command = command
        self.opts = opts
        out = opts.get("out")
        self.out_dir = Path(out) if out else None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []

    def emit_json(self, name: str, payload) -> None:
        text = _dump_json(payload)
        if self.out_dir is None:
            sys.stdout.write(text)
        else:
            (self.out_dir / name).write_text(text)
            self.outputs.append(name)

    def path(self, name: str) -> Path:
        if self.out_dir is None:
            raise _UsageError(f"{self.command} writes {name}: pass --out DIR")
        self.outputs.append(name)
        return self.out_dir / name

    def finish(self, code: int) -> int:
        if self.out_dir is not None:
            manifest = {
                "command": self.command,
                "options": {
                    k: v for k, v in sorted(self.opts.items()) if k != "out"
                },
                "outputs": sorted(self.outputs),
                "exit_code": code,
            }
            (self.out_dir / "run_manifest.json").write_text(_dump_json(manifest))
        return code


# ----------------------------------------------------------- option plumbing


_COMMON_DEFAULTS = {"seed": 0, "tol": None, "config": None, "out": None}

_DEFAULTS = {
    "verify": {"scenario": None, "samples": 500, "tol": 1e-8},
    "build": {"scenario": None, "samples": 500},
    "integrate": {
        "scenario": None,
        "state": None,
        "t_end": None,
        "rescaled": False,
        "tol": 1e-10,
        "csv_samples": 0,
    },
    "period": {
        "scenario": None,
        "state": None,
        "t_max": 1000.0,
        "rescaled": False,
        "tol": 1e-10,
    },
    "kepler-demo": {"energy": -0.5, "g": 1.0, "tol": 1e-6, "csv_samples": 512},
    "fosc-demo": {"profile": "kepler-match", "param": 1.0, "level": 0.5, "tol": 1e-3},
    "match": {
        "energies": "-0.5,-1,-2",
        "levels": None,
        "g": 1.0,
        "mode": "frequency",
        "tol": 1e-3,
        "csv_samples": 512,
        "radius_scale": 0.8,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sodelab",
        description="tangent-structure construction and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, command):
        tol = _DEFAULTS[command].get("tol")
        p.add_argument("--config", help="flat JSON file with option defaults")
        p.add_argument("--out", help="output directory (enables file outputs)")
        p.add_argument("--seed", type=int, help="sampling seed (default 0)")
        p.add_argument("--tol", type=float,
                       help=f"command tolerance (default {tol})")

    def hint(command, key):
        return f"(default {_DEFAULTS[command][key]})"

    p = sub.add_parser("verify", help="check tangent-structure axioms for a scenario")
    common(p, "verify")
    p.add_argument("--scenario", help="library scenario or flat-2 / flat-4")
    p.add_argument("--samples", type=int,
                   help=f"random sample count {hint('verify', 'samples')}")

    p = sub.add_parser("build", help="construct the chart for a library scenario")
    common(p, "build")
    p.add_argument("--scenario", help="library scenario name")
    p.add_argument("--samples", type=int,
                   help=f"domain sample count {hint('build', 'samples')}")

    p = sub.add_parser("integrate", help="integrate a named field and write CSV")
    common(p, "integrate")
    p.add_argument("--scenario", help="library scenario name")
    p.add_argument("--state", help="comma-separated initial state")
    p.add_argument("--t-end", dest="t_end", type=float, help="final time")
    p.add_argument("--rescaled", action="store_true", default=None,
                   help="use the factor-rescaled field of a rescaling scenario")
    p.add_argument("--csv-samples", dest="csv_samples", type=int,
                   help="uniform resample count; 0 keeps solver nodes (default 0)")

    p = sub.add_parser("period", help="estimate the period of a named field's orbit")
    common(p, "period")
    p.add_argument("--scenario", help="library scenario name")
    p.add_argument("--state", help="comma-separated initial state")
    p.add_argument("--t-max", dest="t_max", type=float,
                   help=f"give up after this much time {hint('period', 't_max')}")
    p.add_argument("--rescaled", action="store_true", default=None,
                   help="use the factor-rescaled field of a rescaling scenario")

    p = sub.add_parser("kepler-demo", help="projection and shell-clock cross-check")
    common(p, "kepler-demo")
    p.add_argument("--energy", type=float,
                   help=f"negative orbit energy {hint('kepler-demo', 'energy')}")
    p.add_argument("--g", type=float,
                   help=f"coupling constant {hint('kepler-demo', 'g')}")
    p.add_argument("--csv-samples", dest="csv_samples", type=int,
                   help=f"rows per trajectory CSV {hint('kepler-demo', 'csv_samples')}")

    p = sub.add_parser("fosc-demo", help="deformed-oscillator frequency check")
    common(p, "fosc-demo")
    p.add_argument("--profile", choices=("linear", "power", "kepler-match"),
                   help=f"energy reshaping profile {hint('fosc-demo', 'profile')}")
    p.add_argument("--param", type=float,
                   help=f"profile parameter: slope, exponent, or coupling "
                        f"{hint('fosc-demo', 'param')}")
    p.add_argument("--level", type=float,
                   help=f"energy level to run at {hint('fosc-demo', 'level')}")

    p = sub.add_parser("match", help="frequency-match shell and oscillator motions")
    common(p, "match")
    p.add_argument("--energies",
                   help=f"comma-separated negative energies "
                        f"{hint('match', 'energies')}")
    p.add_argument("--levels",
                   help="explicit oscillator levels (overrides the matched grid)")
    p.add_argument("--g", type=float, help=f"coupling constant {hint('match', 'g')}")
    p.add_argument("--mode", choices=("frequency", "energy"),
                   help=f"level-grid construction {hint('match', 'mode')}")
    p.add_argument("--csv-samples", dest="csv_samples", type=int,
                   help=f"samples per period in figure.csv "
                        f"{hint('match', 'csv_samples')}")
    p.add_argument("--radius-scale", dest="radius_scale", type=float,
                   help=f"start radius as a fraction of the circular one "
                        f"{hint('match', 'radius_scale')}")

    return parser


def _resolve(args: argparse.Namespace) -> dict:
    defaults = dict(_COMMON_DEFAULTS)
    defaults.update(_DEFAULTS[args.command])
    given = {
        k: v
        for k, v in vars(args).items()
        if k != "command" and v is not None
    }
    config = {}
    config_path = given.get("config", None)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise _UsageError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in defaults:
                raise _UsageError(
                    f"config key {key!r} is not an option of {args.command}"
                )
            config[key] = value
    resolved = dict(defaults)
    resolved.update(config)
    resolved.update(given)
    return resolved


def _require(opts: dict, key: str):
    value = opts.get(key)
    if value is None:
        raise _UsageError(f"missing required option --{key.replace('_', '-')}")
    return value


def _count(opts: dict, key: str, least: int) -> int:
    value = int(opts[key])
    if value < least:
        raise _UsageError(
            f"--{key.replace('_', '-')} must be at least {least}, got {value}"
        )
    return value


def _positive(opts: dict, key: str) -> float:
    value = float(_require(opts, key))
    if not value > 0.0:
        raise _UsageError(f"--{key.replace('_', '-')} must be positive, got {value}")
    return value


# ------------------------------------------------------------- field lookup


def _lookup_field(name: str, rescaled: bool):
    try:
        scenario = sc.get_sode_scenario(name)
        if rescaled:
            raise _UsageError(f"{name!r} is a construction scenario; --rescaled "
                              "only applies to rescaling scenarios")
        return scenario.ctx, scenario.field, scenario
    except KeyError:
        pass
    try:
        scenario = sc.get_conformal_scenario(name)
    except KeyError as exc:
        raise _UsageError(str(exc)) from exc
    field = scenario.field
    if rescaled:
        field = field.scaled(scenario.factor.expr)
    return scenario.ctx, field, scenario


def _initial_state(opts: dict, ctx, scenario) -> np.ndarray:
    text = opts.get("state")
    if text is None:
        default = getattr(scenario, "orbit_state", None)
        if default is None:
            raise _UsageError("missing required option --state")
        return np.asarray(default, dtype=float)
    values = _parse_floats(text)
    if len(values) != ctx.dim:
        raise _UsageError(
            f"state needs {ctx.dim} numbers for {', '.join(ctx.names)}; "
            f"got {len(values)}"
        )
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------- commands


def _cmd_verify(run: _Run, opts: dict) -> int:
    name = _require(opts, "scenario")
    seed = int(opts["seed"])
    samples = _count(opts, "samples", 0)
    tol = float(opts["tol"])
    flat = dict(sc.canonical_contexts())
    if name in flat:
        ctx = flat[name]
        s, delta = canonical_tangent_structure(ctx)
        system = fo.make_oscillator(ctx.dim // 2)
        report = verify_tangent_structure(
            s,
            delta,
            Box.cube(ctx, 2.0),
            field=system.field,
            seed=seed,
            n_random=samples,
            tol=tol,
        )
        payload = {"scenario": name, "report": report.to_json()}
        run.emit_json("verify.json", payload)
        return 0 if report.verdict == "pass" else 1

    scenario = sc.get_sode_scenario(name)
    structure = sc.build_scenario(scenario, seed=seed, n_random=samples)
    chart_box = Box.cube(structure.chart_ctx, 1.5)
    report = verify_tangent_structure(
        structure.s_hat,
        structure.delta_hat,
        chart_box,
        seed=seed,
        n_random=samples,
        tol=tol,
    )
    points = scenario.box.sample(seed=seed, n_random=min(samples, 200))
    sode = structure_sode_residual(structure, points)
    payload = {
        "scenario": name,
        "report": report.to_json(),
        "sode_residual": sode,
        "warnings": list(structure.warnings),
    }
    run.emit_json("verify.json", payload)
    return 0 if report.verdict == "pass" and sode < max(tol, 1e-6) else 1


def _cmd_build(run: _Run, opts: dict) -> int:
    name = _require(opts, "scenario")
    samples = _count(opts, "samples", 0)
    scenario = sc.get_sode_scenario(name)
    structure = sc.build_scenario(scenario, seed=int(opts["seed"]), n_random=samples)
    run.emit_json("structure.json", {"scenario": name, **structure.to_json()})
    return 0


def _cmd_integrate(run: _Run, opts: dict) -> int:
    name = _require(opts, "scenario")
    ctx, field, scenario = _lookup_field(name, bool(opts["rescaled"]))
    state = _initial_state(opts, ctx, scenario)
    t_end = _positive(opts, "t_end")
    csv_samples = _count(opts, "csv_samples", 0)
    tol = float(opts["tol"])
    traj = integrate(field.ode_rhs, state, t_end, rtol=tol, atol=tol * 1e-2)
    path = run.path("trajectory.csv")
    if csv_samples > 0 and traj.status == "completed":
        times = np.linspace(traj.times[0], traj.final_time, csv_samples)
        table = np.column_stack([times, traj.sample_many(times)])
        write_csv(path, ["t", *ctx.names], table)
    else:
        traj.write_csv(path, names=ctx.names)
    summary = {
        "scenario": name,
        "status": traj.status,
        "t_final": traj.final_time,
        "state_final": [float(v) for v in traj.final_state],
        "accepted": traj.accepted,
        "rejected": traj.rejected,
    }
    if traj.blow_up_bracket is not None:
        summary["blow_up_bracket"] = list(traj.blow_up_bracket)
    run.emit_json("integrate.json", summary)
    return 0 if traj.status == "completed" else 1


def _cmd_period(run: _Run, opts: dict) -> int:
    name = _require(opts, "scenario")
    ctx, field, scenario = _lookup_field(name, bool(opts["rescaled"]))
    state = _initial_state(opts, ctx, scenario)
    t_max = _positive(opts, "t_max")
    tol = float(opts["tol"])
    est = estimate_period(field.ode_rhs, state, rtol=tol, atol=tol * 1e-2, t_max=t_max)
    run.emit_json("period.json", {"scenario": name, **est.to_json()})
    return 0


def _cmd_kepler_demo(run: _Run, opts: dict) -> int:
    energy = float(opts["energy"])
    params = kp.KeplerParams(g=float(opts["g"]))
    tol = float(opts["tol"])
    samples = _count(opts, "csv_samples", 1)
    period = 2.0 * math.pi / kp.mean_motion(energy, params)

    unfolded = integrate(
        kp.unfolded_field(params).ode_rhs,
        kp.unfolded_circular_state(energy, params),
        period,
    )
    direct = integrate(
        kp.kepler3d_field(params).ode_rhs,
        kp.kepler3d_circular_state(energy, params),
        period,
    )
    times = np.linspace(0.0, period, samples)
    projected = np.array([kp.project_state(s) for s in unfolded.sample_many(times)])
    reference = direct.sample_many(times)
    gap = float(np.max(np.abs(projected[:, :3] - reference[:, :3])))

    header = ["t", *kp.THREE_CTX.names]
    for fname, table in (("projected.csv", projected), ("direct.csv", reference)):
        write_csv(run.path(fname), header, np.column_stack([times, table]))

    est = estimate_period(
        kp.chart_field(params).ode_rhs, kp.shell_representative(energy, params)
    )
    predicted = kp.shell_period(energy)
    rel = abs(est.period - predicted) / predicted
    payload = {
        "energy": energy,
        "g": params.g,
        "orbit_period": period,
        "max_position_gap": gap,
        "chart": {
            "measured_period": est.period,
            "predicted_period": predicted,
            "rel_error": rel,
        },
    }
    run.emit_json("kepler_demo.json", payload)
    return 0 if gap < tol and rel < 1e-3 else 1


def _profile_deformation(profile: str, param: float) -> fo.Deformation:
    if profile == "linear":
        return fo.linear_deformation(param)
    if profile == "power":
        return fo.power_deformation(param)
    if profile == "kepler-match":
        return fo.kepler_matching_deformation(param)
    raise _UsageError(f"unknown profile {profile!r}")


def _cmd_fosc_demo(run: _Run, opts: dict) -> int:
    deformation = _profile_deformation(str(opts["profile"]), float(opts["param"]))
    level = float(opts["level"])
    tol = float(opts["tol"])
    system = fo.make_oscillator(2)
    gamma = fo.deformed_field(system, deformation)
    est = estimate_period(gamma.ode_rhs, fo.shell_state(system, level))
    measured = 2.0 * math.pi / est.period
    predicted = deformation.slope_at(level)
    rel = abs(measured - predicted) / abs(predicted)
    points = system.domain().sample(seed=int(opts["seed"]), n_random=200)
    residual = fo.symplectic_residual(system, deformation, points)
    payload = {
        "profile": deformation.name,
        "level": level,
        "measured_omega": measured,
        "predicted_omega": predicted,
        "rel_error": rel,
        "symplectic_residual": residual,
    }
    run.emit_json("fosc_demo.json", payload)
    return 0 if rel < tol and residual < 1e-9 else 1


def _cmd_match(run: _Run, opts: dict) -> int:
    energies = _parse_floats(str(opts["energies"]))
    g = float(opts["g"])
    mode = str(opts["mode"])
    tol = float(opts["tol"])
    samples = _count(opts, "csv_samples", 0)
    params = kp.KeplerParams(g=g)
    if opts["levels"] is None:
        levels = mo.matched_oscillator_grid(energies, g=g, mode=mode)
    else:
        levels = tuple(_parse_floats(str(opts["levels"])))
    kepler_records = mo.extract_kepler_motions(
        energies, params, radius_scale=float(opts["radius_scale"])
    )
    system = fo.make_oscillator(2)
    deformation = fo.kepler_matching_deformation(g)
    oscillator_records = mo.extract_oscillator_motions(system, deformation, levels)
    matching = mo.match_motions(kepler_records, oscillator_records, tol=tol)

    closures = mo.write_figure_csv(
        run.path("figure.csv"),
        (*kepler_records, *oscillator_records),
        samples_per_period=samples,
    )
    payload = {
        **matching.to_json(),
        "energies": energies,
        "levels": list(levels),
        "closures": dict(sorted(closures.items())),
        "mode": mode,
    }
    run.emit_json("matching.json", payload)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "build": _cmd_build,
    "integrate": _cmd_integrate,
    "period": _cmd_period,
    "kepler-demo": _cmd_kepler_demo,
    "fosc-demo": _cmd_fosc_demo,
    "match": _cmd_match,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        opts = _resolve(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = _Run(args.command, opts)
    try:
        code = _COMMANDS[args.command](run, opts)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return run.finish(2)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return run.finish(2)
    except SodelabError as exc:
        run.emit_json(
            "error.json", {"error": type(exc).__name__, "message": str(exc)}
        )
        return run.finish(1)
    return run.finish(code)


if __name__ == "__main__":
    sys.exit(main())
