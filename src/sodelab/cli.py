"""Command-line front end.

Subcommands cover the whole workflow: verify tangent-structure axioms,
build charts for library scenarios, integrate and period-hunt named fields,
run the gravitational and oscillator demonstrations, and produce the
frequency-matched motion figure data.  Outputs are deterministic: JSON is
sorted, CSV floats carry 17 significant digits, and a run manifest echoes
the resolved options so a run can be reproduced byte for byte.

Each option is declared once, in ``_OPTIONS``: its kind, its help, the
commands that take it with their defaults, and the range of its values.
Flag text and ``--config`` values pass the same parse-and-range check, so a
bad value from either is a usage error with one ``error: --<flag>`` line and,
under ``--out``, a manifest.  So is a config file that cannot be read or that
holds an unknown key; that manifest echoes the defaults and flags alone.

Exit codes: 0 success, 1 domain failure (a verification, construction,
periodicity, or matching claim fails, or a ``kepler-demo`` orbit does not
complete), 2 usage or configuration errors, among them a start state the
integrator refuses, which names the options it was derived from.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import foscillator as fo
from . import kepler as kp
from . import motions as mo
from . import scenarios as sc
from .bundle import structure_sode_residual
from .dynamics import estimate_period, integrate, write_csv
from .errors import SodelabError
from .fields import Box, canonical_tangent_structure, evaluate_on
from .geometry import verify_tangent_structure

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _Run:
    """Collects outputs for one invocation and writes the manifest."""

    def __init__(self, command: str, opts: dict):
        self.command = command
        self.opts = opts
        out = opts["out"]
        # A non-text ``out`` fails the option check; until then, no directory.
        self.out_dir = Path(out) if out and isinstance(out, str) else None
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


# ------------------------------------------------------------- option table


class _Kind(NamedTuple):
    """What an option holds: ``parse`` turns a flag's text or a config value
    into it, raising ``TypeError``/``ValueError`` on anything else."""

    noun: str
    parse: Callable


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _as_text(raw) -> str:
    """A flag's text, or a JSON config number written the way a flag is."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise TypeError(raw)
    return str(raw)


def _real(raw) -> float:
    value = float(_as_text(raw))
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _reals(raw) -> str:
    """Comma-separated finite numbers; the text itself is kept for the manifest."""
    if not isinstance(raw, str) or not all(map(math.isfinite, _floats(raw))):
        raise ValueError(raw)
    return raw


def _exactly(cls):
    def parse(raw):
        if not isinstance(raw, cls):
            raise TypeError(raw)
        return raw

    return parse


_REAL = _Kind("a finite number", _real)
_INT = _Kind("an integer", lambda raw: int(_as_text(raw)))
_REALS = _Kind("comma-separated finite numbers", _reals)
_TEXT = _Kind("text", _exactly(str))
_FLAG = _Kind("true or false", _exactly(bool))

_POSITIVE = (lambda v: v > 0, "must be > 0")
_NEGATIVE = (lambda v: v < 0, "must be < 0")
_COUNT = (lambda v: v >= 0, "must be >= 0")

_PROFILES = {
    "linear": fo.linear_deformation,
    "power": fo.power_deformation,
    "kepler-match": fo.kepler_matching_deformation,
}


class _Option(NamedTuple):
    """One option: its kind, help, the commands that take it with their
    defaults, and the ``(holds, phrase)`` range of its values (of each entry
    for a list)."""

    name: str
    kind: _Kind
    help: str
    defaults: dict
    rule: tuple | None = None


_ALL = ("verify", "build", "integrate", "period", "kepler-demo", "fosc-demo", "match")

_OPTIONS = (
    _Option("config", _TEXT, "flat JSON file with option defaults",
            dict.fromkeys(_ALL)),
    _Option("out", _TEXT, "output directory (enables file outputs)",
            dict.fromkeys(_ALL)),
    _Option("scenario", _TEXT, "scenario name (see README)",
            dict.fromkeys(("verify", "build", "integrate", "period"))),
    _Option("seed", _INT, "sampling seed",
            {"verify": 0, "build": 0, "fosc-demo": 0}, _COUNT),
    _Option("samples", _INT, "random sample count",
            {"verify": 500, "build": 500}, _COUNT),
    _Option("tol", _REAL, "command tolerance",
            {"verify": 1e-8, "kepler-demo": 1e-6, "fosc-demo": 1e-3, "match": 1e-3},
            _POSITIVE),
    # the integrator's atol is tol * 1e-2, which must not underflow to 0
    _Option("tol", _REAL, "command tolerance", {"integrate": 1e-10, "period": 1e-10},
            (lambda v: v * 1e-2 > 0, "must be > 0, and so must tol * 1e-2")),
    _Option("state", _REALS, "comma-separated initial state",
            {"integrate": None, "period": None}),
    _Option("t_end", _REAL, "final time", {"integrate": None}, _POSITIVE),
    _Option("t_max", _REAL, "give up after this much time",
            {"period": 1000.0}, _POSITIVE),
    _Option("rescaled", _FLAG, "use the factor-rescaled field of a rescaling scenario",
            {"integrate": False, "period": False}),
    # a resample of one point keeps only the start of the run
    _Option("csv_samples", _INT, "integrate: uniform resample count, 0 keeps "
            "solver nodes; match: samples per period",
            {"integrate": 0, "match": 512},
            (lambda v: v == 0 or v >= 2, "must be 0 or >= 2")),
    _Option("csv_samples", _INT, "rows per trajectory CSV",
            {"kepler-demo": 512}, (lambda v: v >= 2, "must be >= 2")),
    _Option("energy", _REAL, "orbit energy", {"kepler-demo": -0.5}, _NEGATIVE),
    _Option("g", _REAL, "coupling constant",
            {"kepler-demo": 1.0, "match": 1.0}, _POSITIVE),
    _Option("profile", _TEXT, "energy reshaping profile: linear, power or "
            "kepler-match", {"fosc-demo": "kepler-match"},
            (_PROFILES.__contains__, "must be linear, power or kepler-match")),
    _Option("param", _REAL, "profile parameter: slope, exponent, or coupling",
            {"fosc-demo": 1.0}, _POSITIVE),
    _Option("level", _REAL, "energy level to run at", {"fosc-demo": 0.5}, _POSITIVE),
    _Option("energies", _REALS, "comma-separated orbit energies",
            {"match": "-0.5,-1,-2"}, _NEGATIVE),
    _Option("levels", _REALS, "explicit oscillator levels (overrides the matched "
            "grid)", {"match": None}, _POSITIVE),
    _Option("mode", _TEXT, "level-grid construction: frequency or energy",
            {"match": "frequency"},
            (("frequency", "energy").__contains__, "must be frequency or energy")),
    _Option("radius_scale", _REAL, "start radius as a fraction of the circular one",
            {"match": 0.8}, (lambda v: 0 < v < math.sqrt(2), "must lie in (0, sqrt(2))")),
)

_OPTIONS_OF = {
    command: {opt.name: opt for opt in _OPTIONS if command in opt.defaults}
    for command in _ALL
}


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sodelab",
        description="tangent-structure construction and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for opt in _OPTIONS_OF[command].values():
            default = opt.defaults[command]
            shown = default is not None and opt.kind is not _FLAG
            text = f"{opt.help} (default {default})" if shown else opt.help
            action = "store_true" if opt.kind is _FLAG else "store"
            p.add_argument(_flag_name(opt.name), dest=opt.name, help=text,
                           action=action, default=None)
    return parser


def _resolve(args: argparse.Namespace, *, use_config: bool = True) -> dict:
    """Defaults, then ``--config`` values, then flags, still unchecked."""
    options = _OPTIONS_OF[args.command]
    opts = {key: opt.defaults[args.command] for key, opt in options.items()}
    if use_config and args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise _UsageError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in opts:
                raise _UsageError(
                    f"config key {key!r} is not an option of {args.command}"
                )
            opts[key] = value
    opts.update((k, v) for k, v in vars(args).items() if k in opts and v is not None)
    return opts


def _check(command: str, opts: dict) -> None:
    """Parse every set value in place, then hold each to its range.

    Two passes, so the manifest of a range failure echoes parsed values.
    """
    options = _OPTIONS_OF[command]
    for key, raw in opts.items():
        kind = options[key].kind
        if raw is not None:
            try:
                opts[key] = kind.parse(raw)
            except (TypeError, ValueError):
                raise _UsageError(
                    f"{_flag_name(key)} expects {kind.noun}, got {raw!r}"
                ) from None
    for key, value in opts.items():
        opt = options[key]
        if value is None or opt.rule is None:
            continue
        holds, phrase = opt.rule
        entries = _floats(value) if opt.kind is _REALS else (value,)
        for entry in entries:
            if not holds(entry):
                raise _UsageError(f"{_flag_name(key)} {phrase}, got {entry!r}")


@contextlib.contextmanager
def _refused(options: str):
    """Turn a start state the integrator refuses (ValueError), or an orbit time
    out of float range (ArithmeticError), into a usage error naming ``options``."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise _UsageError(f"{options}: {exc}") from exc


def _require(opts: dict, key: str):
    value = opts.get(key)
    if value is None:
        raise _UsageError(f"missing required option {_flag_name(key)}")
    return value


# ------------------------------------------------------------ scenario lookup


def _scenario(name: str, *kinds: str):
    """``(kind, scenario)`` for the first of ``kinds`` whose rows hold ``name``.

    The one place a lookup miss becomes a usage error; the message names
    every scenario of the kinds the command accepts.
    """
    for kind in kinds:
        if name in sc.scenario_names(kind):
            return kind, sc.lookup(kind, name)
    names = [known for kind in kinds for known in sc.scenario_names(kind)]
    raise _UsageError(f"--scenario {name!r} is unknown; known: {', '.join(names)}")


def _orbit(opts: dict):
    """The named field (rescaled on request), its context and initial state."""
    kind, scenario = _scenario(_require(opts, "scenario"), "construction", "rescaling")
    field = scenario.field
    if opts["rescaled"]:
        if kind == "construction":
            raise _UsageError(f"{scenario.name!r} is a construction scenario; "
                              "--rescaled only applies to rescaling scenarios")
        field = field.scaled(scenario.factor.expr)
    ctx, text = scenario.ctx, opts["state"]
    if text is None:
        state = getattr(scenario, "orbit_state", None)
        if state is None:
            raise _UsageError("missing required option --state")
    else:
        state = _floats(text)
        if len(state) != ctx.dim:
            raise _UsageError(f"state needs {ctx.dim} numbers for "
                              f"{', '.join(ctx.names)}; got {len(state)}")
    return ctx, field, np.asarray(state, dtype=float)


# ---------------------------------------------------------------- commands


def _cmd_verify(run: _Run, opts: dict) -> int:
    name = _require(opts, "scenario")
    seed, samples, tol = opts["seed"], opts["samples"], opts["tol"]
    kind, found = _scenario(name, "flat", "construction")
    if kind == "flat":
        ctx, field = found, fo.make_oscillator(found.dim // 2).field
    else:
        structure = sc.build_scenario(found, seed=seed, n_random=samples)
        ctx, field = structure.chart_ctx, None
    s, delta = canonical_tangent_structure(ctx)
    report = verify_tangent_structure(
        s, delta, Box.cube(ctx, 2.0), field=field, seed=seed,
        n_random=samples, tol=tol,
    )
    payload = {"scenario": name, "report": report.to_json()}
    passed = report.verdict == "pass"
    if kind != "flat":
        # drawn only if a residual does not fold, which no built chart has
        draw = functools.partial(found.box.sample, seed=seed, n_random=min(samples, 200))
        payload["sode_residual"] = sode = structure_sode_residual(structure, draw)
        payload["warnings"] = list(structure.warnings)
        passed = passed and sode < max(tol, 1e-6)
    run.emit_json("verify.json", payload)
    return 0 if passed else 1


def _cmd_build(run: _Run, opts: dict) -> int:
    name = _require(opts, "scenario")
    _, scenario = _scenario(name, "construction")
    structure = sc.build_scenario(scenario, seed=opts["seed"], n_random=opts["samples"])
    run.emit_json("structure.json", {"scenario": name, **structure.to_json()})
    return 0


def _cmd_integrate(run: _Run, opts: dict) -> int:
    ctx, field, state = _orbit(opts)
    t_end = _require(opts, "t_end")
    csv_samples, tol = opts["csv_samples"], opts["tol"]
    with _refused(f"--state {opts['state']}"):
        traj = integrate(field.ode_rhs, state, t_end, rtol=tol, atol=tol * 1e-2)
    if csv_samples > 0 and traj.status == "completed":
        times = np.linspace(traj.times[0], traj.final_time, csv_samples)
        states = traj.sample_many(times)
    else:
        times, states = traj.times, traj.states
    write_csv(run.path("trajectory.csv"), ["t", *ctx.names], np.column_stack([times, states]))
    summary = {
        "scenario": opts["scenario"],
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
    _, field, state = _orbit(opts)
    tol = opts["tol"]
    with _refused(f"--state {opts['state']}"):
        est = estimate_period(
            field.ode_rhs, state, rtol=tol, atol=tol * 1e-2, t_max=opts["t_max"]
        )
    run.emit_json("period.json", {"scenario": opts["scenario"], **est.to_json()})
    return 0


def _cmd_kepler_demo(run: _Run, opts: dict) -> int:
    energy, tol, samples = opts["energy"], opts["tol"], opts["csv_samples"]
    params = kp.KeplerParams(g=opts["g"])
    options = f"--energy {energy} with --g {params.g}"
    with _refused(options):
        period = kp.orbit_period(energy, params)
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
    payload = {"energy": energy, "g": params.g, "orbit_period": period}
    status = {"unfolded": unfolded.status, "direct": direct.status}
    if set(status.values()) != {"completed"}:
        run.emit_json("kepler_demo.json", {**payload, "status": status})
        return 1
    times = np.linspace(0.0, period, samples)
    tpi = kp.tangent_map()
    projected = evaluate_on(tpi.components, tpi.src, unfolded.sample_many(times))
    reference = direct.sample_many(times)
    gap = float(np.max(np.abs(projected[:, :3] - reference[:, :3])))

    header = ["t", *tpi.dst.names]
    for fname, table in (("projected.csv", projected), ("direct.csv", reference)):
        write_csv(run.path(fname), header, np.column_stack([times, table]))

    with _refused(options):
        est = estimate_period(
            kp.chart_field(params).ode_rhs, kp.shell_representative(energy, params)
        )
    predicted = kp.shell_period(energy)
    rel = abs(est.period - predicted) / predicted
    payload.update(
        max_position_gap=gap,
        chart={
            "measured_period": est.period,
            "predicted_period": predicted,
            "rel_error": rel,
        },
    )
    run.emit_json("kepler_demo.json", payload)
    return 0 if gap < tol and rel < 1e-3 else 1


def _cmd_fosc_demo(run: _Run, opts: dict) -> int:
    deformation = _PROFILES[opts["profile"]](opts["param"])
    level, tol = opts["level"], opts["tol"]
    system = fo.make_oscillator(2)
    gamma = fo.deformed_field(system, deformation)
    with _refused(f"--level {level}"):
        est = estimate_period(gamma.ode_rhs, fo.shell_state(system, level))
    measured = 2.0 * math.pi / est.period
    predicted = deformation.slope_at(level)
    rel = abs(measured - predicted) / abs(predicted)
    points = system.domain().sample(seed=opts["seed"], n_random=200)
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
    energies = _floats(opts["energies"])
    g, mode, tol = opts["g"], opts["mode"], opts["tol"]
    params = kp.KeplerParams(g=g)
    if opts["levels"] is None:
        levels = mo.matched_oscillator_grid(energies, g=g, mode=mode)
    else:
        levels = tuple(_floats(opts["levels"]))
    with _refused(f"--energies {opts['energies']} with --g {g}"):
        kepler_records = mo.extract_kepler_motions(
            energies, params, radius_scale=opts["radius_scale"]
        )
    system = fo.make_oscillator(2)
    deformation = fo.kepler_matching_deformation(g)
    key = "energies" if opts["levels"] is None else "levels"
    with _refused(f"--{key} {opts[key]} with --g {g}"):
        oscillator_records = mo.extract_oscillator_motions(system, deformation, levels)
    matching = mo.match_motions(kepler_records, oscillator_records, tol=tol)

    closures = mo.write_figure_csv(
        run.path("figure.csv"),
        (*kepler_records, *oscillator_records),
        samples_per_period=opts["csv_samples"],
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
    "verify": (_cmd_verify, "check tangent-structure axioms for a scenario"),
    "build": (_cmd_build, "construct the chart for a library scenario"),
    "integrate": (_cmd_integrate, "integrate a named field and write CSV"),
    "period": (_cmd_period, "estimate the period of a named field's orbit"),
    "kepler-demo": (_cmd_kepler_demo, "projection and shell-clock cross-check"),
    "fosc-demo": (_cmd_fosc_demo, "deformed-oscillator frequency check"),
    "match": (_cmd_match, "frequency-match shell and oscillator motions"),
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
        # the config is at fault: the manifest echoes the defaults and flags
        print(f"error: {exc}", file=sys.stderr)
        return _Run(args.command, _resolve(args, use_config=False)).finish(2)
    run = _Run(args.command, opts)
    try:
        _check(args.command, opts)
        code = _COMMANDS[args.command][0](run, opts)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return run.finish(2)
    except SodelabError as exc:
        run.emit_json(
            "error.json", {"error": type(exc).__name__, "message": str(exc)}
        )
        return run.finish(1)
    return run.finish(code)


if __name__ == "__main__":
    sys.exit(main())
