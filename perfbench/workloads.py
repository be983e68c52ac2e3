"""The three benchmark workloads: seeded op generators and per-op oracles.

An op is one call into sodelab's public entry points: mostly
``sodelab.cli.main(argv)`` in-process, plus a few library calls in
``chart-certify``.  Ops come in rounds.  Each round covers the workload's
whole input mix once, in a seeded order with seeded parameters, so every run
sees the same mix whatever its seed; round ``r`` of seed ``s`` is always the
same list, which is what makes a run replayable.

Each op records its argv (or call arguments) without the output directory;
``--out DIR`` is appended when it runs.  Negative numbers go in the
``--key=value`` form, which argparse does not mistake for a flag.

The oracles run outside the timed region, at the tolerances the acceptance
criteria in ``tests/test_acceptance.py`` pin.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from sodelab import cli
from sodelab import conformal as cf
from sodelab import foscillator as fo
from sodelab import kepler as kp
from sodelab import scenarios as sc
from sodelab.expr import parse
from sodelab.fields import ScalarField, VectorField, vectorized_scalar

# criterion 3 and 6: shell frequency, pair mismatch, closure, shell relation
SHELL_FREQUENCY_TOL = 1e-8
CLOSURE_TOL = 1e-6
SHELL_GAP_TOL = 1e-8
# criterion 1: a library chart pushes its field to second order
SODE_TOL = 1e-6
# criterion 7 and 8: rescaling identities and the damped speed bound
IDENTITY_TOL = 1e-9
SPEED_BOUND_TOL = 1e-12
# criterion 2: conserved-quantity drift along an orbit
DRIFT_TOL = 1e-8
# criterion 8: the blow-up of x' = x^2 is bracketed within 1% of 1 / x0
BLOW_UP_REL = 0.01


def _rng(seed: int, workload: str, *keys: int) -> np.random.Generator:
    tag = sum(ord(ch) * 31**k for k, ch in enumerate(workload)) % 2**32
    return np.random.default_rng([seed, tag, *keys])


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class OpFailed(Exception):
    """An op's output missed its reference check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


def _read_json(out: Path, name: str) -> dict:
    path = out / name
    _require(path.is_file(), f"{name} was not written")
    return json.loads(path.read_text())


# ------------------------------------------------------------ shell-match


class ShellMatch:
    """One-energy ``match``: period detection and the integrator hot loop.

    The paper's headline pipeline.  The energy sets how many periods fit in
    the fixed 100-unit chunk that period detection integrates, so the wasted
    share of integration changes across the inputs.
    """

    name = "shell-match"
    # a run has 12 to 18 ops, too few for any tail with 10 ops beyond it
    tail_q = 50.0
    strata = 3
    E_RANGE = (-2.0, -0.25)
    R_RANGE = (0.6, 1.2)

    def round(self, seed: int, r: int) -> list[dict]:
        """Three log|E| strata at a seeded offset u, and their mirror at 1 - u.

        Op cost grows about linearly with log|E|, so the mirrored half makes
        every round do nearly the same work whatever the seed, and a run
        that ends after any whole round sees a balanced mix.  Each single
        draw is still uniform in its stratum (log-uniform in E).  Radius
        scales follow a Latin square over the strata, mirrored likewise.
        """
        k = self.strata
        rng = _rng(seed, self.name, r)
        u = rng.uniform()
        spots = (rng.permutation(k) + rng.uniform(size=k)) / k
        positions = np.concatenate([np.arange(k) + u, np.arange(k) + 1.0 - u]) / k
        spots = np.concatenate([spots, 1.0 - spots])
        lo, hi = math.log(-self.E_RANGE[1]), math.log(-self.E_RANGE[0])
        depths = np.exp(lo + positions * (hi - lo))
        r_lo, r_hi = self.R_RANGE
        radii = r_lo + spots * (r_hi - r_lo)
        order = rng.permutation(2 * k)
        return [
            {
                "argv": [
                    "match",
                    f"--energies={-float(depths[i])!r}",
                    f"--radius-scale={float(radii[i])!r}",
                ],
                "energy": -float(depths[i]),
            }
            for i in order
        ]

    def run(self, op: dict, out: Path):
        return cli.main([*op["argv"], "--out", str(out)])

    def check(self, op: dict, code, out: Path) -> None:
        _require(code == 0, f"exit code {code}, expected 0")
        energy = op["energy"]
        matching = _read_json(out, "matching.json")
        pairs = matching["pairs"]
        _require(len(pairs) == 1, f"{len(pairs)} matched pairs, expected 1")
        pair = pairs[0]
        _require(
            pair["rel_mismatch"] <= matching["tolerance"],
            f"pair mismatch {pair['rel_mismatch']:.3e} over tol",
        )
        side = "A" if pair["label_A"].startswith("kepler-") else "B"
        gap = abs(pair[f"omega_{side}"] - kp.shell_frequency(energy))
        _require(gap <= SHELL_FREQUENCY_TOL, f"shell frequency off by {gap:.3e}")
        worst = max(matching["closures"].values())
        _require(worst < CLOSURE_TOL, f"closure {worst:.3e}")
        lines = (out / "figure.csv").read_text().splitlines()
        samples = 512
        _require(len(lines) == 1 + 2 * samples, f"figure.csv has {len(lines)} lines")
        shell_gap = 0.0
        for line in lines[1:]:
            t, q, v, label = line.split(",")
            if label.startswith("kepler-"):
                q, v = float(q), float(v)
                shell_gap = max(shell_gap, abs(0.5 * v * v - energy * q * q - 1.0))
        _require(shell_gap < SHELL_GAP_TOL, f"shell relation off by {shell_gap:.3e}")


# ---------------------------------------------------------- chart-certify


def _probe_field(ctx) -> VectorField:
    names = ctx.names
    return VectorField(
        ctx,
        tuple(
            parse(f"{names[(i + 1) % ctx.dim]}^2 - {names[i]}", ctx)
            for i in range(ctx.dim)
        ),
    )


class ChartCertify:
    """Symbolic and sampled certification: verify, rejections, rescaling.

    Exercises expr, batch field evaluation, bundle, geometry and conformal.
    It runs no period detection, and integrates only the short backward
    flows of each verify.
    """

    name = "chart-certify"
    # the highest of p99.9, p99, p95, p90, p75 with at least 10 ops beyond
    # it in a run of 3 rounds (69 ops)
    tail_q = 75.0

    def __init__(self) -> None:
        self.verify_names = [s.name for s in sc.buildable_scenarios()] + [
            name for name, _ in sc.canonical_contexts()
        ]
        self.reject_names = [s.name for s in sc.rejection_scenarios()]
        self.conformal_names = [s.name for s in sc.conformal_scenarios()]

    def round(self, seed: int, r: int) -> list[dict]:
        rng = _rng(seed, self.name, r)

        def k() -> int:
            return int(rng.integers(0, 1_000_000))

        ops = [
            {"argv": ["verify", "--scenario", name, "--seed", str(k())]}
            for name in self.verify_names
        ]
        ops += [
            {"argv": ["build", "--scenario", name, "--seed", str(k())]}
            for name in self.reject_names
        ]
        ops += [
            {"call": "certify_rescaling", "scenario": name, "seed": k()}
            for name in self.conformal_names
        ]
        ops.append({"call": "regularize_complete", "scenario": "blowup-damping",
                    "seed": k()})
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op: dict, out: Path):
        call = op.get("call")
        if call is None:
            return cli.main([*op["argv"], "--out", str(out)])
        scenario = sc.get_conformal_scenario(op["scenario"])
        seed = op["seed"]
        if call == "regularize_complete":
            witness = ScalarField(scenario.ctx, parse("x", scenario.ctx))
            return cf.regularize_complete(scenario.field, witness, scenario.box,
                                          seed=seed)
        pair = cf.rescale(scenario.field, scenario.factor, scenario.box, seed=seed)
        points = scenario.box.sample(seed=seed, n_random=200, grid_points=3)
        residuals = [
            cf.bracket_rescaling_residual(
                pair.original, pair.factor, _probe_field(scenario.ctx), points
            )
        ]
        if scenario.conserved is not None:
            residuals += cf.shared_constants_residual(
                pair.original, pair.factor, scenario.conserved, points
            )
        return residuals

    def check(self, op: dict, result, out: Path) -> None:
        call = op.get("call")
        if call == "regularize_complete":
            _require(result.bound_holds and result.grid_bound <= 1.0 + SPEED_BOUND_TOL,
                     f"damped speed bound {result.grid_bound}")
            return
        if call == "certify_rescaling":
            worst = max(result)
            _require(worst < IDENTITY_TOL, f"rescaling residual {worst:.3e}")
            return
        if op["argv"][0] == "build":
            _require(result == 1, f"exit code {result}, expected 1")
            error = _read_json(out, "error.json")["error"]
            _require(error == "FunctionalDependenceError", f"raised {error}")
            return
        _require(result == 0, f"exit code {result}, expected 0")
        payload = _read_json(out, "verify.json")
        verdict = payload["report"]["verdict"]
        _require(verdict == "pass", f"verdict {verdict}")
        if "sode_residual" in payload:
            _require(payload["sode_residual"] < SODE_TOL,
                     f"sode residual {payload['sode_residual']:.3e}")


# ------------------------------------------------------------ orbit-dense


class OrbitDense:
    """Plain trajectory integration with dense resampling and CSV writes.

    Uses dynamics without period hunting: many dense ``sample`` reads and
    large writes, and the scenario lookup and field compile are a visible
    share of these short ops.  ``blowup-damping`` without ``--rescaled``
    takes the escape path on purpose and must exit 1.
    """

    name = "orbit-dense"
    # the highest of p99.9, p99, p95, p90, p75 with at least 10 ops beyond
    # it in a run of 5 rounds (140 ops)
    tail_q = 90.0
    T_RANGE = (10.0, 30.0)
    SAMPLES = (0, 4096)
    CONSTRUCTION = (
        "oscillator-2",
        "double-rotation-13",
        "kepler-chart",
        "fosc-kepler-match-g1",
    )

    def __init__(self) -> None:
        self.conformal = {s.name: s for s in sc.conformal_scenarios()}
        self.construction = {name: sc.get_sode_scenario(name)
                             for name in self.CONSTRUCTION}

    def _state(self, name: str, u: float, odd: bool) -> list[float]:
        """Starting state from the scenario's own orbit helper, at variate u."""
        if name in ("kepler-clock", "kepler-chart"):
            return list(kp.unfolded_circular_state(-(0.25 + 0.75 * u)))
        if name == "blowup-damping":
            return [0.5 + 1.5 * u]
        if name in self.conformal:
            return list(self.conformal[name].orbit_state)
        if name in ("oscillator-2", "fosc-kepler-match-g1"):
            return list(fo.shell_state(fo.make_oscillator(2), 0.2 + 1.3 * u))
        # no orbit helper: a seeded point of the box, reflected in odd rounds
        box = self.construction[name].box
        rng = np.random.default_rng(int((1.0 - u if odd else u) * 2**32))
        while True:
            point = rng.uniform(box.lo, box.hi)
            if box.contains(point):
                return list(-point if odd else point)

    def round(self, seed: int, r: int) -> list[dict]:
        """Every (scenario, samples, rescaled) combination once, shuffled.

        The seeded variates (end time, energy or level) of each combination
        are shared by a pair of rounds, the odd round using 1 - u, so each
        pair of rounds does nearly the same work whatever the seed.
        """
        combos = [
            (name, n, rescaled)
            for name in self.conformal
            for n in self.SAMPLES
            for rescaled in (False, True)
        ]
        combos += [(name, n, False) for name in self.construction for n in self.SAMPLES]
        variates = _rng(seed, self.name, r // 2).uniform(size=(len(combos), 2))
        odd = bool(r % 2)
        if odd:
            variates = 1.0 - variates
        ops = []
        for i in _rng(seed, self.name, r // 2, r % 2).permutation(len(combos)):
            name, n, rescaled = combos[i]
            u_time, u_state = variates[i]
            state = self._state(name, float(u_state), odd)
            t_lo, t_hi = self.T_RANGE
            t_end = float(t_lo + (t_hi - t_lo) * u_time)
            argv = [
                "integrate",
                "--scenario", name,
                f"--state={_fmt(state)}",
                f"--t-end={t_end!r}",
                "--csv-samples", str(n),
            ]
            if rescaled:
                argv.append("--rescaled")
            ops.append({"argv": argv, "state": state, "t_end": t_end})
        return ops

    def run(self, op: dict, out: Path):
        return cli.main([*op["argv"], "--out", str(out)])

    def check(self, op: dict, code, out: Path) -> None:
        argv = op["argv"]
        name = argv[2]
        rescaled = "--rescaled" in argv
        samples = int(argv[argv.index("--csv-samples") + 1])
        escapes = name == "blowup-damping" and not rescaled
        _require(code == (1 if escapes else 0),
                 f"exit code {code}, expected {1 if escapes else 0}")
        summary = _read_json(out, "integrate.json")
        status = summary["status"]
        lines = (out / "trajectory.csv").read_text().splitlines()
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        dim = len(op["state"])
        _require(rows.shape[1:] == (dim + 1,), f"trajectory.csv has shape {rows.shape}")
        _require(bool(np.all(np.isfinite(rows))), "non-finite values in trajectory.csv")
        expected_rows = samples if samples > 0 and status == "completed" else (
            summary["accepted"] + 1
        )
        _require(len(rows) == expected_rows,
                 f"{len(rows)} rows, expected {expected_rows}")
        _require(bool(np.all(np.diff(rows[:, 0]) >= 0.0)), "time column not sorted")
        _require(rows[-1, 0] == summary["t_final"]
                 and list(rows[-1, 1:]) == summary["state_final"],
                 "last row differs from the reported final state")
        if escapes:
            x0 = op["state"][0]
            lo, hi = summary.get("blow_up_bracket") or (math.nan, math.nan)
            _require(status == "blow_up"
                     and (1 - BLOW_UP_REL) / x0 < lo < hi < (1 + BLOW_UP_REL) / x0,
                     f"status {status}, bracket {lo}, {hi} for 1/x0 = {1 / x0}")
            return
        # the last step lands on t_end up to rounding of t + (t_end - t)
        _require(status == "completed"
                 and math.isclose(summary["t_final"], op["t_end"], rel_tol=1e-12),
                 f"status {status} at t = {summary['t_final']}")
        if name == "blowup-damping":
            _require(abs(rows[-1, 1]) < 10.0, f"damped orbit reached {rows[-1, 1]}")
        scenario = self.conformal.get(name)
        if scenario is not None and scenario.conserved is not None:
            values = np.broadcast_to(
                vectorized_scalar(scenario.conserved.expr, scenario.ctx)(rows[:, 1:]),
                (len(rows),),
            )
            drift = float(np.max(np.abs(values - values[0])))
            _require(drift < DRIFT_TOL, f"conserved drift {drift:.3e}")


WORKLOADS = {cls.name: cls for cls in (ShellMatch, ChartCertify, OrbitDense)}
