"""End-to-end tests for the command-line interface.

Each test drives ``main([...])`` directly and inspects exit codes, files,
and stdout JSON.  Determinism checks run a command twice into separate
directories and compare bytes.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sodelab import bundle, cli, expr, fields
from sodelab import scenarios as sc
from sodelab.cli import main


def read_json(path):
    return json.loads(path.read_text())


def run_to(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


# --- usage and config errors (exit 2) ---------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_scenario_is_usage_error(capsys):
    assert main(["build"]) == 2
    assert "scenario" in capsys.readouterr().err


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["build", "--scenario", "no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert "no-such-thing" in err


def test_bad_state_dimension_is_usage_error(capsys):
    code = main(
        ["integrate", "--scenario", "oscillator-1", "--state", "1,2,3",
         "--t-end", "1"]
    )
    assert code == 2
    assert "2 numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--scenario", "oscillator-1", "--state", "1e9,0", "--t-end", "1"],
        ["integrate", "--scenario", "kepler-clock", "--state", "0,0,0,0,0,0,0,0",
         "--t-end", "1"],
        ["period", "--scenario", "oscillator-1", "--state", "1e9,0"],
        ["period", "--scenario", "kepler-clock", "--state", "0,0,0,0,0,0,0,0"],
    ],
)
def test_state_the_integrator_refuses_is_usage_error(tmp_path, capsys, argv):
    # past the blow-up threshold, or where the field is not finite
    code, out = run_to(tmp_path, "run", argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --state {argv[4]}: ") and err.count("\n") == 1
    manifest = read_json(out / "run_manifest.json")
    assert manifest["exit_code"] == 2
    assert manifest["outputs"] == []


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["kepler-demo", "--energy=-1e-20"], "--energy -1e-20 with --g 1.0"),
        (["kepler-demo", "--g", "1e30"], "--energy -0.5 with --g 1e+30"),
        (["match", "--energies=-1e-20"], "--energies -1e-20 with --g 1.0"),
        (["match", "--levels", "1e30"], "--levels 1e30 with --g 1.0"),
        (["fosc-demo", "--level", "1e30"], "--level 1e+30"),
        (["fosc-demo", "--profile", "kepler-match", "--param", "2e307"], "--param 2e+307"),
        (["match", "--g", "2e307"], "--g 2e+307"),
        (["match", "--g", "1e308", "--levels", "1"], "--g 1e+308"),
    ],
)
def test_derived_start_the_integrator_refuses_is_usage_error(tmp_path, capsys, argv, flags):
    # each start state, derived from the options, lies past the blow-up
    # threshold; the last three couplings overflow 10 g, which the
    # kepler-match profile divides by, before any start is derived
    code, out = run_to(tmp_path, "run", argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags}: ") and err.count("\n") == 1
    manifest = read_json(out / "run_manifest.json")
    assert manifest["exit_code"] == 2
    assert manifest["outputs"] == []


def test_a_huge_kepler_match_coupling_starts_at_a_finite_field(tmp_path, capsys):
    # the slope at level 0.5 is 0.5 / g = 5e-308, finite; the orbit is too
    # slow for a period to be found, which is a run failure, not a usage error
    code, out = run_to(tmp_path, "run", ["fosc-demo", "--profile", "kepler-match",
                                         "--param", "1e307"])
    assert code == 1
    assert "not finite" not in capsys.readouterr().err
    assert read_json(out / "error.json")["error"] == "NotPeriodicError"


def test_a_slow_start_is_refused_for_its_horizon_not_as_an_equilibrium(tmp_path):
    # the field at the start is (0, 0, -5e-308, 0): it moves, but its period,
    # about 1.26e308, lies past t_max
    code, out = run_to(tmp_path, "run", ["fosc-demo", "--profile", "kepler-match",
                                         "--param", "1e307"])
    assert code == 1
    message = read_json(out / "error.json")["message"]
    assert message == "no return to the start within t = 1000.0"


def test_a_start_too_small_for_its_tolerance_is_usage_error(tmp_path, capsys):
    # rtol 1e-10 times the start's scale 1e-314 underflows to 0
    code, out = run_to(tmp_path, "run", ["period", "--scenario", "oscillator-1",
                                         "--state", "1e-314,0"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --state 1e-314,0: the start's scale 1e-314 underflows "
        "rtol * scale to 0\n"
    )
    assert read_json(out / "run_manifest.json")["outputs"] == []


def test_a_tiny_oscillator_level_measures_its_frequency(tmp_path):
    # |x0| = 1.4e-10: the run's tolerances and return test scale with the orbit
    code, out = run_to(tmp_path, "run", ["fosc-demo", "--profile", "linear",
                                         "--param", "1", "--level", "1e-20"])
    assert code == 0
    assert read_json(out / "fosc_demo.json")["rel_error"] < 1e-9


@pytest.mark.parametrize(
    "argv, flags, cause",
    [
        (["kepler-demo", "--energy=-1e200"], "--energy -1e+200 with --g 1.0",
         "energy -1e+200 with g 1.0 puts the orbit frequency"),
        (["kepler-demo", "--energy=-1e-300"], "--energy -1e-300 with --g 1.0",
         "energy -1e-300 with g 1.0 puts the orbit frequency"),
        (["match", "--energies=-1e200"], "--energies -1e200 with --g 1.0",
         "energy -1e+200 with g 1.0 puts the orbit frequency"),
        (["kepler-demo", "--g", "1e308"], "--energy -0.5 with --g 1e+308",
         "energy -0.5 with g 1e+308 puts the orbit period"),
    ],
)
def test_energy_past_the_float_range_is_usage_error(tmp_path, capsys, argv, flags, cause):
    code, out = run_to(tmp_path, "run", argv)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {flags}: {cause} outside the float range\n"
    )
    manifest = read_json(out / "run_manifest.json")
    assert manifest["exit_code"] == 2
    assert manifest["outputs"] == []


def test_integrate_without_out_is_usage_error(capsys):
    code = main(
        ["integrate", "--scenario", "oscillator-1", "--state", "1,0",
         "--t-end", "1"]
    )
    assert code == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["kepler-demo", "--csv-samples", "0"], "--csv-samples"),
        (["kepler-demo", "--csv-samples=-3"], "--csv-samples"),
        (["match", "--csv-samples=-3"], "--csv-samples"),
        (["verify", "--scenario", "flat-2", "--samples=-5"], "--samples"),
        (["build", "--scenario", "oscillator-1", "--samples=-5"], "--samples"),
        (["period", "--scenario", "oscillator-1", "--state", "1,0", "--t-max=-1"],
         "--t-max"),
        (["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end=-1"],
         "--t-end"),
        (["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end=0"],
         "--t-end"),
        (["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end=nan"],
         "--t-end"),
        (["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end=1",
          "--csv-samples=-1"], "--csv-samples"),
        (["kepler-demo", "--g", "0"], "--g"),
        (["match", "--g", "0"], "--g"),
        (["fosc-demo", "--level=-1"], "--level"),
        (["fosc-demo", "--param", "0"], "--param"),
        (["fosc-demo", "--level", "inf"], "--level"),
        (["match", "--radius-scale=-1"], "--radius-scale"),
        (["match", "--energies=0.5"], "--energies"),
        (["match", "--energies=-0.5", "--levels=-1"], "--levels"),
        (["verify", "--scenario", "flat-2", "--seed", "-1"], "--seed"),
        (["integrate", "--scenario", "oscillator-1", "--state", "nan,0", "--t-end", "1"],
         "--state"),
        (["kepler-demo", "--energy", "nan"], "--energy"),
        (["kepler-demo", "--energy", "0.5"], "--energy"),
        (["verify", "--scenario", "flat-2", "--tol", "-1"], "--tol"),
        (["period", "--scenario", "oscillator-1", "--state", "1,0", "--tol", "0"],
         "--tol"),
        (["period", "--scenario", "oscillator-1", "--state", "1,0", "--t-max", "inf"],
         "--t-max"),
        (["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end=1",
          "--tol=-1"], "--tol"),
        (["fosc-demo", "--profile", "bogus"], "--profile"),
        # positive, but its atol tol * 1e-2 underflows to 0
        (["period", "--scenario", "oscillator-1", "--state", "1,0", "--tol", "1e-323"],
         "--tol"),
        (["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end=1",
          "--tol=1e-323"], "--tol"),
        # one resample point would keep only the start of the run
        (["kepler-demo", "--csv-samples", "1"], "--csv-samples"),
        (["match", "--csv-samples", "1"], "--csv-samples"),
        (["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end=1",
          "--csv-samples", "1"], "--csv-samples"),
    ],
)
def test_out_of_range_number_is_usage_error(tmp_path, capsys, argv, flag):
    code, out = run_to(tmp_path, "run", argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    manifest = read_json(out / "run_manifest.json")
    assert manifest["exit_code"] == 2
    assert manifest["outputs"] == []


@pytest.mark.parametrize(
    "argv, config, flag",
    [
        (["build"], {"scenario": "oscillator-1", "samples": "many"}, "--samples"),
        (["build"], {"scenario": "oscillator-1", "samples": 2.5}, "--samples"),
        (["build"], {"scenario": 7}, "--scenario"),
        (["integrate", "--scenario", "uniform-speedup", "--t-end", "1"],
         {"rescaled": "no"}, "--rescaled"),
        (["integrate", "--scenario", "uniform-speedup", "--t-end", "1"],
         {"rescaled": 1}, "--rescaled"),
        (["integrate", "--scenario", "uniform-speedup"], {"t_end": True}, "--t-end"),
        (["integrate", "--scenario", "uniform-speedup"], {"t_end": -1}, "--t-end"),
        (["integrate", "--scenario", "uniform-speedup", "--t-end", "1"],
         {"state": [1, 0]}, "--state"),
        (["match"], {"energies": "-1,0"}, "--energies"),
    ],
)
def test_bad_config_value_is_usage_error(tmp_path, capsys, argv, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run_to(tmp_path, "run", argv + ["--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    manifest = read_json(out / "run_manifest.json")
    assert manifest["exit_code"] == 2
    assert manifest["outputs"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--scenario", "oscillator-1", "--tol", "1e-3"],
        ["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end", "1",
         "--seed", "1"],
        ["period", "--scenario", "oscillator-1", "--state", "1,0", "--seed", "1"],
        ["kepler-demo", "--seed", "1"],
        ["match", "--seed", "1"],
    ],
)
def test_option_the_command_does_not_read_is_rejected(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["build", "--scenario", "nope"], ["oscillator-1", "rotation-2d"]),
        (["verify", "--scenario", "nope"], ["flat-2", "flat-4", "kepler-chart"]),
        (["integrate", "--scenario", "nope", "--t-end", "1"],
         ["oscillator-1", "uniform-speedup", "blowup-damping"]),
        (["period", "--scenario", "nope"], ["free-particle", "am-clock"]),
    ],
)
def test_unknown_scenario_names_every_accepted_one(capsys, argv, named):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --scenario 'nope' is unknown; known: ")
    assert err.count("\n") == 1
    for name in named:
        assert name in err
    if argv[0] == "build":
        assert "flat-2" not in err and "uniform-speedup" not in err


def test_key_error_inside_a_command_propagates(monkeypatch, tmp_path):
    import sodelab.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("deep inside the library")

    monkeypatch.setattr(cli, "integrate", broken)
    with pytest.raises(KeyError, match="deep inside"):
        main(["integrate", "--scenario", "oscillator-1", "--state", "1,0",
              "--t-end", "1", "--out", str(tmp_path / "run")])


def test_one_parser_serves_every_run_of_a_process(tmp_path, capsys, monkeypatch):
    """Each run in one process gives the exit code, text and files it gives
    alone in a fresh process, although they share one parser."""
    runs = {
        "usage": ["integrate", "--scenario", "nope", "--t-end", "1"],
        "help": ["integrate", "--help"],
        "integrate": ["integrate", "--scenario", "oscillator-1", "--state", "1,0",
                      "--t-end", "2", "--csv-samples", "50"],
    }
    monkeypatch.setenv("COLUMNS", "100")  # help text wraps at the terminal width
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.glob("*"))}

    alone = {}
    for label, argv in runs.items():
        out = tmp_path / "alone" / label
        proc = subprocess.run(
            [sys.executable, "-m", "sodelab.cli", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        alone[label] = (proc.returncode, proc.stdout, proc.stderr, files(out))
    assert alone["usage"][0] == 2 and "run_manifest.json" in alone["usage"][3]
    assert alone["help"][0] == 0 and "--t-end" in alone["help"][1]
    assert alone["integrate"][0] == 0 and "trajectory.csv" in alone["integrate"][3]
    for round_ in range(2):
        for label, argv in runs.items():
            out = tmp_path / f"shared-{round_}" / label
            code = main([*argv, "--out", str(out)])
            text = capsys.readouterr()
            assert (code, text.out, text.err, files(out)) == alone[label], label
    assert cli._build_parser() is cli._build_parser()


def test_config_with_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"volume": 11}')
    assert main(["build", "--config", str(cfg)]) == 2
    assert "volume" in capsys.readouterr().err


def test_config_must_be_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["build", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_config_file_missing(tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", [None, '{"volume": 11}'])
def test_bad_config_file_still_writes_the_manifest(tmp_path, capsys, text):
    # an unreadable config (None: no file) or one with an unknown key
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, out = run_to(
        tmp_path, "run", ["build", "--scenario", "oscillator-1", "--config", str(cfg)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    manifest = read_json(out / "run_manifest.json")
    assert manifest["exit_code"] == 2
    assert manifest["outputs"] == []
    assert manifest["options"]["scenario"] == "oscillator-1"
    assert manifest["options"]["config"] == str(cfg)


# --- config merging ----------------------------------------------------------


def test_config_supplies_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenario": "oscillator-1"}')
    code, out = run_to(tmp_path, "run", ["build", "--config", str(cfg)])
    assert code == 0
    assert (out / "structure.json").exists()


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenario": "oscillator-1", "t_end": 1.0, "state": "1,0"}')
    code, out = run_to(
        tmp_path, "run", ["integrate", "--config", str(cfg), "--t-end", "2.0"]
    )
    assert code == 0
    summary = read_json(out / "integrate.json")
    assert summary["t_final"] == pytest.approx(2.0)
    manifest = read_json(out / "run_manifest.json")
    assert manifest["options"]["t_end"] == pytest.approx(2.0)


def test_config_numbers_are_read_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenario": "oscillator-1", "state": "1,0", "t_end": 1, '
                   '"csv-samples": "5", "rescaled": false}')
    code, out = run_to(tmp_path, "run", ["integrate", "--config", str(cfg)])
    assert code == 0
    options = read_json(out / "run_manifest.json")["options"]
    assert options["t_end"] == 1.0 and isinstance(options["t_end"], float)
    assert options["csv_samples"] == 5
    assert len((out / "trajectory.csv").read_text().splitlines()) == 6


# --- verify ------------------------------------------------------------------


def test_verify_flat_chart_to_stdout(capsys):
    assert main(["verify", "--scenario", "flat-4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["verdict"] == "pass"
    names = [ax["name"] for ax in payload["report"]["axioms"]]
    assert "sode_condition" in names
    # the oscillator's second-order condition is the one sampled axiom
    assert payload["report"]["samples"] > 0
    bases = {ax["name"]: ax["basis"] for ax in payload["report"]["axioms"]}
    assert bases.pop("sode_condition") == "sampled"
    assert set(bases.values()) == {"by_construction"}


def test_verify_built_scenario_writes_report(tmp_path):
    code, out = run_to(
        tmp_path, "run", ["verify", "--scenario", "oscillator-2", "--samples", "200"]
    )
    assert code == 0
    payload = read_json(out / "verify.json")
    assert payload["report"]["verdict"] == "pass"
    assert payload["report"]["samples"] == 0
    assert {ax["basis"] for ax in payload["report"]["axioms"]} == {"by_construction"}
    assert payload["sode_residual"] < 1e-8
    manifest = read_json(out / "run_manifest.json")
    assert manifest["command"] == "verify"
    assert "verify.json" in manifest["outputs"]
    assert manifest["exit_code"] == 0


@pytest.mark.parametrize("name", sc.scenario_names("construction"))
def test_verify_compiles_each_tree_tuple_once(tmp_path, monkeypatch, name):
    # nodes are interned, so trees, context and backend key a build by identity
    builds = Counter()

    def spy(backend, build):
        def spied(e, ctx):
            builds[(e if isinstance(e, expr.Expression) else tuple(e), ctx, backend)] += 1
            return build(e, ctx)

        return spied

    monkeypatch.setattr(fields, "compile_scalar", spy("scalar", expr.compile_scalar))
    monkeypatch.setattr(fields, "_batch", spy("batch", expr._batch))
    run_to(tmp_path, "run", ["verify", "--scenario", name])
    assert [key for key, count in builds.items() if count > 1] == []


@pytest.mark.parametrize("name", [s.name for s in sc.buildable_scenarios()])
def test_verify_generates_no_code(tmp_path, monkeypatch, name):
    # a chart is built and certified on the batch backend alone
    compiled = []
    original = fields.compile_scalar

    def spy(e, ctx):
        compiled.append(e)
        return original(e, ctx)

    monkeypatch.setattr(fields, "compile_scalar", spy)
    code, _ = run_to(tmp_path, "run", ["verify", "--scenario", name])
    assert code == 0 and compiled == []


def _spy_on_draws(monkeypatch):
    """Record ``(box, kwargs)`` of every ``Box.sample`` call from now on."""
    draws = []
    original = fields.Box.sample

    def spy(self, *args, **kwargs):
        draws.append((self, kwargs))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(fields.Box, "sample", spy)
    return draws


@pytest.mark.parametrize("name", [s.name for s in sc.buildable_scenarios()])
def test_verify_draws_only_the_build_sample(tmp_path, monkeypatch, name):
    # a built chart's residuals fold to zero, so nothing reads a verify sample
    draws = _spy_on_draws(monkeypatch)
    scenario = sc.lookup("construction", name)
    looked_up = len(draws)
    draws.clear()
    code, out = run_to(tmp_path, "run", ["verify", "--scenario", name])
    assert code == 0
    assert len(draws) == looked_up + 1
    assert draws[-1] == (scenario.box, {"seed": 0, "n_random": 500})
    assert read_json(out / "verify.json")["sode_residual"] == 0.0


def test_verify_evaluates_an_unfolded_residual_on_the_verify_sample(
    tmp_path, monkeypatch
):
    build_scenario, built = sc.build_scenario, []

    def build_moved(scenario, **kwargs):
        # V_i + x^2 no longer folds against dQ_i(field), and varies over the box
        t = build_scenario(scenario, **kwargs)
        x = expr.Var(t.src_ctx.names[0])
        moved = tuple(expr.add(v, expr.mul(x, x)) for v in t.velocity_exprs)
        forward = dataclasses.replace(t.forward, components=t.base_exprs + moved)
        built.append(dataclasses.replace(t, forward=forward))
        return built[-1]

    monkeypatch.setattr(sc, "build_scenario", build_moved)
    draws = _spy_on_draws(monkeypatch)
    argv = ["verify", "--scenario", "oscillator-1", "--seed", "3", "--samples", "150"]
    code, out = run_to(tmp_path, "run", argv)
    assert code == 1
    box = sc.lookup("construction", "oscillator-1").box
    assert draws[-1] == (box, {"seed": 3, "n_random": 150})
    expected = bundle.structure_sode_residual(built[0], box.sample(seed=3, n_random=150))
    assert expected > 1.0
    assert read_json(out / "verify.json")["sode_residual"] == expected


def test_verify_rejection_scenario_exits_one(tmp_path):
    code, out = run_to(tmp_path, "run", ["verify", "--scenario", "rotation-2d"])
    assert code == 1
    payload = read_json(out / "error.json")
    assert payload["error"] == "FunctionalDependenceError"
    manifest = read_json(out / "run_manifest.json")
    assert manifest["exit_code"] == 1


# --- build -------------------------------------------------------------------


def test_build_reports_chart(tmp_path):
    code, out = run_to(tmp_path, "run", ["build", "--scenario", "oscillator-1"])
    assert code == 0
    payload = read_json(out / "structure.json")
    assert payload["scenario"] == "oscillator-1"
    assert payload["inverse"] == "affine"
    assert len(payload["chart_context"]) == 2


def test_build_rejection_exits_one_stdout(capsys):
    assert main(["build", "--scenario", "rotation-4d-lift"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "FunctionalDependenceError"


def test_build_is_byte_deterministic(tmp_path):
    argv = ["build", "--scenario", "fosc-linear-2", "--seed", "3"]
    _, first = run_to(tmp_path, "a", argv)
    _, second = run_to(tmp_path, "b", argv)
    for name in ("structure.json", "run_manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# --- integrate / period ------------------------------------------------------


def test_integrate_writes_trajectory(tmp_path):
    code, out = run_to(
        tmp_path,
        "run",
        ["integrate", "--scenario", "oscillator-1", "--state", "1,0",
         "--t-end", str(2 * math.pi)],
    )
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q1,v1"
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[1:] == pytest.approx([1.0, 0.0])
    assert last[1] == pytest.approx(1.0, abs=1e-6)
    summary = read_json(out / "integrate.json")
    assert summary["status"] == "completed"


def test_integrate_uniform_resample(tmp_path):
    code, out = run_to(
        tmp_path,
        "run",
        ["integrate", "--scenario", "oscillator-1", "--state", "1,0",
         "--t-end", "1.0", "--csv-samples", "5"],
    )
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 6
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_integrate_short_horizon_completes(tmp_path):
    code, out = run_to(
        tmp_path,
        "run",
        ["integrate", "--scenario", "oscillator-1", "--state", "1,0",
         "--t-end", "1e-15"],
    )
    assert code == 0
    summary = read_json(out / "integrate.json")
    assert summary["status"] == "completed"
    assert summary["accepted"] == 1


def test_integrate_subnormal_tolerance_underflows_quickly(tmp_path):
    # atol 1e-322 overflows the initial step's scaled norms; the fallback
    # step is rejected a few times, down to the step floor
    code, out = run_to(
        tmp_path,
        "run",
        ["integrate", "--scenario", "oscillator-1", "--state", "1,0",
         "--tol", "1e-320", "--t-end", "1"],
    )
    assert code == 1
    summary = read_json(out / "integrate.json")
    assert summary["status"] == "step_underflow"
    assert summary["rejected"] < 100


def test_integrate_blow_up_exits_one(tmp_path):
    code, out = run_to(
        tmp_path,
        "run",
        ["integrate", "--scenario", "blowup-damping", "--t-end", "2.0"],
    )
    assert code == 1
    summary = read_json(out / "integrate.json")
    assert summary["status"] == "blow_up"
    lo, hi = summary["blow_up_bracket"]
    assert 0.99 < lo < hi < 1.01


def test_integrate_rescaled_field_completes(tmp_path):
    code, out = run_to(
        tmp_path,
        "run",
        ["integrate", "--scenario", "blowup-damping", "--t-end", "100",
         "--rescaled"],
    )
    assert code == 0
    summary = read_json(out / "integrate.json")
    assert summary["status"] == "completed"
    assert 1.0 < summary["state_final"][0] < 3.0


def test_period_of_oscillator(capsys):
    code = main(["period", "--scenario", "oscillator-1", "--state", "1,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["period"] == pytest.approx(2 * math.pi, rel=1e-6)
    assert payload["return_residual"] < 1e-6


def test_period_of_drifting_orbit_exits_one(capsys):
    code = main(
        ["period", "--scenario", "free-particle", "--state", "0,1",
         "--t-max", "5"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "NotPeriodicError"


# --- demos -------------------------------------------------------------------


def test_kepler_demo(tmp_path):
    code, out = run_to(
        tmp_path, "run", ["kepler-demo", "--energy", "-0.5", "--csv-samples", "64"]
    )
    assert code == 0
    payload = read_json(out / "kepler_demo.json")
    assert payload["max_position_gap"] < 1e-6
    assert payload["chart"]["rel_error"] < 1e-3
    header = (out / "projected.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,u1,u2,u3"
    assert (out / "direct.csv").exists()


@pytest.mark.parametrize("argv", [["--energy=-1e6"], ["--g", "1e-9"]])
def test_kepler_demo_completes_on_short_orbits(tmp_path, argv):
    # the first step guesses fall below the step floor; no step is rejected there
    code, out = run_to(tmp_path, "run", ["kepler-demo", *argv])
    assert code == 0
    payload = read_json(out / "kepler_demo.json")
    assert payload["max_position_gap"] < 1e-6
    assert payload["chart"]["rel_error"] < 1e-3


def test_kepler_demo_reports_a_run_that_does_not_complete(tmp_path, monkeypatch):
    from sodelab import dynamics

    monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
    code, out = run_to(tmp_path, "run", ["kepler-demo"])
    assert code == 1
    payload = read_json(out / "kepler_demo.json")
    assert payload["status"] == {"unfolded": "step_limit", "direct": "step_limit"}
    assert "max_position_gap" not in payload
    manifest = read_json(out / "run_manifest.json")
    assert (manifest["exit_code"], manifest["outputs"]) == (1, ["kepler_demo.json"])


def test_fosc_demo_matching_profile(capsys):
    code = main(["fosc-demo"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"] == "kepler-match-g1"
    assert payload["predicted_omega"] == pytest.approx(0.5)
    assert payload["rel_error"] < 1e-3
    assert payload["symplectic_residual"] < 1e-9


def test_fosc_demo_linear_profile(capsys):
    code = main(["fosc-demo", "--profile", "linear", "--param", "2.0",
                 "--level", "0.9"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predicted_omega"] == pytest.approx(2.0)
    assert payload["rel_error"] < 1e-3


# --- match -------------------------------------------------------------------


def test_match_two_energies(tmp_path):
    code, out = run_to(
        tmp_path,
        "run",
        ["match", "--energies=-0.5,-1", "--csv-samples", "64"],
    )
    assert code == 0
    payload = read_json(out / "matching.json")
    assert len(payload["pairs"]) == 2
    for pair in payload["pairs"]:
        assert set(pair) == {
            "label_A", "label_B", "omega_A", "omega_B", "rel_mismatch"
        }
        assert pair["rel_mismatch"] < 1e-3
    assert all(v < 1e-4 for v in payload["closures"].values())
    lines = (out / "figure.csv").read_text().splitlines()
    assert lines[0] == "t,absQ,absV,label"
    assert len(lines) == 1 + 4 * 64


def test_match_empty_grid_writes_headers_only(tmp_path):
    code, out = run_to(tmp_path, "run", ["match", "--energies="])
    assert code == 0
    payload = read_json(out / "matching.json")
    assert payload["pairs"] == []
    assert (out / "figure.csv").read_text() == "t,absQ,absV,label\n"


def test_match_without_figure_samples_still_reports_closures(tmp_path):
    code, out = run_to(tmp_path, "run", ["match", "--energies=-0.5", "--csv-samples", "0"])
    assert code == 0
    assert (out / "figure.csv").read_text() == "t,absQ,absV,label\n"
    closures = read_json(out / "matching.json")["closures"]
    assert len(closures) == 2
    assert all(math.isfinite(v) and v < 1e-4 for v in closures.values())


def test_match_grid_size_mismatch_exits_one(tmp_path):
    code, out = run_to(
        tmp_path,
        "run",
        ["match", "--energies=-0.5,-1", "--levels", "1.0"],
    )
    assert code == 1
    payload = read_json(out / "error.json")
    assert payload["error"] == "CardinalityMismatchError"


def test_match_energy_mode_fails_frequency_tolerance(tmp_path):
    code, out = run_to(
        tmp_path,
        "run",
        ["match", "--energies=-0.5,-1", "--mode", "energy"],
    )
    assert code == 1
    payload = read_json(out / "error.json")
    assert payload["error"] == "FrequencyMismatchError"


def test_match_is_byte_deterministic(tmp_path):
    argv = ["match", "--energies=-0.5,-1", "--csv-samples", "32"]
    _, first = run_to(tmp_path, "a", argv)
    _, second = run_to(tmp_path, "b", argv)
    for name in ("matching.json", "figure.csv", "run_manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
