import math
import sys

import numpy as np
import pytest

from sodelab import dynamics
from sodelab import kepler as kp
from sodelab import motions as mo
from sodelab.errors import CardinalityMismatchError, FrequencyMismatchError
from sodelab.foscillator import deformed_field, kepler_matching_deformation, make_oscillator

ENERGIES = (-0.5, -1.0, -2.0)


@pytest.fixture(scope="module")
def kepler_records():
    return mo.extract_kepler_motions(ENERGIES)


@pytest.fixture(scope="module")
def oscillator_records():
    system = make_oscillator(2)
    deformation = kepler_matching_deformation(1.0)
    levels = mo.matched_oscillator_grid(ENERGIES, g=1.0)
    return mo.extract_oscillator_motions(system, deformation, levels)


class TestGrids:
    def test_frequency_grid_solves_slope_equation(self):
        d = kepler_matching_deformation(1.0)
        for e, level in zip(ENERGIES, mo.matched_oscillator_grid(ENERGIES)):
            assert d.slope_at(level) == pytest.approx(
                kp.shell_frequency(e), rel=1e-12
            )

    def test_frequency_grid_values(self):
        levels = mo.matched_oscillator_grid(ENERGIES, g=1.0)
        assert levels[1] == pytest.approx(1.0)
        assert levels[0] == pytest.approx(0.5 ** (1.0 / 3.0))

    def test_energy_grid_copies_depths(self):
        assert mo.matched_oscillator_grid(ENERGIES, mode="energy") == (0.5, 1.0, 2.0)

    def test_grid_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mo.matched_oscillator_grid((0.5,))
        with pytest.raises(ValueError):
            mo.matched_oscillator_grid(ENERGIES, mode="nope")
        with pytest.raises(ValueError):
            mo.matched_oscillator_grid(ENERGIES, g=-1.0)


class TestExtraction:
    def test_kepler_measured_equals_shell(self, kepler_records):
        for rec in kepler_records:
            assert rec.kind == "kepler"
            assert rec.frequency == pytest.approx(
                rec.observables["shell"], rel=1e-6
            )

    def test_kepler_observable_relations(self, kepler_records):
        for rec in kepler_records:
            obs = rec.observables
            assert obs["mean_motion"] == pytest.approx(
                2 * obs["half_mean_motion"], rel=1e-15
            )
            e = rec.parameter
            assert obs["shell"] == pytest.approx(math.sqrt(2 * abs(e)), rel=1e-15)

    def test_kepler_states_sit_on_their_shells(self, kepler_records):
        for rec in kepler_records:
            assert kp.shell_residual(rec.state, rec.parameter) < 1e-12

    def test_oscillator_measured_equals_assigned(self, oscillator_records):
        for rec in oscillator_records:
            assert rec.kind == "oscillator"
            assert rec.frequency == pytest.approx(
                rec.observables["assigned"], rel=1e-6
            )

    def test_record_json_shape(self, kepler_records):
        blob = kepler_records[0].to_json()
        assert set(blob) == {"label", "kind", "parameter", "period", "observables"}
        assert set(blob["observables"]) == {
            "measured",
            "shell",
            "mean_motion",
            "half_mean_motion",
        }

    def test_bad_radius_scale_rejected(self):
        with pytest.raises(ValueError):
            mo.extract_kepler_motions(ENERGIES, radius_scale=2.0)


class TestMatching:
    def test_frequency_matching_succeeds(self, kepler_records, oscillator_records):
        matching = mo.match_motions(kepler_records, oscillator_records, tol=1e-3)
        assert len(matching.pairs) == 3
        for pair in matching.pairs:
            assert pair.rel_mismatch < 1e-3
        # bijective: each label appears exactly once per side
        assert len({p.record_a.label for p in matching.pairs}) == 3
        assert len({p.record_b.label for p in matching.pairs}) == 3

    def test_sorted_pairing_aligns_shells(self, kepler_records, oscillator_records):
        matching = mo.match_motions(kepler_records, oscillator_records)
        for pair in matching.pairs:
            e = pair.record_a.parameter
            level = pair.record_b.parameter
            assert level == pytest.approx(abs(e) ** (1.0 / 3.0), rel=1e-12)

    def test_energy_grid_fails_loudly(self, kepler_records):
        system = make_oscillator(2)
        deformation = kepler_matching_deformation(1.0)
        levels = mo.matched_oscillator_grid(ENERGIES, mode="energy")
        records = mo.extract_oscillator_motions(system, deformation, levels)
        with pytest.raises(FrequencyMismatchError):
            mo.match_motions(kepler_records, records, tol=1e-3)

    def test_cardinality_gap_rejected(self, kepler_records, oscillator_records):
        with pytest.raises(CardinalityMismatchError):
            mo.match_motions(kepler_records, oscillator_records[:2])

    def test_matching_json_shape(self, kepler_records, oscillator_records):
        blob = mo.match_motions(kepler_records, oscillator_records).to_json()
        assert set(blob) == {"tolerance", "pairs"}
        for entry in blob["pairs"]:
            assert set(entry) == {
                "label_A",
                "label_B",
                "omega_A",
                "omega_B",
                "rel_mismatch",
            }


class TestCurves:
    def test_curves_close(self, kepler_records, oscillator_records):
        for rec in (*kepler_records, *oscillator_records):
            _, _, closure = mo.record_curve(rec, samples_per_period=64)
            assert closure < 1e-6

    def test_kepler_curves_respect_shell_relation(self, kepler_records):
        for rec in kepler_records:
            _, states, _ = mo.record_curve(rec, samples_per_period=128)
            worst = max(kp.shell_residual(s, rec.parameter) for s in states)
            assert worst < 1e-8

    def test_kepler_curves_oscillate(self, kepler_records):
        # the sub-equipartition start makes |Q| genuinely move
        _, states, _ = mo.record_curve(kepler_records[0], samples_per_period=128)
        radii = np.linalg.norm(states[:, :4], axis=1)
        assert float(np.max(radii) - np.min(radii)) > 0.1

    def test_figure_rows_shape(self, oscillator_records):
        rows, closures = mo.figure_rows(oscillator_records[:1], samples_per_period=32)
        assert len(rows) == 32
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(oscillator_records[0].period)
        assert all(r[3] == oscillator_records[0].label for r in rows)
        assert set(closures) == {oscillator_records[0].label}

    def test_figure_csv_deterministic(self, tmp_path, oscillator_records):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        mo.write_figure_csv(p1, oscillator_records[:2], samples_per_period=16)
        mo.write_figure_csv(p2, oscillator_records[:2], samples_per_period=16)
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        assert b1.startswith(b"t,absQ,absV,label\n")
        assert len(b1.splitlines()) == 1 + 2 * 16


class TestOneIntegrationPerMotion:
    """The figure curves are sampled from the period run, not integrated again.

    The fixtures are ``match``'s default grid: energies -0.5, -1, -2 at
    radius scale 0.8, and the frequency-matched oscillator levels.
    """

    def test_curves_make_no_integrate_call(
        self, monkeypatch, kepler_records, oscillator_records
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate was called")

        integrate = dynamics.integrate
        for name, module in list(sys.modules.items()):
            if name.startswith("sodelab"):
                for attr, value in list(vars(module).items()):
                    if value is integrate:
                        monkeypatch.setattr(module, attr, refuse)
        records = (*kepler_records, *oscillator_records)
        for rec in records:
            mo.record_curve(rec)
        rows, closures = mo.figure_rows(records, samples_per_period=16)
        assert len(rows) == 16 * len(records)
        assert set(closures) == {rec.label for rec in records}

    def test_period_run_repeats_a_fresh_run(self, kepler_records, oscillator_records):
        # integrate's step sequence depends on t_end only through the clip of
        # the last step, so a fresh run over [0, T] repeats the period run's
        # nodes below T exactly
        fields = {
            "kepler": kp.chart_field(),
            "oscillator": deformed_field(make_oscillator(2), kepler_matching_deformation(1.0)),
        }
        for rec in (*kepler_records, *oscillator_records):
            fresh = dynamics.integrate(fields[rec.kind].ode_rhs, rec.state, rec.period)
            assert fresh.status == "completed"
            run = rec.trajectory
            below = run.times < rec.period
            k = int(np.count_nonzero(below))
            assert k == len(fresh.times) - 1  # all but the clipped last node
            assert np.array_equal(run.times[below], fresh.times[:k])
            assert np.array_equal(run.states[below], fresh.states[:k])
            assert np.array_equal(run.dense[: k - 1], fresh.dense[: k - 1])
            times, states, _ = mo.record_curve(rec)
            assert np.max(np.abs(states - fresh.sample_many(times))) <= 1e-10

    def test_closure_does_not_depend_on_the_sample_count(
        self, kepler_records, oscillator_records
    ):
        for rec in (*kepler_records, *oscillator_records):
            curves = {n: mo.record_curve(rec, samples_per_period=n) for n in (0, 1, 512)}
            assert curves[0][0].shape == (0,)
            assert curves[0][1].shape == (0, len(rec.state))
            closures = {curve[2] for curve in curves.values()}
            assert len(closures) == 1
            assert 0.0 < closures.pop() < 1e-6

    def test_period_json_leaves_the_run_out(self, kepler_records):
        rec = kepler_records[0]
        estimate = dynamics.estimate_period(kp.chart_field().ode_rhs, rec.state)
        assert estimate.trajectory.final_time > 2.0 * estimate.period - 1e-6
        assert set(estimate.to_json()) == {"period", "return_residual", "second_return"}


class TestAngleFlow:
    def test_circular_shell_orbit_turns_uniformly(self):
        rec = mo.extract_kepler_motions((-0.5,), radius_scale=1.0)[0]
        times, states, _ = mo.record_curve(rec, samples_per_period=128)
        res = mo.angle_flow_residual(
            times, states[:, 0], states[:, 1], kp.shell_frequency(-0.5)
        )
        assert res < 1e-6

    def test_eccentric_shell_orbit_does_not(self):
        rec = mo.extract_kepler_motions((-0.5,), radius_scale=0.6)[0]
        times, states, _ = mo.record_curve(rec, samples_per_period=128)
        res = mo.angle_flow_residual(
            times, states[:, 0], states[:, 1], kp.shell_frequency(-0.5)
        )
        assert res > 1e-2

    def test_oscillator_phase_plane_turns_uniformly(self, oscillator_records):
        rec = oscillator_records[1]
        times, states, _ = mo.record_curve(rec, samples_per_period=128)
        res = mo.angle_flow_residual(
            times, states[:, 0], -states[:, 2], rec.frequency
        )
        assert res < 1e-6
