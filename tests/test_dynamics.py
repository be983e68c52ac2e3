"""Integrator accuracy, blow-up reporting, dense output, period detection."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sodelab import dynamics as dyn
from sodelab import kepler as kp
from sodelab.dynamics import (
    Trajectory,
    conserved_drift,
    estimate_period,
    integrate,
)
from sodelab.errors import NotPeriodicError
from sodelab.expr import qv_context
from sodelab.fields import VectorField


def circle_rhs(t, y):
    return np.array([y[1], -y[0]])


def van_der_pol_rhs(t, y):
    # mu = 5: stiff enough that the controller rejects a few steps
    return np.array([y[1], 5.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])


def counting(f):
    """``f`` wrapped with a call counter, read as ``wrapped.calls``."""

    def wrapped(t, y):
        wrapped.calls += 1
        return f(t, y)

    wrapped.calls = 0
    return wrapped


class TestAccuracy:
    def test_harmonic_oscillator_full_turn(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 2 * math.pi, rtol=1e-10, atol=1e-12)
        assert traj.status == "completed"
        np.testing.assert_allclose(traj.final_state, [1.0, 0.0], atol=1e-8)

    def test_exponential_growth(self):
        traj = integrate(lambda t, y: y, (1.0,), 1.0, rtol=1e-10, atol=1e-12)
        assert traj.final_state[0] == pytest.approx(math.e, rel=1e-9)

    def test_nonautonomous_rhs(self):
        traj = integrate(lambda t, y: np.array([2 * t]), (0.0,), 3.0, rtol=1e-10, atol=1e-12)
        assert traj.final_state[0] == pytest.approx(9.0, rel=1e-10)

    def test_energy_drift_stays_small(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 50.0, rtol=1e-10, atol=1e-12)
        drift = conserved_drift(lambda y: y[0] ** 2 + y[1] ** 2, traj)
        assert drift < 1e-7

    def test_tightening_tolerance_pays_off(self):
        # ratio 100 in rtol should buy well over a factor 4 in global error
        t_end = 10.0
        exact = np.array([math.cos(t_end), -math.sin(t_end)])

        def err(rtol, atol):
            traj = integrate(circle_rhs, (1.0, 0.0), t_end, rtol=rtol, atol=atol)
            return np.linalg.norm(traj.final_state - exact)

        loose = err(1e-6, 1e-9)
        tight = err(1e-8, 1e-11)
        assert tight < loose / 4.0

    def test_step_counts_reported(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 10.0, rtol=1e-8, atol=1e-10)
        assert traj.accepted == len(traj.times) - 1
        assert traj.accepted > 10
        assert traj.rejected >= 0

    @pytest.mark.parametrize(
        "f, y0, rejects",
        [
            (circle_rhs, (1.0, 0.0), False),
            (van_der_pol_rhs, (2.0, 0.0), True),
        ],
    )
    def test_nfev_counts_every_rhs_call(self, f, y0, rejects):
        rhs = counting(f)
        traj = integrate(rhs, y0, 10.0, rtol=1e-6, atol=1e-9)
        assert (traj.rejected > 0) == rejects
        # the initial value, the initial-step probe, 12 stages per attempted
        # step and 3 dense-output stages per accepted one (the DP5 core took
        # 2 + 6 * attempted)
        assert traj.nfev == 2 + 12 * (traj.accepted + traj.rejected) + 3 * traj.accepted
        assert traj.nfev == rhs.calls

    def test_stop_hook_ends_the_run(self):
        seen = []

        # the hook sees the dense-output coefficients (it saw node derivatives)
        def past_one(times, states, dense):
            seen.append(len(times))
            return times[-1] > 1.0

        traj = integrate(circle_rhs, (1.0, 0.0), 10.0, stop=past_one)
        full = integrate(circle_rhs, (1.0, 0.0), 10.0)
        assert traj.status == "stopped"
        assert seen == list(range(2, len(traj.times) + 1))
        assert traj.times[-2] <= 1.0 < traj.final_time
        # the steps taken before the stop are those of the full run
        n = len(traj.times)
        assert np.array_equal(traj.times, full.times[:n])
        assert np.array_equal(traj.states, full.states[:n])

    def test_forward_only(self):
        with pytest.raises(ValueError):
            integrate(circle_rhs, (1.0, 0.0), -1.0)

    def test_vector_field_adapter(self):
        ctx = qv_context(1)
        field = VectorField.of(ctx, "v1", "-q1")
        traj = integrate(field.ode_rhs, (1.0, 0.0), math.pi, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(traj.final_state, [-1.0, 0.0], atol=1e-8)


class TestBlowUp:
    def test_quadratic_escape_is_bracketed(self):
        # dy/dt = y^2 from y(0) = 1 escapes at t = 1
        traj = integrate(lambda t, y: y * y, (1.0,), 2.0, rtol=1e-8, atol=1e-10)
        assert traj.status == "blow_up"
        lo, hi = traj.blow_up_bracket
        assert 0.99 < lo <= hi < 1.01
        assert np.all(np.isfinite(traj.states))
        assert abs(traj.final_state[0]) <= 1e8

    def test_last_rows_retained(self):
        traj = integrate(lambda t, y: y * y, (1.0,), 2.0, rtol=1e-8, atol=1e-10)
        assert traj.final_time < 1.0
        assert traj.final_state[0] > 1e6

    def test_domain_error_treated_as_failure(self):
        def rhs(t, y):
            from sodelab.errors import EvaluationDomainError

            if y[0] > 2.0:
                raise EvaluationDomainError("outside the chart")
            return np.array([y[0]])

        traj = integrate(rhs, (1.0,), 5.0, rtol=1e-8, atol=1e-10)
        # the NaN stages reject every step until the step underflows
        assert traj.status == "step_underflow"
        lo, hi = traj.blow_up_bracket
        assert lo <= math.log(2.0) + 1e-6 <= hi + 0.5

    def test_chattering_field_ends_at_the_step_limit(self):
        # -sign(y - 0.5) flips at 0.5: the run crawls there on tiny accepted
        # steps until the budget is spent, and min_step shows why
        traj = integrate(lambda t, y: -np.sign(y - 0.5), (0.0,), 10.0, max_steps=500)
        assert traj.status == "step_limit"
        assert traj.blow_up_bracket is None
        assert traj.accepted + traj.rejected == 500
        assert traj.final_time < 0.51
        assert abs(traj.final_state[0] - 0.5) < 1e-6
        assert traj.min_step < 1e-8

    def test_min_step_is_the_smallest_accepted_step(self):
        traj = integrate(van_der_pol_rhs, (2.0, 0.0), 10.0, rtol=1e-6, atol=1e-9)
        assert traj.min_step == pytest.approx(np.min(np.diff(traj.times)), rel=1e-12)

    def test_completed_runs_have_no_bracket(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 1.0)
        assert traj.status == "completed"
        assert traj.blow_up_bracket is None


class TestDenseOutput:
    def test_matches_closed_form_between_nodes(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 10.0, rtol=1e-10, atol=1e-12)
        ts = np.linspace(0.0, 10.0, 257)
        values = traj.sample_many(ts)
        exact = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
        assert np.max(np.abs(values - exact)) < 1e-6

    def test_interpolation_error_tracks_tolerance(self):
        # the interpolant may lose about an order against the step error
        rtol = 1e-4
        traj = integrate(circle_rhs, (1.0, 0.0), 10.0, rtol=rtol, atol=1e-7)
        ts = np.linspace(0.0, 10.0, 513)
        values = traj.sample_many(ts)
        exact = np.stack([np.cos(ts), -np.sin(ts)], axis=1)
        assert np.max(np.abs(values - exact)) < 10 * rtol

    def test_nodes_reproduced_exactly(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 5.0)
        for i in (0, len(traj.times) // 2, -1):
            np.testing.assert_allclose(
                traj.sample(float(traj.times[i])), traj.states[i], atol=1e-12
            )

    def test_sample_many_equals_sample_bitwise(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 10.0, rtol=1e-8, atol=1e-10)
        t0, t1 = float(traj.times[0]), float(traj.final_time)
        ts = np.concatenate(
            [
                np.linspace(t0, t1, 4096),
                traj.times,
                [t0 - 1e-13, t1 + 1e-13, np.nextafter(t0, t1), np.nextafter(t1, t0)],
            ]
        )
        many = traj.sample_many(ts)
        one_by_one = np.array([traj.sample(float(t)) for t in ts])
        assert many.shape == one_by_one.shape == (len(ts), 2)
        assert np.array_equal(many.view(np.uint64), one_by_one.view(np.uint64))

    def test_range_check_shared_and_rejects_nan(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 1.0)
        for bad in (2.0, -0.5, math.nan):
            with pytest.raises(ValueError):
                traj.sample(bad)
            with pytest.raises(ValueError):
                traj.sample_many([0.5, bad])

    def test_out_of_range_rejected(self):
        traj = integrate(circle_rhs, (1.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            traj.sample(2.0)
        with pytest.raises(ValueError):
            traj.sample(-0.5)


class TestCsv:
    def test_round_trip(self, tmp_path):
        traj = integrate(circle_rhs, (1.0, 0.0), 1.0, rtol=1e-8, atol=1e-10)
        path = tmp_path / "orbit.csv"
        traj.write_csv(path, names=("q1", "v1"))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,q1,v1"
        cells = lines[-1].split(",")
        assert float(cells[0]) == pytest.approx(1.0)
        assert float(cells[1]) == pytest.approx(traj.final_state[0], rel=1e-15)

    def test_default_names(self, tmp_path):
        traj = integrate(circle_rhs, (1.0, 0.0), 0.5)
        path = tmp_path / "orbit.csv"
        traj.write_csv(path)
        assert path.read_text().split("\n")[0] == "t,x1,x2"


class TestPeriodDetection:
    def test_circle(self):
        estimate = estimate_period(circle_rhs, (1.0, 0.0))
        assert estimate.period == pytest.approx(2 * math.pi, rel=1e-8)
        assert estimate.residual < 1e-6
        assert estimate.second_return == pytest.approx(4 * math.pi, rel=1e-6)

    def test_stops_at_the_second_return(self):
        rhs = counting(circle_rhs)
        estimate = estimate_period(rhs, (1.0, 0.0))
        # the run ends just past the second return at 4*pi (about 620 calls;
        # 3,075 with the DP5 core)
        assert rhs.calls < 4000
        # DP5 core: 0x1.921fb54442a66p+2 and 0x1.921fb54442882p+3
        assert estimate.period.hex() == "0x1.921fb5444f768p+2"
        assert estimate.second_return.hex() == "0x1.921fb5444ed40p+3"

    def test_kepler_chart_period_bits(self):
        field = kp.chart_field()
        estimate = estimate_period(field.ode_rhs, kp.shell_representative(-0.5))
        # DP5 core: 0x1.921fb5444b32ap+2
        assert estimate.period.hex() == "0x1.921fb54413636p+2"

    def test_anisotropic_start_point(self):
        # same orbit entered at a generic phase
        estimate = estimate_period(circle_rhs, (0.6, 0.8))
        assert estimate.period == pytest.approx(2 * math.pi, rel=1e-8)

    def test_two_frequency_oscillator(self):
        def rhs(t, y):
            return np.array([y[2], y[3], -y[0], -4.0 * y[1]])

        estimate = estimate_period(rhs, (1.0, 0.5, 0.0, 0.0))
        assert estimate.period == pytest.approx(2 * math.pi, rel=1e-6)

    def test_incommensurate_frequencies_rejected(self):
        def rhs(t, y):
            return np.array([y[2], y[3], -y[0], -2.0 * y[1]])

        with pytest.raises(NotPeriodicError):
            estimate_period(rhs, (1.0, 0.5, 0.0, 0.0), t_max=200.0)

    def test_unbounded_motion_rejected(self):
        with pytest.raises(NotPeriodicError):
            estimate_period(lambda t, y: np.array([1.0]), (0.0,), t_max=50.0)

    def test_equilibrium_rejected(self):
        with pytest.raises(NotPeriodicError):
            estimate_period(circle_rhs, (0.0, 0.0))


class TestConservedDrift:
    def test_linear_drift_detected(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.array([[0.0], [1.0], [2.0]]),
            dense=np.zeros((2, 7, 1)),
            status="completed",
            accepted=2,
            rejected=0,
        )
        assert conserved_drift(lambda y: y[0], traj) == 2.0


class TestScipyOracle:
    """scipy's DOP853 as a test-only oracle; the runtime never imports scipy."""

    def test_tables_equal_scipy(self):
        ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert np.array_equal(dyn._C, ref.C)
        assert np.array_equal(dyn._A, ref.A)
        # scipy pads both error rows with a zero weight on the FSAL stage
        assert np.array_equal(dyn._E3, ref.E3[:12]) and ref.E3[12] == 0.0
        assert np.array_equal(dyn._E5, ref.E5[:12]) and ref.E5[12] == 0.0
        assert np.array_equal(dyn._D, ref.D)

    @pytest.mark.parametrize("case", ["chart-field", "circle"])
    def test_nfev_and_end_state_match_scipy(self, case):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        if case == "circle":
            f, y0 = circle_rhs, np.array([1.0, 0.0])
        else:
            f, y0 = kp.chart_field().ode_rhs, kp.shell_representative(-0.5)
        ours = integrate(f, y0, 2 * math.pi, rtol=1e-10, atol=1e-12)
        # scipy counts the dense-output stages only when asked for them
        ref = solve_ivp(
            f, (0.0, 2 * math.pi), y0, method="DOP853", rtol=1e-10, atol=1e-12,
            dense_output=True,
        )
        assert ours.status == "completed" and ref.success
        assert abs(ours.nfev - ref.nfev) <= 0.15 * ref.nfev
        assert np.max(np.abs(ours.final_state - ref.y[:, -1])) < 1e-12

    def test_cli_import_leaves_scipy_out(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, sodelab.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
