"""Integrator accuracy, blow-up reporting, dense output, period detection."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodelab import dynamics as dyn
from sodelab import kepler as kp
from sodelab.dynamics import (
    Trajectory,
    conserved_drift,
    estimate_period,
    integrate,
)
from sodelab.errors import EvaluationDomainError, NotPeriodicError
from sodelab.expr import VariableContext, qv_context
from sodelab.fields import VectorField
from sodelab.foscillator import (
    deformed_field,
    kepler_matching_deformation,
    make_oscillator,
    shell_state,
)


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


def failing_once(f, n):
    """``f`` that raises a domain error on its ``n``-th call, and only there."""
    calls = 0

    def wrapped(t, y):
        nonlocal calls
        calls += 1
        if calls == n:
            raise EvaluationDomainError("transient")
        return f(t, y)

    return wrapped


def step_midpoints(traj):
    """One time inside each accepted step, so sampling there reads every interpolant."""
    return 0.5 * (traj.times[:-1] + traj.times[1:])


def budgeted(f, calls):
    """``f`` that fails the test on any call beyond the first ``calls``."""
    wrapped = counting(f)

    def guarded(t, y):
        assert wrapped.calls < calls, "the field was called after the argument check"
        return wrapped(t, y)

    return guarded


def reference_read(traj, ts):
    """``traj.sample_many(ts)`` as it read before it gathered each coefficient
    row once: every row fetched from one ``(steps, 7, dim)`` table by fancy
    indexing, and the Horner form summed into new arrays.  It reads a node
    time from the step starting there, at fraction 0."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    times, dim = traj.times, traj.states.shape[1]
    out = np.empty((len(ts), dim))
    last = ts >= times[-1]
    first = ~last & (ts <= times[0])
    inner = ~(last | first)
    out[last] = traj.states[-1]
    out[first] = traj.states[0]
    t = ts[inner]
    i = np.searchsorted(times, t, side="right") - 1
    x = ((t - times[i]) / (times[i + 1] - times[i]))[:, None]
    read, row = np.unique(i, return_inverse=True)
    table = np.array([dyn._interpolant(traj._steps, j) for j in read.tolist()])
    table = table.reshape(len(read), 7, dim)
    u = 1.0 - x
    acc = table[row, 6] * x
    for k, w in ((5, u), (4, x), (3, u), (2, x), (1, u), (0, x)):
        acc = (table[row, k] + acc) * w
    out[inner] = traj.states[i] + acc
    return out


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
        # the initial value, the initial-step probe and 12 stages per
        # attempted step (the DP5 core took 2 + 6 * attempted); no
        # interpolant is built before a read
        assert traj.nfev == 2 + 12 * (traj.accepted + traj.rejected)
        assert traj.nfev == rhs.calls
        # reading every step builds each interpolant once: 3 stages apiece
        traj.sample_many(step_midpoints(traj))
        assert traj.nfev == 2 + 12 * (traj.accepted + traj.rejected) + 3 * traj.accepted
        assert traj.nfev == rhs.calls
        traj.sample_many(traj.times)
        assert traj.nfev == rhs.calls

    def test_wrapped_field_is_called_nfev_times(self):
        # a functools.wraps wrapper copies the adapter's attributes, yet the
        # integrator must call through it, so tracers see every RHS call
        field = kp.chart_field()
        calls = 0

        @functools.wraps(field.ode_rhs)
        def traced(t, y):
            nonlocal calls
            calls += 1
            return field.ode_rhs(t, y)

        y0 = kp.shell_representative(-0.5)
        traj = integrate(traced, y0, 2.0, rtol=1e-10, atol=1e-12)
        direct = integrate(field.ode_rhs, y0, 2.0, rtol=1e-10, atol=1e-12)
        assert calls == traj.nfev == direct.nfev
        assert np.array_equal(traj.states, direct.states)
        mids = step_midpoints(traj)
        assert np.array_equal(traj.sample_many(mids), direct.sample_many(mids))
        assert calls == traj.nfev == direct.nfev

    def test_stop_hook_ends_the_run(self):
        seen = []
        built = []

        # the hook gets a callable that builds the newest step's interpolant
        # (it got the coefficient list, and before that node derivatives)
        def past_one(times, states, interpolant):
            seen.append(len(times))
            if len(times) % 2:
                coeffs = interpolant()
                assert len(coeffs) == 7 * 2
                assert interpolant() is coeffs  # built once
                built.append(coeffs)
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
        # the steps the hook built count 3 RHS calls each, and the trajectory
        # reuses them: reading every step adds 3 calls for each other step
        attempted = 2 + 12 * (traj.accepted + traj.rejected)
        assert traj.nfev == attempted + 3 * len(built)
        traj.sample_many(step_midpoints(traj))
        assert traj.nfev == attempted + 3 * traj.accepted
        assert [dyn._interpolant(traj._steps, j) for j in range(1, n - 1, 2)] == built

    def test_lazy_coefficients_equal_those_built_at_step_time(self):
        # building every interpolant inside the hook, right after its step
        # is accepted, is what the eager integrator did; a read after the
        # run must build the same bits
        field = kp.chart_field()
        y0 = kp.shell_representative(-0.5)
        at_step = []

        def build_each(times, states, interpolant):
            at_step.append(interpolant())
            return False

        eager = integrate(field.ode_rhs, y0, 2.0 * math.pi, stop=build_each)
        lazy = integrate(field.ode_rhs, y0, 2.0 * math.pi)
        assert eager.status == lazy.status == "completed"
        assert lazy.nfev == eager.nfev - 3 * eager.accepted
        mids = step_midpoints(lazy)
        assert np.array_equal(lazy.sample_many(mids), eager.sample_many(mids))
        assert lazy.nfev == eager.nfev
        lazy_coeffs = [dyn._interpolant(lazy._steps, j) for j in range(lazy.accepted)]
        assert np.array_equal(
            np.array(lazy_coeffs).view(np.uint64), np.array(at_step).view(np.uint64)
        )

    def test_forward_only(self):
        with pytest.raises(ValueError):
            integrate(circle_rhs, (1.0, 0.0), -1.0)

    @pytest.mark.parametrize(
        "t_end, rtol, atol",
        [
            (1.0, 1e-10, 0.0),
            (1.0, 1e-10, math.nan),
            (1.0, math.inf, 1e-12),
            (1.0, -1e-3, 1e-12),
            (1.0, 1e-10, -1e-12),
            (math.inf, 1e-10, 1e-12),
            (math.nan, 1e-10, 1e-12),
        ],
    )
    def test_tolerances_and_horizon_must_be_finite_and_positive(self, t_end, rtol, atol):
        # refused before the first RHS call
        with pytest.raises(ValueError, match="finite and positive"):
            integrate(budgeted(circle_rhs, 0), (0.0, 1.0), t_end, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("rtol, atol", [(1e-10, 0.0), (-1e-3, 1e-12)])
    def test_period_detection_inherits_the_tolerance_check(self, rtol, atol):
        # one RHS call gives the section normal; integrate refuses the rest
        with pytest.raises(ValueError, match="finite and positive"):
            estimate_period(budgeted(circle_rhs, 1), (0.0, 1.0), rtol=rtol, atol=atol)

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
            if y[0] > 2.0:
                raise EvaluationDomainError("outside the chart")
            return np.array([y[0]])

        traj = integrate(rhs, (1.0,), 5.0, rtol=1e-8, atol=1e-10)
        # every attempt with a stage past y = 2 fails and is rejected, until
        # the step underflows
        assert traj.status == "step_underflow"
        lo, hi = traj.blow_up_bracket
        assert lo <= math.log(2.0) + 1e-6 <= hi + 0.5

    def test_field_domain_error_treated_as_failure(self):
        # dx/dt = x up to x = 2, past which the generated field function
        # takes the square root of a negative number
        field = VectorField.of(VariableContext.of("x"), "x*sqrt(2 - x)/sqrt(2 - x)")
        traj = integrate(field.ode_rhs, (1.0,), 5.0, rtol=1e-8, atol=1e-10)
        assert traj.status == "step_underflow"
        lo, hi = traj.blow_up_bracket
        assert lo <= math.log(2.0) + 1e-6 <= hi + 0.5

    @pytest.mark.parametrize("n", range(3, 15))
    def test_a_domain_error_at_any_stage_rejects_its_attempt(self, n):
        # calls 1 and 2 are the initial value and the step probe, calls 3-14
        # stages 1-12 of the first attempt: the last is the FSAL stage, which
        # the error norm does not weigh, so its failure must reject too
        traj = integrate(failing_once(circle_rhs, n), (1.0, 0.0), 1.0)
        assert (traj.status, traj.accepted, traj.rejected) == ("completed", 7, 1)

    def test_a_field_undefined_at_one_node_steps_around_it(self):
        # the field below is the plain one but undefined at x, the plain run's
        # 4th node: the run on it reaches x as an attempt's end, whose FSAL
        # stage fails there, and that attempt is retried smaller
        ctx = VariableContext.of("x")
        plain = integrate(VectorField.of(ctx, "1 + 0.5*x").ode_rhs, (0.0,), 3.0)
        x = float(plain.states[3, 0])
        field = VectorField.of(ctx, f"(1 + 0.5*x) * ((x - {x!r}) / (x - {x!r}))")
        traj = integrate(field.ode_rhs, (0.0,), 3.0)
        assert traj.status == "completed"
        assert traj.rejected == 1
        assert x not in traj.states[:, 0].tolist()

    def test_chattering_field_ends_at_the_step_limit(self, monkeypatch):
        # -sign(y - 0.5) flips at 0.5: the run crawls there on tiny accepted
        # steps until the budget is spent, and min_step shows why
        monkeypatch.setattr(dyn, "_MAX_STEPS", 500)
        traj = integrate(lambda t, y: -np.sign(y - 0.5), (0.0,), 10.0)
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

    @pytest.mark.parametrize("start", [(1.0, 0.0), (1.0, 0.5)])
    def test_tiny_atol_keeps_the_initial_step_finite(self, start):
        # from (1, 0), f0 / (atol + rtol |y0|) overflows: the initial-step
        # estimate must fall back to a finite step, not divide by zero
        field = VectorField.of(VariableContext.of("q1", "v1"), "v1", "-q1")
        traj = integrate(field.ode_rhs, start, 1.0, rtol=1e-10, atol=1e-160)
        assert traj.status == "completed"
        assert traj.final_time == 1.0

    def test_short_horizon_is_not_an_underflow(self):
        # the first step, clipped to the 1e-15 span, sits below the 1e-14
        # step floor without having been shrunk by the controller
        traj = integrate(circle_rhs, (1.0, 0.0), 1e-15)
        assert traj.status == "completed"
        assert traj.accepted == 1
        assert traj.final_time == 1e-15

    def test_small_first_guess_is_not_an_underflow(self):
        # one period of the E = -1e6 circular orbit: the initial-step guess,
        # 2.5e-15, sits below the 1e-14 floor, yet that step is accepted and
        # the steps then grow; the floor waits for a rejection
        t_end = 2.2214e-9
        traj = integrate(
            kp.kepler3d_field().ode_rhs, kp.kepler3d_circular_state(-1e6), t_end
        )
        assert traj.status == "completed"
        assert traj.blow_up_bracket is None
        assert traj.final_time == t_end
        assert traj.min_step < 1e-14 * max(1.0, t_end)


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

    @pytest.mark.parametrize("stage", [13, 14, 15])
    def test_a_domain_error_while_building_an_interpolant_makes_it_nan(self, stage):
        # the run's own calls come first; the first read then builds step 0
        # (stages 13-15), and one of them fails
        calls = integrate(circle_rhs, (1.0, 0.0), 1.0).nfev
        traj = integrate(failing_once(circle_rhs, calls + stage - 12), (1.0, 0.0), 1.0)
        t0, t1, t2 = traj.times[:3]
        inside = t0 + (t1 - t0) * np.array([1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9])
        values = traj.sample_many([t0, *inside, t1, 0.5 * (t1 + t2)])
        assert np.all(np.isnan(values[1:-2]))
        assert np.all(np.isnan(dyn._interpolant(traj._steps, 0)))  # all 7 rows
        assert np.array_equal(values[[0, -2]], traj.states[:2])
        assert np.all(np.isfinite(values[-1]))  # step 1 is built from its own stages

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

    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_the_read_keeps_the_bits_and_nfev_of_the_reference(self, dim):
        rng = np.random.default_rng(40 + dim)
        # a seeded linear field: a rotation-dominated matrix with a small damping
        a = rng.normal(size=(dim, dim))
        a = a - a.T - 0.05 * np.eye(dim)
        y0 = rng.uniform(-1.0, 1.0, dim)
        runs = [integrate(lambda t, y: a @ y, y0, t_end) for t_end in (3.0, 1e-4)]
        assert runs[1].accepted == 1
        for run in runs:
            t0, t1 = float(run.times[0]), float(run.final_time)
            grid = np.linspace(t0, t1, 257)[1:-1]
            drawn = rng.uniform(t0, t1, 100)
            cases = {
                "sorted": grid,
                "unsorted": rng.permutation(np.concatenate([grid, drawn])),
                "repeated": np.repeat(drawn[:20], 3),
                "ends": [t0, t1, t1, t0],
                "just outside": [t0 - 1e-12, t1 + 1e-12, t0 - 5e-13, t1 + 5e-13],
                "empty": [],
            }
            for name, ts in cases.items():
                ts = np.asarray(ts, dtype=float)
                assert not np.isin(ts, run.times[1:-1]).any()  # node times read exactly
                # two copies of the run, each with no interpolant built yet
                ours = dataclasses.replace(run, _steps=list(run._steps))
                theirs = dataclasses.replace(run, _steps=list(run._steps))
                got, want = ours.sample_many(ts), reference_read(theirs, ts)
                assert got.shape == want.shape == (len(ts), dim), name
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
                assert ours.nfev == theirs.nfev, name

    def test_a_node_time_reads_its_state_where_its_step_is_nan(self):
        # the run's own calls come first; the first read then builds step 1,
        # and its first dense stage fails
        calls = integrate(circle_rhs, (1.0, 0.0), 1.0).nfev
        traj = integrate(failing_once(circle_rhs, calls + 1), (1.0, 0.0), 1.0)
        t1, t2 = traj.times[1:3]
        assert np.all(np.isnan(traj.sample(0.5 * (t1 + t2))))
        assert np.array_equal(traj.sample(t1), traj.states[1])
        # a node time builds no step
        nfev = traj.nfev
        nodes = traj.sample_many(traj.times)
        assert traj.nfev == nfev
        assert np.array_equal(nodes.view(np.uint64), traj.states.view(np.uint64))

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
        columns = [traj.times, *traj.states.T, ["circle"] * len(traj.times)]
        dyn.write_csv(path, ["t", "q1", "v1", "label"], columns)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,q1,v1,label"
        assert len(lines) == len(traj.times) + 1
        cells = lines[-1].split(",")
        assert float(cells[0]) == traj.final_time
        assert [float(c) for c in cells[1:3]] == traj.final_state.tolist()
        assert cells[3] == "circle"

    @staticmethod
    def _reference(header, columns):
        """The per-cell formatting the kernel must reproduce, row by row."""
        lines = [",".join(header)]
        for row in zip(*columns):
            lines.append(",".join(c if isinstance(c, str) else f"{c:.17g}" for c in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _adversarial():
        """Floats where a fast float-to-text path is most likely to slip."""
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        odd = np.arange(4 * 10**15 + 1, 9 * 10**15, 10**11 + 2) / 4  # exact ties m/4
        return np.concatenate([
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
             2.2250738585072014e-308, 1.7976931348623157e308],
            np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
            [1e16, 1e17, 99999999999999999.0, 9.9999999999999999e-5,
             9.9999999999999999e-12, 9.999999999999999e43, 1e44, 0.1, -1 / 3],
            odd, -odd,
        ])

    def test_bytes_match_the_per_cell_reference(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, -0.0, 1e-310, 1e300, 0.1, -1 / 3]
        ints = [0, -7, 2**60 + 1, 10**20, 5, 1, 2, 3]
        columns = [
            floats,
            ints,
            np.multiply(floats, 3),
            np.negative(floats),
            [f"label-{n}" for n in ints],
        ]
        header = ["x", "n", "x3", "neg", "label"]
        path = tmp_path / "mixed.csv"
        dyn.write_csv(path, header, columns)
        assert path.read_bytes() == self._reference(header, columns).encode()

        hard = self._adversarial()
        columns = [hard, hard[::-1].copy(), np.multiply(hard, 1e-300)]
        dyn.write_csv(path, ["a", "b", "c"], columns)
        expected = self._reference(["a", "b", "c"], [c.tolist() for c in columns])
        assert path.read_bytes() == expected.encode()

        big = [2**53 + 1, 2**63 - 1, 2**64 + 3, 10**30 + 1, -(2**60) - 1]
        flags = [True, False, True, False, True]
        dyn.write_csv(path, ["big", "flag"], [big, flags])
        assert path.read_bytes() == self._reference(["big", "flag"], [big, flags]).encode()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True),
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
            ),
            max_size=40,
        )
    )
    def test_any_float_and_text_match_the_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "any.csv"
        floats = [v for v, _ in rows]
        texts = [s for _, s in rows]
        columns = [floats, texts] if any(texts) else [floats]
        header = ["v", "s"][: len(columns)]
        dyn.write_csv(path, header, columns)
        assert path.read_bytes() == self._reference(header, columns).encode()

    def test_without_a_wide_longdouble_every_cell_takes_the_fallback(
        self, tmp_path, monkeypatch
    ):
        # as on a platform whose longdouble is a double: no cell can be
        # rounded with certainty, so each goes to "%.17g" and the bytes stay
        rng = np.random.default_rng(7)
        values = np.concatenate([rng.uniform(-10, 10, 300), self._adversarial()])
        monkeypatch.setattr(dyn, "_LONGDOUBLE_EPS", float(np.finfo(np.float64).eps))
        _, blank = dyn._csv_cells(values)
        assert set(np.flatnonzero(values != 0)) <= set(blank)
        path = tmp_path / "fallback.csv"
        dyn.write_csv(path, ["v"], [values])
        assert path.read_bytes() == self._reference(["v"], [values.tolist()]).encode()

    def test_non_finite_and_huge_cells_raise_no_warning(self, tmp_path):
        signalling = np.array([0x7FF0_0000_0000_0001], np.uint64).view(np.float64)
        values = np.array([math.nan, math.inf, -math.inf, 1e300, -1e300, signalling[0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dyn.write_csv(tmp_path / "odd.csv", ["v"], [values])
        assert (tmp_path / "odd.csv").read_text().split("\n")[1:4] == ["nan", "inf", "-inf"]

    def test_columns_of_different_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="lengths"):
            dyn.write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0, 2.0], [1.0]])

    @pytest.mark.parametrize("columns", [[[], [], []], np.empty((3, 0))], ids=["list", "array"])
    def test_no_rows_writes_the_header_alone(self, tmp_path, columns):
        path = tmp_path / "empty.csv"
        dyn.write_csv(path, ["a", "b", "c"], columns)
        assert path.read_text() == "a,b,c\n"


class TestPeriodDetection:
    def test_circle(self):
        estimate = estimate_period(circle_rhs, (1.0, 0.0))
        assert estimate.period == pytest.approx(2 * math.pi, rel=1e-8)
        assert estimate.residual < 1e-6
        assert estimate.trajectory.status == "stopped"

    def test_stops_at_the_first_return(self):
        rhs = counting(circle_rhs)
        estimate = estimate_period(rhs, (1.0, 0.0))
        # the run ends in the step that holds the first return at 2*pi (about
        # 270 calls)
        assert rhs.calls < 400
        times = estimate.trajectory.times
        assert times[-2] < estimate.period <= times[-1]
        # DP5 core: 0x1.921fb54442a66p+2; DOP853 with numpy stages:
        # 0x1.921fb5444f768p+2
        assert estimate.period.hex() == "0x1.921fb5444f766p+2"

    def test_kepler_chart_period_bits(self):
        field = kp.chart_field()
        estimate = estimate_period(field.ode_rhs, kp.shell_representative(-0.5))
        # DP5 core: 0x1.921fb5444b32ap+2; DOP853 with numpy stages: unchanged
        assert estimate.period.hex() == "0x1.921fb54413636p+2"

    def test_matched_oscillator_period_bits(self):
        # the f-oscillator partner of the chart field in ``sodelab match``
        field = deformed_field(make_oscillator(2), kepler_matching_deformation(1.0))
        estimate = estimate_period(field.ode_rhs, shell_state(make_oscillator(2), 0.5))
        assert estimate.period.hex() == "0x1.921fb543f4e33p+3"

    @pytest.mark.parametrize("case", ["circle", "chart-field"])
    def test_period_run_builds_only_its_crossing_steps(self, case):
        if case == "circle":
            f, x0 = circle_rhs, np.array([0.6, 0.8])
        else:
            f, x0 = kp.chart_field().ode_rhs, kp.shell_representative(-0.5)
        traj = estimate_period(f, x0).trajectory
        # the section value at each node; only upward crossings are bisected
        g = (traj.states - x0) @ f(0.0, x0)
        crossings = int(np.count_nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0)))
        assert crossings == 1  # the first lap's return ends the run
        assert traj.nfev == 2 + 12 * (traj.accepted + traj.rejected) + 3 * crossings

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

    def test_the_period_does_not_depend_on_the_orbits_size(self):
        # the linear oscillator has period 2*pi at every amplitude, down to
        # starts whose field is subnormal
        periods = [
            estimate_period(circle_rhs, (scale, 0.0)).period
            for scale in (1e-300, 1e-150, 1e-20, 1e-10, 1e-4, 1.0, 1e4, 1e7)
        ]
        for period in periods:
            assert period == pytest.approx(2 * math.pi, rel=1e-9)
        assert max(periods) - min(periods) <= 1e-9 * min(periods)

    @pytest.mark.parametrize("scale", [1e-314, 1e-316, 5e-324])
    def test_a_start_whose_tolerance_underflows_is_refused_for_its_scale(self, scale):
        # rtol * scale underflows to 0 here, and the message says so rather
        # than blaming the tolerances
        with pytest.raises(ValueError, match=rf"the start.s scale {scale!r} underflows"):
            estimate_period(circle_rhs, (scale, 0.0))

    def test_the_smallest_start_with_a_tolerance_keeps_its_period(self):
        # rtol * scale = 1e-323, a subnormal but positive tolerance
        period = estimate_period(circle_rhs, (1e-313, 0.0)).period
        assert period == pytest.approx(2 * math.pi, rel=1e-9)

    def test_a_subnormal_field_is_not_an_equilibrium(self):
        with pytest.raises(NotPeriodicError, match="no return to the start within t = 1"):
            estimate_period(lambda t, y: np.array([1e-320, 0.0]), (0.0, 0.0), t_max=1.0)

    @pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7])
    def test_near_resonant_pairs_are_refused(self, delta):
        # 1 : 1 + delta closes only after 2*pi/delta; its near miss after one
        # lap lies about 4.4 delta from the start
        def rhs(t, y):
            return np.array([y[2], y[3], -y[0], -(1.0 + delta) ** 2 * y[1]])

        with pytest.raises(NotPeriodicError, match="no return to the start"):
            estimate_period(rhs, (1.0, 1.0, 0.0, 0.0), t_max=1000.0)

    def test_a_rational_pair_returns_after_its_common_period(self):
        # 1 : 1.01 closes after 100 laps of the first oscillator, at 200*pi
        def rhs(t, y):
            return np.array([y[2], y[3], -y[0], -1.01 * 1.01 * y[1]])

        estimate = estimate_period(rhs, (1.0, 1.0, 0.0, 0.0))
        assert estimate.period == pytest.approx(200 * math.pi, rel=1e-9)

    @pytest.mark.parametrize("from_last", [2, 1, 0])
    def test_a_nan_interpolant_at_the_return_is_refused(self, from_last):
        # the last 3 calls build the crossing step's interpolant (stages
        # 13-15); one failing makes it NaN, and no later lap may stand in
        rhs = counting(circle_rhs)
        estimate_period(rhs, (1.0, 0.0))
        failing = failing_once(circle_rhs, rhs.calls - from_last)
        with pytest.raises(NotPeriodicError, match=r"crossing step \[6\.228\d*, 6\.539\d*\]"):
            estimate_period(failing, (1.0, 0.0))

    def test_domain_error_at_the_start_is_the_integrators_value_error(self):
        field = VectorField.of(qv_context(1), "v1", "-1/q1")
        with pytest.raises(ValueError, match="field is not finite at the initial state"):
            estimate_period(field.ode_rhs, (0.0, 1.0))

    @settings(max_examples=100, deadline=None)
    @given(
        omega=st.floats(0.25, 4.0),
        phase=st.floats(0.0, 2 * math.pi, exclude_max=True),
    )
    def test_oscillator_crossing_at_any_phase_and_frequency(self, omega, phase):
        # x'' = -omega^2 x entered at phase ``phase`` of a unit-amplitude turn
        def rhs(t, y):
            return np.array([y[1], -omega * omega * y[0]])

        x0 = np.array([math.cos(phase), -omega * math.sin(phase)])
        estimate = estimate_period(rhs, x0)
        assert estimate.period == pytest.approx(2 * math.pi / omega, rel=1e-9)
        normal = rhs(0.0, x0) / np.linalg.norm(rhs(0.0, x0))
        assert abs((estimate.trajectory.sample(estimate.period) - x0) @ normal) <= 1e-12


class TestConservedDrift:
    def test_linear_drift_detected(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.array([[0.0], [1.0], [2.0]]),
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
        # scipy counts the dense-output stages only when asked for them, as
        # ours counts them only once a read builds them
        sparse, dense = (
            solve_ivp(
                f, (0.0, 2 * math.pi), y0, method="DOP853", rtol=1e-10, atol=1e-12,
                dense_output=want,
            )
            for want in (False, True)
        )
        assert ours.status == "completed" and sparse.success and dense.success
        assert ours.nfev == sparse.nfev  # 338 on the chart field
        assert np.max(np.abs(ours.final_state - dense.y[:, -1])) < 1e-12
        ours.sample_many(step_midpoints(ours))
        assert ours.nfev == dense.nfev  # 422 on the chart field

    # the end-state bound, fixed in terms of rtol before the generated step
    # kernel replaced the numpy stage loop: both runs take DOP853 steps at
    # rtol, so they differ by at most a small multiple of the global error
    RANDOM_FIELD_RTOL = 1e-8
    RANDOM_FIELD_BOUND = 10.0 * RANDOM_FIELD_RTOL

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_random_polynomial_fields_match_scipy(self, data, dim):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        ctx = VariableContext(tuple(f"x{i}" for i in range(1, dim + 1)))
        coef = st.floats(-0.5, 0.5, allow_subnormal=False)
        powers = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).filter(
            lambda p: sum(p) <= 3
        )
        monomials = st.lists(st.tuples(coef, powers), min_size=1, max_size=4)
        components = []
        for _ in range(dim):
            terms = [
                "*".join([repr(c)] + [f"{n}^{k}" for n, k in zip(ctx.names, p) if k])
                for c, p in data.draw(monomials)
            ]
            components.append(" + ".join(f"({t})" for t in terms))
        field = VectorField(ctx, tuple(components))
        # |coefficients| and |y0| <= 1/2 with at most 4 monomials of degree
        # <= 3 per component: every solution stays bounded up to t = 1/2
        y0 = np.array(data.draw(st.lists(coef, min_size=dim, max_size=dim)))
        self.check_against_scipy(solve_ivp, field, y0)

    def test_underflowing_field_matches_its_start(self):
        # a field of size ~1e-155 at its start: scipy's error norm is 0 / 0
        # there, so the start itself is the reference for the end state
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        field = VectorField(VariableContext(("x1",)), ("(2.475652472326324e-78*x1^1)",))
        self.check_against_scipy(solve_ivp, field, np.array([2.475652472326324e-78]))

    def check_against_scipy(self, solve_ivp, field, y0):
        rtol, atol = self.RANDOM_FIELD_RTOL, self.RANDOM_FIELD_RTOL * 1e-2
        ours = integrate(field.ode_rhs, y0, 0.5, rtol=rtol, atol=atol)
        with np.errstate(invalid="ignore"):
            ref = solve_ivp(field.ode_rhs, (0.0, 0.5), y0, method="DOP853", rtol=rtol, atol=atol)
        assert ours.status == "completed"
        if ref.success:
            end = ref.y[:, -1]
        else:
            # scipy stops at t = 0 only where the squares in its error norm
            # underflow, which takes a field below ~1e-140: over [0, 1/2]
            # such a field moves the state far less than the bound
            assert ref.t[-1] == 0.0
            assert np.max(np.abs(field.ode_rhs(0.0, y0))) < 1e-140
            end = y0
        gap = np.max(np.abs(ours.final_state - end))
        assert gap <= self.RANDOM_FIELD_BOUND * max(1.0, np.max(np.abs(end)))

    def test_cli_import_leaves_scipy_out(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, sodelab.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
