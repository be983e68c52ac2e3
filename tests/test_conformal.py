import math

import numpy as np
import pytest

from sodelab.conformal import (
    DAMPED_SPEED_BOUND,
    bracket_rescaling_residual,
    oneform_rescaling_residual,
    polyline_deviation,
    regularize_complete,
    rescale,
    shared_constants_residual,
)
from sodelab.dynamics import estimate_period, integrate
from sodelab.errors import SignChangeError
from sodelab.expr import VariableContext, mul, parse, qv_context
from sodelab.fields import Box, OneFormField, ScalarField, VectorField, max_abs_on
from sodelab.geometry import lie_scalar


def _field(ctx, *sources):
    return VectorField(ctx, tuple(parse(s, ctx) for s in sources))


def _scalar(ctx, source):
    return ScalarField(ctx, parse(source, ctx))


def _oneform(ctx, *sources):
    return OneFormField(ctx, tuple(parse(s, ctx) for s in sources))


@pytest.fixture
def osc():
    ctx = qv_context(1)
    return ctx, _field(ctx, "v1", "-q1")


# ---------------------------------------------------------------- rescale


class TestRescale:
    def test_positive_factor_accepted(self, osc):
        ctx, x = osc
        pair = rescale(x, _scalar(ctx, "1 + q1^2"), Box.cube(ctx, 2.0))
        assert pair.original is x
        p = np.array([0.5, -1.0])
        expected = (1 + 0.25) * x(p)
        assert np.allclose(pair.rescaled(p), expected)

    def test_negative_factor_accepted(self, osc):
        ctx, x = osc
        pair = rescale(x, _scalar(ctx, "-1 - q1^2"), Box.cube(ctx, 2.0))
        assert np.allclose(pair.rescaled(np.zeros(2)), -x(np.zeros(2)))

    def test_sign_change_rejected(self, osc):
        ctx, x = osc
        with pytest.raises(SignChangeError):
            rescale(x, _scalar(ctx, "q1"), Box.cube(ctx, 2.0))

    def test_vanishing_factor_rejected(self, osc):
        # q1^2 touches zero at the grid center without changing sign
        ctx, x = osc
        with pytest.raises(SignChangeError):
            rescale(x, _scalar(ctx, "q1^2"), Box.cube(ctx, 2.0))

    def test_context_mismatch_rejected(self, osc):
        ctx, x = osc
        other = VariableContext.of("a", "b")
        with pytest.raises(ValueError):
            rescale(x, _scalar(other, "1 + a^2"), Box.cube(ctx, 2.0))


# ------------------------------------------------- rescaling identities


class TestRescalingIdentities:
    def setup_method(self):
        self.ctx = qv_context(1)
        self.x = _field(self.ctx, "sin(q1) + 1", "v1 * q1")
        self.y = _field(self.ctx, "q1^2 - v1", "cos(v1)")
        self.factor = _scalar(self.ctx, "exp(q1 / 2) + v1^2")
        self.alpha = _oneform(self.ctx, "v1^2", "q1 * v1 + 1")
        self.points = Box.cube(self.ctx, 1.5).sample(seed=3)

    def test_oneform_identity(self):
        res = oneform_rescaling_residual(self.x, self.factor, self.alpha, self.points)
        assert res < 1e-9

    def test_bracket_identity(self):
        res = bracket_rescaling_residual(self.x, self.factor, self.y, self.points)
        assert res < 1e-9

    def test_bracket_identity_constant_factor(self):
        # constant factor: the correction term must vanish identically
        res = bracket_rescaling_residual(
            self.x, _scalar(self.ctx, "3"), self.y, self.points
        )
        assert res < 1e-12


# ------------------------------------------------------- shared constants


class TestSharedConstants:
    def test_oscillator_energy_survives_rescaling(self, osc):
        ctx, x = osc
        energy = _scalar(ctx, "(q1^2 + v1^2) / 2")
        points = Box.cube(ctx, 2.0).sample(seed=1)
        plain, scaled = shared_constants_residual(
            x, _scalar(ctx, "1 + q1^2"), energy, points
        )
        assert plain < 1e-12
        assert scaled < 1e-12

    def test_nonconstant_stays_nonconstant(self, osc):
        ctx, x = osc
        points = Box.cube(ctx, 2.0).sample(seed=1)
        plain, scaled = shared_constants_residual(
            x, _scalar(ctx, "1 + q1^2"), _scalar(ctx, "q1"), points
        )
        assert plain > 1e-3
        assert scaled > 1e-3


# ------------------------------------------------------- period scaling


class TestPeriodScaling:
    def test_constant_factor_divides_period(self, osc):
        ctx, x = osc
        pair = rescale(x, _scalar(ctx, "2"), Box.cube(ctx, 2.0))
        base = estimate_period(x.ode_rhs, np.array([1.0, 0.0]))
        fast = estimate_period(pair.rescaled.ode_rhs, np.array([1.0, 0.0]))
        assert abs(base.period - 2 * math.pi) < 1e-3 * 2 * math.pi
        assert abs(fast.period - base.period / 2) < 1e-3 * base.period

    def test_orbit_coincidence(self, osc):
        # same circle traced at different speeds
        ctx, x = osc
        pair = rescale(x, _scalar(ctx, "2 + q1^2 / 4"), Box.cube(ctx, 2.0))
        x0 = np.array([1.0, 0.0])
        slow = integrate(x.ode_rhs, x0, 2 * math.pi)
        period = estimate_period(pair.rescaled.ode_rhs, x0).period
        fast = integrate(pair.rescaled.ode_rhs, x0, period)
        a = slow.sample_many(np.linspace(0.0, slow.final_time, 2048))
        b = fast.sample_many(np.linspace(0.0, fast.final_time, 2048))
        assert polyline_deviation(a, b) < 1e-5


# ------------------------------------------------- completeness repair


class TestRegularizeComplete:
    def setup_method(self):
        self.ctx = VariableContext.of("x")
        self.x = _field(self.ctx, "x^2")
        self.witness = _scalar(self.ctx, "x")
        self.box = Box.cube(self.ctx, 2.0)

    def test_frozen_analytic_bound(self):
        # peak of u * exp(-u^2) over all u, attained at u^2 = 1/2
        assert abs(DAMPED_SPEED_BOUND - 0.4288819424803531) < 1e-15
        u = np.linspace(0.0, 4.0, 400001)
        assert abs(float(np.max(u * np.exp(-(u**2)))) - DAMPED_SPEED_BOUND) < 1e-9

    def test_certificate_bound_holds(self):
        cert = regularize_complete(self.x, self.witness, self.box)
        assert cert.bound_holds
        assert cert.grid_bound <= DAMPED_SPEED_BOUND + 1e-12
        assert cert.grid_bound <= 1.0 + 1e-12

    def test_factor_shape(self):
        cert = regularize_complete(self.x, self.witness, self.box)
        # factor should equal exp(-x^4) here
        for x in (0.0, 0.7, -1.3):
            assert abs(float(cert.factor(np.array([x]))) - math.exp(-(x**4))) < 1e-14

    def test_one_box_draw_serves_both_checks(self, monkeypatch):
        draws = []
        sample = Box.sample

        def counted(box, *args, **kwargs):
            draws.append(kwargs)
            return sample(box, *args, **kwargs)

        monkeypatch.setattr(Box, "sample", counted)
        cert = regularize_complete(self.x, self.witness, self.box, seed=3)
        assert draws == [{"seed": 3}]
        # the bound a separate draw with the same arguments gives
        points = sample(self.box, seed=3)
        damped = mul(cert.factor.expr, lie_scalar(self.x, self.witness).expr)
        assert cert.grid_bound == max_abs_on([damped], self.ctx, points)

    def test_original_escapes_in_finite_time(self):
        traj = integrate(self.x.ode_rhs, np.array([1.0]), 2.0)
        assert traj.status == "blow_up"
        lo, hi = traj.blow_up_bracket
        assert 0.99 < lo < hi < 1.01

    def test_rescaled_field_reaches_long_times(self):
        cert = regularize_complete(self.x, self.witness, self.box)
        traj = integrate(cert.rescaled.ode_rhs, np.array([1.0]), 100.0)
        assert traj.status == "completed"
        assert traj.final_time == pytest.approx(100.0)
        assert np.all(np.isfinite(traj.final_state))
        # growth continues but stays modest once the damping bites
        assert 1.0 < float(traj.final_state[0]) < 3.0


# ----------------------------------------------------- polyline distance


class TestPolylineDeviation:
    def test_identical_curves(self):
        t = np.linspace(0.0, 2 * math.pi, 256)
        a = np.stack([np.cos(t), np.sin(t)], axis=1)
        assert polyline_deviation(a, a) < 1e-12

    def test_resampled_circle_is_close(self):
        t1 = np.linspace(0.0, 2 * math.pi, 2048)
        t2 = np.linspace(0.0, 2 * math.pi, 1536)
        a = np.stack([np.cos(t1), np.sin(t1)], axis=1)
        b = np.stack([np.cos(t2), np.sin(t2)], axis=1)
        assert polyline_deviation(a, b) < 1e-5

    def test_shifted_circle_is_far(self):
        t = np.linspace(0.0, 2 * math.pi, 512)
        a = np.stack([np.cos(t), np.sin(t)], axis=1)
        b = a + np.array([0.25, 0.0])
        d = polyline_deviation(a, b)
        assert 0.2 < d <= 0.25001

    def test_asymmetry_is_handled(self):
        # a short segment inside a long curve: one-way distance would be tiny
        line = np.array([[0.0, 0.0], [1.0, 0.0]])
        longer = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        assert polyline_deviation(line, longer) == pytest.approx(2.0)

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            polyline_deviation(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]]))
