import math

import numpy as np
import pytest

from sodelab import kepler as kp
from sodelab.dynamics import conserved_drift, estimate_period, integrate
from sodelab.errors import NonInvertibleChartError, PositiveEnergyError
from sodelab.expr import parse
from sodelab.fields import canonical_tangent_structure, max_abs_on, vectorized_scalar
from sodelab.geometry import lagrange_residual, lie_scalar


def _samples(seed=7, n=200):
    rng = np.random.default_rng(seed)
    ys = rng.uniform(-1.5, 1.5, (4 * n, 4))
    ys = ys[np.linalg.norm(ys, axis=1) > 0.6][:n]
    vs = rng.uniform(-1.0, 1.0, (len(ys), 4))
    return ys, vs


# -------------------------------------------------------------- square map


class TestSquareMap:
    def test_norm_identity(self):
        ys, _ = _samples()
        for y in ys:
            r2 = float(np.dot(y, y))
            assert abs(np.linalg.norm(kp.ks_map(y)) - r2) <= 1e-12 * (1 + r2)

    def test_jacobian_matches_symbolic(self):
        pm = kp.ks_point_map()
        ys, _ = _samples(seed=1, n=40)
        for y in ys:
            assert np.allclose(kp.ks_jacobian(y), pm.jacobian_at(y), atol=1e-12)

    def test_jacobian_rows_orthogonal(self):
        ys, _ = _samples(seed=2, n=60)
        for y in ys:
            j = kp.ks_jacobian(y)
            r2 = float(np.dot(y, y))
            assert np.allclose(j @ j.T, 4 * r2 * np.eye(3), atol=1e-10 * (1 + r2**2))

    def test_radial_direction_doubles(self):
        ys, _ = _samples(seed=3, n=60)
        for y in ys:
            assert np.allclose(kp.ks_jacobian(y) @ y, 2 * kp.ks_map(y), atol=1e-12)

    def test_fiber_spans_kernel(self):
        ys, _ = _samples(seed=4, n=100)
        for y in ys:
            k = kp.fiber_direction(y)
            assert abs(float(np.dot(k, y))) < 1e-12
            assert float(np.linalg.norm(kp.ks_jacobian(y) @ k)) < 1e-10

    def test_off_fiber_stretch(self):
        # vectors orthogonal to the fiber are stretched by exactly 2|y|
        ys, vs = _samples(seed=5, n=80)
        for y, v in zip(ys, vs):
            k = kp.fiber_direction(y)
            u = v - (np.dot(v, k) / np.dot(k, k)) * k
            r2 = float(np.dot(y, y))
            lhs = float(np.dot(kp.ks_jacobian(y) @ u, kp.ks_jacobian(y) @ u))
            assert abs(lhs - 4 * r2 * np.dot(u, u)) < 1e-9 * (1 + r2**2)

    def test_tangent_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, 4)
            w = rng.uniform(-1.0, 1.0, 4)
            eps = 1e-6
            fd = (kp.ks_map(y + eps * w) - kp.ks_map(y - eps * w)) / (2 * eps)
            _, u = kp.ks_tangent(y, w)
            assert np.allclose(u, fd, atol=1e-8)


# -------------------------------------------------------------- constraint


class TestConstraint:
    def test_two_routes_agree(self):
        ys, vs = _samples(seed=6)
        field = kp.constraint_field()
        for y, v in zip(ys, vs):
            state = np.concatenate([y, v])
            assert abs(float(field(state)) - kp.ks_constraint(y, v)) < 1e-13

    def test_rate_law(self):
        gamma = kp.unfolded_field()
        lhs = lie_scalar(gamma, kp.constraint_field()).expr
        rhs = kp.constraint_rate_field().expr
        points = kp.unfolded_domain().sample(seed=0, n_random=300, grid_points=5)
        from sodelab.expr import sub

        assert max_abs_on([sub(lhs, rhs)], kp.KS_CTX, points) < 1e-10

    def test_weighted_constraint_is_conserved(self):
        gamma = kp.unfolded_field()
        weighted = parse(
            "(y0^2 + y1^2 + y2^2 + y3^2) * (y0*v3 - y3*v0 + y1*v2 - y2*v1)", kp.KS_CTX
        )
        from sodelab.fields import ScalarField

        rate = lie_scalar(gamma, ScalarField(kp.KS_CTX, weighted)).expr
        points = kp.unfolded_domain().sample(seed=1, n_random=300, grid_points=5)
        assert max_abs_on([rate], kp.KS_CTX, points) < 1e-10

    def test_zero_locus_is_invariant_numerically(self):
        gamma = kp.unfolded_field()
        state = kp.unfolded_circular_state(-0.5)
        state[4:] = state[4:] + 0.05 * np.array([1.0, 0.0, 0.0, 0.0])
        assert abs(kp.ks_constraint(state[:4], state[4:])) < 1e-14
        traj = integrate(gamma.ode_rhs, state, 2 * math.pi)
        drift = conserved_drift(kp.constraint_field(), traj)
        assert drift < 1e-8


# ------------------------------------------------------ unfolded dynamics


class TestUnfoldedDynamics:
    def test_variational_equations_hold(self):
        s, _ = canonical_tangent_structure(kp.KS_CTX)
        res = lagrange_residual(kp.lagrangian(), kp.unfolded_field(), s)
        points = kp.unfolded_domain().sample(seed=2, n_random=200, grid_points=3)
        assert max_abs_on(res.components, kp.KS_CTX, points) < 1e-9

    def test_energy_is_legendre_pairing(self):
        from sodelab.expr import sub

        _, delta = canonical_tangent_structure(kp.KS_CTX)
        alt = sub(
            lie_scalar(delta, kp.lagrangian()).expr,
            kp.lagrangian().expr,
        )
        diff = sub(alt, kp.energy().expr)
        points = kp.unfolded_domain().sample(seed=3, n_random=200, grid_points=3)
        assert max_abs_on([diff], kp.KS_CTX, points) < 1e-10

    def test_energy_conserved_symbolically(self):
        rate = lie_scalar(kp.unfolded_field(), kp.energy()).expr
        points = kp.unfolded_domain().sample(seed=4, n_random=300, grid_points=3)
        assert max_abs_on([rate], kp.KS_CTX, points) < 1e-9

    def test_circular_state_energy(self):
        for e in (-0.5, -1.0, -2.0):
            state = kp.unfolded_circular_state(e)
            assert float(kp.energy()(state)) == pytest.approx(e, abs=1e-12)
            assert abs(kp.ks_constraint(state[:4], state[4:])) < 1e-14


# ------------------------------------------------------------- projection


class TestProjection:
    def test_circular_initial_data_projects(self):
        state = kp.unfolded_circular_state(-0.5)
        assert np.allclose(kp.project_state(state), [0, 0, 1, 1, 0, 0], atol=1e-14)

    def test_circular_orbit_matches_direct_integration(self):
        unfolded = integrate(
            kp.unfolded_field().ode_rhs, kp.unfolded_circular_state(-0.5), 2 * math.pi
        )
        direct = integrate(
            kp.kepler3d_field().ode_rhs, kp.kepler3d_circular_state(-0.5), 2 * math.pi
        )
        times = np.linspace(0.0, 2 * math.pi, 200)
        projected = np.array(
            [kp.project_state(s) for s in unfolded.sample_many(times)]
        )
        reference = direct.sample_many(times)
        err = float(np.max(np.abs(projected[:, :3] - reference[:, :3])))
        assert err < 1e-6

    def test_eccentric_orbit_matches_direct_integration(self):
        y = np.array([1.0, 0.1, 0.0, 0.0])
        v = np.array([0.0, 0.25, 0.2, -0.02])
        assert abs(kp.ks_constraint(y, v)) < 1e-15
        start = np.concatenate([y, v])
        unfolded = integrate(kp.unfolded_field().ode_rhs, start, 3.0)
        direct = integrate(kp.kepler3d_field().ode_rhs, kp.project_state(start), 3.0)
        times = np.linspace(0.0, 3.0, 120)
        projected = np.array(
            [kp.project_state(s) for s in unfolded.sample_many(times)]
        )
        reference = direct.sample_many(times)
        assert float(np.max(np.abs(projected[:, :3] - reference[:, :3]))) < 1e-6
        assert float(np.max(np.abs(projected[:, 3:] - reference[:, 3:]))) < 1e-5

    def test_project_trajectory_shape(self):
        traj = integrate(
            kp.unfolded_field().ode_rhs, kp.unfolded_circular_state(-1.0), 1.0
        )
        out = kp.project_trajectory(traj)
        assert out.shape == (len(traj.times), 6)


# ------------------------------------------------------------- chart side


class TestChart:
    def setup_method(self):
        self.params = kp.KeplerParams()
        self.box = kp.unfolded_domain()
        self.points = self.box.sample(seed=5, n_random=60, grid_points=3)

    def test_rescaled_field_values(self):
        gamma = kp.unfolded_field(self.params)
        fast = kp.rescaled_field(self.params, self.box)
        for p in self.points[:40]:
            r2 = float(np.dot(p[:4], p[:4]))
            assert np.allclose(fast(p), 2 * r2 * gamma(p), rtol=1e-12, atol=1e-12)

    def test_structure_shape(self):
        st = kp.regularized_structure(self.params, self.box)
        assert st.inverse_kind == "triangular"
        assert "nonlinear_fibers" not in st.warnings
        assert st.chart_ctx.names == ("Q1", "Q2", "Q3", "Q4", "V1", "V2", "V3", "V4")

    def test_fiber_velocity_is_scaled_momentum(self):
        st = kp.regularized_structure(self.params, self.box)
        for p in self.points[:40]:
            r2 = float(np.dot(p[:4], p[:4]))
            chart = st.forward(p)
            assert np.allclose(chart[:4], p[:4], atol=1e-13)
            assert np.allclose(chart[4:], 2 * r2 * p[4:], rtol=1e-12, atol=1e-12)

    def test_round_trip(self):
        st = kp.regularized_structure(self.params, self.box)
        for p in self.points[:20]:
            back = st.inverse(st.forward(p))
            assert np.allclose(back, p, atol=1e-9)

    def test_round_trip_over_the_domain_sample(self):
        st = kp.regularized_structure(self.params, self.box)
        points = self.box.sample(seed=0)[::50]
        assert len(points) >= 100
        for p in points:
            np.testing.assert_allclose(st.inverse(st.forward(p)), p, rtol=0, atol=1e-12)

    def test_inverse_at_collision_is_refused(self):
        # at Q = 0 the velocity block 2|y|^2 I of the chart Jacobian vanishes
        st = kp.regularized_structure(self.params, self.box)
        with pytest.raises(NonInvertibleChartError):
            st.inverse([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_chart_force_is_energy_times_base(self):
        st = kp.regularized_structure(self.params, self.box)
        assert st.gamma == kp.rescaled_field(self.params, self.box)
        force = st.acceleration_exprs
        energy = kp.energy(self.params)
        for p in self.points[:40]:
            e = float(energy(p))
            values = np.array(
                [vectorized_scalar(c, kp.KS_CTX)(p[None, :])[0] for c in force]
            )
            assert np.allclose(values, 2 * e * p[:4], rtol=1e-10, atol=1e-10)

    def test_chart_rhs_matches_hand_field(self):
        st = kp.regularized_structure(self.params, self.box)
        hand = kp.chart_field(self.params)
        rhs = st.chart_rhs()
        for p in self.points[:20]:
            chart = st.forward(p)
            assert np.allclose(rhs(0.0, chart), hand(chart), rtol=1e-9, atol=1e-9)

    def test_chart_energy_pulls_back(self):
        st = kp.regularized_structure(self.params, self.box)
        ce = kp.chart_energy(self.params)
        e = kp.energy(self.params)
        for p in self.points[:40]:
            assert float(ce(st.forward(p))) == pytest.approx(float(e(p)), abs=1e-10)

    def test_chart_constraint_is_weighted_constraint(self):
        st = kp.regularized_structure(self.params, self.box)
        cc = kp.chart_constraint()
        for p in self.points[:40]:
            r2 = float(np.dot(p[:4], p[:4]))
            expected = 2 * r2 * kp.ks_constraint(p[:4], p[4:])
            assert float(cc(st.forward(p))) == pytest.approx(expected, abs=1e-11)


# ------------------------------------------------------------ energy shells


class TestShells:
    def test_frequency_values(self):
        assert kp.shell_frequency(-0.5) == pytest.approx(1.0)
        assert kp.shell_frequency(-2.0) == pytest.approx(2.0)
        assert kp.shell_period(-0.5) == pytest.approx(2 * math.pi)

    def test_positive_energy_rejected(self):
        for bad in (0.0, 0.7):
            with pytest.raises(PositiveEnergyError):
                kp.shell_frequency(bad)
            with pytest.raises(PositiveEnergyError):
                kp.shell_representative(bad)
            with pytest.raises(PositiveEnergyError):
                kp.unfolded_circular_state(bad)

    def test_representative_sits_on_shell(self):
        for e in (-0.5, -1.0, -2.0):
            rep = kp.shell_representative(e)
            assert kp.shell_residual(rep, e) < 1e-12
            assert float(kp.chart_energy()(rep)) == pytest.approx(e, abs=1e-12)
            assert float(kp.chart_constraint()(rep)) == pytest.approx(0.0, abs=1e-14)

    def test_shell_and_chart_fields_agree_on_shell(self):
        for e in (-0.5, -2.0):
            rep = kp.shell_representative(e)
            assert np.allclose(kp.shell_field(e)(rep), kp.chart_field()(rep), atol=1e-12)

    def test_measured_chart_period(self):
        field = kp.chart_field()
        for e in (-0.5, -1.0, -2.0):
            rep = kp.shell_representative(e)
            est = estimate_period(field.ode_rhs, rep)
            expected = kp.shell_period(e)
            assert abs(est.period - expected) < 1e-3 * expected

    def test_shell_field_is_complete(self):
        field = kp.shell_field(-0.5)
        traj = integrate(field.ode_rhs, kp.shell_representative(-0.5), 100.0)
        assert traj.status == "completed"
        assert np.all(np.isfinite(traj.final_state))
        assert kp.shell_residual(traj.final_state, -0.5) < 1e-8

    def test_mean_motion_values(self):
        assert kp.mean_motion(-0.5) == pytest.approx(1.0)
        assert kp.half_mean_motion(-0.5) == pytest.approx(0.5)
        assert kp.mean_motion(-1.0) == pytest.approx(2 * math.sqrt(2.0))

    def test_direct_period_matches_mean_motion(self):
        for e in (-0.5, -1.0):
            est = estimate_period(
                kp.kepler3d_field().ode_rhs, kp.kepler3d_circular_state(e)
            )
            expected = 2 * math.pi / kp.mean_motion(e)
            assert abs(est.period - expected) < 1e-3 * expected
