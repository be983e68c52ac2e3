import ast
import math
from pathlib import Path

import numpy as np
import pytest

from sodelab import expr
from sodelab import fields
from sodelab import kepler as kp
from sodelab import scenarios as sc
from sodelab.bundle import build
from sodelab.dynamics import conserved_drift, estimate_period, integrate
from sodelab.errors import (
    FunctionalDependenceError,
    NonInvertibleChartError,
    PositiveEnergyError,
)
from sodelab.expr import parse
from sodelab.fields import (
    Box,
    ScalarField,
    canonical_tangent_structure,
    evaluate_on,
    max_abs_on,
    vectorized_scalar,
)
from sodelab.geometry import lagrange_residual, lie_scalar


@pytest.fixture(scope="module")
def structure():
    """The kepler-chart scenario's chart: the rescaled field over the base y."""
    return sc.build_scenario(sc.get_sode_scenario("kepler-chart"))


def _samples(seed=7, n=200):
    rng = np.random.default_rng(seed)
    ys = rng.uniform(-1.5, 1.5, (4 * n, 4))
    ys = ys[np.linalg.norm(ys, axis=1) > 0.6][:n]
    vs = rng.uniform(-1.0, 1.0, (len(ys), 4))
    return ys, vs


# hand-written numeric oracles of the square map, its Jacobian and its fiber


def _square_map(y):
    y0, y1, y2, y3 = y
    return np.array(
        [
            2.0 * (y0 * y1 + y2 * y3),
            2.0 * (y0 * y2 - y1 * y3),
            y0 * y0 + y3 * y3 - y1 * y1 - y2 * y2,
        ]
    )


def _square_jacobian(y):
    y0, y1, y2, y3 = y
    return 2.0 * np.array(
        [
            [y1, y0, y3, y2],
            [y2, -y3, y0, -y1],
            [y0, -y1, -y2, y3],
        ]
    )


def _fiber(y):
    y0, y1, y2, y3 = y
    return np.array([-y3, -y2, y1, y0])


def _ell(y, v):
    """The constraint: the fiber component of v."""
    return float(np.dot(_fiber(y), v))


@pytest.fixture(scope="module")
def tpi():
    return kp.tangent_map()


def _read(trees, ys, vs=None):
    """Batch values of ``trees`` over the KS points (ys, vs); vs defaults to 0."""
    states = np.hstack([ys, np.zeros_like(ys) if vs is None else vs])
    return evaluate_on(trees, kp.KS_CTX, states)


def _positions(tpi, ys):
    return _read(tpi.components[:3], ys)


def _dpi(tpi, ys):
    """The y-block of the tangent map's Jacobian: Dpi at each y, (m, 3, 4)."""
    return _read([row[:4] for row in tpi.jacobian[:3]], ys)


def _fibers(ys):
    """The v-gradient of the constraint field at each y, (m, 4)."""
    return _read(kp.constraint_field().gradient().components[4:], ys)


# -------------------------------------------------------------- square map


class TestSquareMap:
    def test_norm_identity(self, tpi):
        ys, _ = _samples()
        for y, x in zip(ys, _positions(tpi, ys)):
            r2 = float(np.dot(y, y))
            assert abs(np.linalg.norm(x) - r2) <= 1e-12 * (1 + r2)

    def test_jacobian_rows_orthogonal(self, tpi):
        ys, _ = _samples(seed=2, n=60)
        for y, j in zip(ys, _dpi(tpi, ys)):
            r2 = float(np.dot(y, y))
            assert np.allclose(j @ j.T, 4 * r2 * np.eye(3), atol=1e-10 * (1 + r2**2))

    def test_radial_direction_doubles(self, tpi):
        ys, _ = _samples(seed=3, n=60)
        for y, j, x in zip(ys, _dpi(tpi, ys), _positions(tpi, ys)):
            assert np.allclose(j @ y, 2 * x, atol=1e-12)

    def test_fiber_spans_kernel(self, tpi):
        ys, _ = _samples(seed=4, n=100)
        for y, j, k in zip(ys, _dpi(tpi, ys), _fibers(ys)):
            assert abs(float(np.dot(k, y))) < 1e-12
            assert float(np.linalg.norm(j @ k)) < 1e-10

    def test_off_fiber_stretch(self, tpi):
        # vectors orthogonal to the fiber are stretched by exactly 2|y|
        ys, vs = _samples(seed=5, n=80)
        for y, v, j, k in zip(ys, vs, _dpi(tpi, ys), _fibers(ys)):
            u = v - (np.dot(v, k) / np.dot(k, k)) * k
            r2 = float(np.dot(y, y))
            lhs = float(np.dot(j @ u, j @ u))
            assert abs(lhs - 4 * r2 * np.dot(u, u)) < 1e-9 * (1 + r2**2)

    def test_tangent_matches_finite_differences(self, tpi):
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, 4)
            w = rng.uniform(-1.0, 1.0, 4)
            eps = 1e-6
            ahead, behind = _positions(tpi, np.array([y + eps * w, y - eps * w]))
            fd = (ahead - behind) / (2 * eps)
            u = tpi(np.concatenate([y, w]))[3:]
            assert np.allclose(u, fd, atol=1e-8)

    def test_matches_the_numeric_oracle(self, tpi):
        rng = np.random.default_rng(17)
        points = rng.uniform(-2.0, 2.0, (2000, 8))
        ys, vs = points[:, :4], points[:, 4:]
        values = _read(tpi.components, ys, vs)
        for y, v, x, j, k in zip(ys, vs, values, _dpi(tpi, ys), _fibers(ys)):
            assert np.array_equal(x[:3], _square_map(y))
            assert np.array_equal(j, _square_jacobian(y))
            assert np.array_equal(k, _fiber(y))
            assert np.allclose(x[3:], _square_jacobian(y) @ v, rtol=1e-14, atol=1e-14)

    def test_scalar_and_batch_values_agree_bitwise(self, tpi):
        points = kp.unfolded_domain().sample(seed=3, n_random=200, grid_points=3)
        values = evaluate_on(tpi.components, kp.KS_CTX, points)
        jacobians = evaluate_on(tpi.jacobian, kp.KS_CTX, points)
        for p, value, jac in zip(points, values, jacobians):
            assert np.array_equal(tpi(p), value)
            assert np.array_equal(tpi.jacobian_at(p), jac)

    def test_trees_use_only_plus_minus_and_times(self, tpi):
        allowed = (expr.Add, expr.Sub, expr.Mul, expr.Neg, expr.Var, expr.Const)
        seen = set()

        def walk(e):
            assert isinstance(e, allowed), expr.to_source(e)
            if e not in seen:
                seen.add(e)
                for child in (getattr(e, key, None) for key in ("left", "right", "arg")):
                    if isinstance(child, expr.Expression):
                        walk(child)

        for tree in (*tpi.components, *(e for row in tpi.jacobian for e in row)):
            walk(tree)
        assert tpi.src == kp.KS_CTX and tpi.dst == kp.THREE_CTX


def test_kepler_imports_no_geometry_dynamics_or_certificate():
    """``sodelab.kepler`` states its trees over ``errors``, ``expr`` and
    ``fields`` alone."""
    path = Path(kp.__file__)
    imported = {
        node.module
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert imported == {"errors", "expr", "fields"}


# -------------------------------------------------------------- constraint


class TestConstraint:
    def test_two_routes_agree(self):
        ys, vs = _samples(seed=6)
        field = kp.constraint_field()
        for y, v in zip(ys, vs):
            state = np.concatenate([y, v])
            assert abs(float(field(state)) - _ell(y, v)) < 1e-13

    def test_rate_law(self):
        gamma = kp.unfolded_field()
        lhs = lie_scalar(gamma, kp.constraint_field()).expr
        # the rate is the constraint times -2 (y . v) / |y|^2
        rhs = parse(
            "-2 * (y0*v0 + y1*v1 + y2*v2 + y3*v3) * (y0*v3 - y3*v0 + y1*v2 - y2*v1)"
            " / (y0^2 + y1^2 + y2^2 + y3^2)",
            kp.KS_CTX,
        )
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
        assert abs(_ell(state[:4], state[4:])) < 1e-14
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
            assert abs(_ell(state[:4], state[4:])) < 1e-14


@pytest.mark.parametrize("g", [1.0, 2.37, 1e-3, 1e155])
def test_builders_give_the_nodes_their_formulas_parse_to(g):
    """Each builder combines its shared fragments, parsed once, into the very
    interned nodes that parsing its whole formula as text gives."""
    r2, vsq, ydv, q2, w2 = kp._R2, kp._VSQ, kp._YDV, kp._Q2, kp._W2
    params = kp.KeplerParams(g)
    e = f"({w2} / (2 * {q2}) - {g!r} / {q2})"
    texts = {
        kp.lagrangian: [f"2 * {r2} * {vsq} + {g!r} / {r2}"],
        kp.energy: [f"2 * {r2} * {vsq} - {g!r} / {r2}"],
        kp.unfolded_field: [f"v{k}" for k in range(4)] + [
            f"{vsq} * y{k} / {r2} - {g!r} * y{k} / (2 * {r2}^3) - 2 * {ydv} * v{k} / {r2}"
            for k in range(4)
        ],
        kp.chart_energy: [e],
        kp.chart_field: [f"V{k}" for k in range(1, 5)]
        + [f"2 * {e} * Q{k}" for k in range(1, 5)],
    }
    for builder, sources in texts.items():
        built = builder(params)
        nodes = built.components if isinstance(built, fields.VectorField) else (built.expr,)
        ctx = built.ctx
        assert len(nodes) == len(sources)
        for node, source in zip(nodes, sources):
            assert node is parse(source, ctx), (builder.__name__, source)


# ------------------------------------------------------------- projection


def _project(states):
    """Push unfolded states (y, v) down to 3d states (x, u), one row each."""
    tpi = kp.tangent_map()
    return evaluate_on(tpi.components, tpi.src, np.atleast_2d(states))


class TestProjection:
    def test_circular_initial_data_projects(self):
        state = kp.unfolded_circular_state(-0.5)
        assert np.allclose(_project(state)[0], [0, 0, 1, 1, 0, 0], atol=1e-14)

    def test_circular_orbit_matches_direct_integration(self):
        unfolded = integrate(
            kp.unfolded_field().ode_rhs, kp.unfolded_circular_state(-0.5), 2 * math.pi
        )
        direct = integrate(
            kp.kepler3d_field().ode_rhs, kp.kepler3d_circular_state(-0.5), 2 * math.pi
        )
        times = np.linspace(0.0, 2 * math.pi, 200)
        projected = _project(unfolded.sample_many(times))
        reference = direct.sample_many(times)
        err = float(np.max(np.abs(projected[:, :3] - reference[:, :3])))
        assert err < 1e-6

    def test_eccentric_orbit_matches_direct_integration(self):
        y = np.array([1.0, 0.1, 0.0, 0.0])
        v = np.array([0.0, 0.25, 0.2, -0.02])
        assert abs(_ell(y, v)) < 1e-15
        start = np.concatenate([y, v])
        unfolded = integrate(kp.unfolded_field().ode_rhs, start, 3.0)
        direct = integrate(kp.kepler3d_field().ode_rhs, _project(start)[0], 3.0)
        times = np.linspace(0.0, 3.0, 120)
        projected = _project(unfolded.sample_many(times))
        reference = direct.sample_many(times)
        assert float(np.max(np.abs(projected[:, :3] - reference[:, :3]))) < 1e-6
        assert float(np.max(np.abs(projected[:, 3:] - reference[:, 3:]))) < 1e-5


# ------------------------------------------------------------- chart side


class TestChart:
    def setup_method(self):
        self.params = kp.KeplerParams()
        self.box = kp.unfolded_domain()
        self.points = self.box.sample(seed=5, n_random=60, grid_points=3)

    def test_rescaled_field_values(self):
        gamma = kp.unfolded_field(self.params)
        fast = kp.rescaled_field(self.params)
        for p in self.points[:40]:
            r2 = float(np.dot(p[:4], p[:4]))
            assert np.allclose(fast(p), 2 * r2 * gamma(p), rtol=1e-12, atol=1e-12)

    def test_lookup_draws_no_sample(self, monkeypatch):
        draws = []

        def spy(box, *args, **kwargs):
            draws.append(box)
            raise AssertionError("a kepler-chart lookup drew a sample")

        monkeypatch.setattr(fields.Box, "sample", spy)
        scenario = sc.get_sode_scenario("kepler-chart")
        assert scenario.field.ctx == kp.KS_CTX
        assert draws == []

    def test_chart_field_is_the_scaled_clock_field(self):
        chart = sc.get_sode_scenario("kepler-chart")
        clock = sc.get_conformal_scenario("kepler-clock")
        scaled = clock.field.scaled(clock.factor.expr)
        assert chart.field.ctx == scaled.ctx
        assert len(chart.field.components) == len(scaled.components) == 8
        assert all(a is b for a, b in zip(chart.field.components, scaled.components))

    def test_build_refuses_the_clock_where_it_vanishes(self):
        # without the exclusion ball the grid holds y = 0, where the velocity
        # block 2 |y|^2 I of the chart Jacobian is zero
        box = Box(kp.KS_CTX, (-1.5,) * 4 + (-1.0,) * 4, (1.5,) * 4 + (1.0,) * 4)
        with pytest.raises(FunctionalDependenceError):
            build(kp.rescaled_field(self.params), kp.KS_CTX.names[:4], box)

    def test_structure_shape(self, structure):
        assert structure.inverse_kind == "triangular"
        assert "nonlinear_fibers" not in structure.warnings
        assert structure.chart_ctx.names == ("Q1", "Q2", "Q3", "Q4", "V1", "V2", "V3", "V4")

    def test_fiber_velocity_is_scaled_momentum(self, structure):
        for p in self.points[:40]:
            r2 = float(np.dot(p[:4], p[:4]))
            chart = structure.forward(p)
            assert np.allclose(chart[:4], p[:4], atol=1e-13)
            assert np.allclose(chart[4:], 2 * r2 * p[4:], rtol=1e-12, atol=1e-12)

    def test_round_trip(self, structure):
        for p in self.points[:20]:
            back = structure.inverse(structure.forward(p))
            assert np.allclose(back, p, atol=1e-9)

    def test_round_trip_over_the_domain_sample(self, structure):
        points = self.box.sample(seed=0)[::50]
        assert len(points) >= 100
        for p in points:
            back = structure.inverse(structure.forward(p))
            np.testing.assert_allclose(back, p, rtol=0, atol=1e-12)

    def test_inverse_at_collision_is_refused(self, structure):
        # at Q = 0 the velocity block 2|y|^2 I of the chart Jacobian vanishes
        with pytest.raises(NonInvertibleChartError):
            structure.inverse([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_chart_force_is_energy_times_base(self, structure):
        assert structure.gamma == kp.rescaled_field(self.params)
        force = [
            lie_scalar(structure.gamma, ScalarField(kp.KS_CTX, v)).expr
            for v in structure.velocity_exprs
        ]
        energy = kp.energy(self.params)
        for p in self.points[:40]:
            e = float(energy(p))
            values = np.array(
                [vectorized_scalar(c, kp.KS_CTX)(p[None, :])[0] for c in force]
            )
            assert np.allclose(values, 2 * e * p[:4], rtol=1e-10, atol=1e-10)

    def test_chart_rhs_matches_hand_field(self, structure):
        # the built chart's dynamics: the field pushed forward through the chart
        hand = kp.chart_field(self.params)
        for p in self.points[:20]:
            chart = structure.forward(p)
            x = structure.inverse(chart)
            pushed = structure.forward.jacobian_at(x) @ structure.gamma(x)
            assert np.allclose(pushed, hand(chart), rtol=1e-9, atol=1e-9)

    def test_chart_energy_pulls_back(self, structure):
        ce = kp.chart_energy(self.params)
        e = kp.energy(self.params)
        for p in self.points[:40]:
            assert float(ce(structure.forward(p))) == pytest.approx(float(e(p)), abs=1e-10)

    def test_chart_constraint_is_weighted_constraint(self, structure):
        # the constraint read in the chart variables (Q, V) is 2 |y|^2 times
        # the constraint in (y, v)
        for p in self.points[:40]:
            r2 = float(np.dot(p[:4], p[:4]))
            expected = 2 * r2 * _ell(p[:4], p[4:])
            q, w = np.split(structure.forward(p), 2)
            assert _ell(q, w) == pytest.approx(expected, abs=1e-11)


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
            q, w = np.split(rep, 2)
            assert abs(0.5 * np.dot(w, w) - e * np.dot(q, q) - 1.0) < 1e-12
            assert float(kp.chart_energy()(rep)) == pytest.approx(e, abs=1e-12)
            assert _ell(rep[:4], rep[4:]) == pytest.approx(0.0, abs=1e-14)

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
        q, w = np.split(traj.final_state, 2)
        assert abs(0.5 * np.dot(w, w) + 0.5 * np.dot(q, q) - 1.0) < 1e-8

    def test_mean_motion_values(self):
        assert kp.mean_motion(-0.5) == pytest.approx(1.0)
        assert kp.half_mean_motion(-0.5) == pytest.approx(0.5)
        assert kp.mean_motion(-1.0) == pytest.approx(2 * math.sqrt(2.0))

    @pytest.mark.parametrize(
        "energy, g",
        [
            (-1e200, 1.0),  # |E|^3 overflows
            (-1e-300, 1.0),  # |E|^3, and so the frequency, underflows to 0
            (-0.5, 1e-310),  # the division by g overflows
        ],
    )
    def test_mean_motion_outside_the_float_range_is_refused(self, energy, g):
        with pytest.raises(OverflowError) as info:
            kp.mean_motion(energy, kp.KeplerParams(g=g))
        assert str(info.value) == (
            f"energy {energy!r} with g {g!r} puts the orbit frequency outside the float range"
        )

    def test_orbit_period_is_two_pi_over_mean_motion(self):
        assert kp.orbit_period(-0.5) == pytest.approx(2 * math.pi)
        assert kp.orbit_period(-1.0) == 2 * math.pi / kp.mean_motion(-1.0)

    def test_orbit_period_outside_the_float_range_is_refused(self):
        # the frequency 1e-308 is still positive, but 2 pi over it overflows
        with pytest.raises(OverflowError) as info:
            kp.orbit_period(-0.5, kp.KeplerParams(g=1e308))
        assert str(info.value) == (
            "energy -0.5 with g 1e+308 puts the orbit period outside the float range"
        )
        with pytest.raises(OverflowError, match="orbit frequency outside"):
            kp.orbit_period(-1e200)

    def test_direct_period_matches_mean_motion(self):
        for e in (-0.5, -1.0):
            est = estimate_period(
                kp.kepler3d_field().ode_rhs, kp.kepler3d_circular_state(e)
            )
            expected = 2 * math.pi / kp.mean_motion(e)
            assert abs(est.period - expected) < 1e-3 * expected
