import math

import numpy as np
import pytest

from sodelab import foscillator as fo
from sodelab.dynamics import estimate_period, integrate
from sodelab.expr import sub
from sodelab.fields import canonical_tangent_structure, max_abs_on, vectorized_scalar
from sodelab.geometry import lagrange_residual, lie_scalar


@pytest.fixture(scope="module")
def sys2():
    return fo.make_oscillator(2)


@pytest.fixture(scope="module")
def points(sys2):
    return sys2.domain().sample(seed=4, n_random=200, grid_points=3)


# --------------------------------------------------------------- systems


class TestOscillatorSystem:
    def test_field_components(self, sys2):
        state = np.array([0.3, -1.0, 0.7, 0.2])
        assert np.allclose(sys2.field(state), [0.7, 0.2, -0.3, 1.0])

    def test_variational_equations(self, sys2, points):
        s, _ = canonical_tangent_structure(sys2.ctx)
        res = lagrange_residual(sys2.lagrangian, sys2.field, s)
        assert max_abs_on(res.components, sys2.ctx, points) < 1e-12

    def test_energy_is_legendre_pairing(self, sys2, points):
        _, delta = canonical_tangent_structure(sys2.ctx)
        alt = sub(lie_scalar(delta, sys2.lagrangian).expr, sys2.lagrangian.expr)
        assert max_abs_on([sub(alt, sys2.energy.expr)], sys2.ctx, points) < 1e-12

    def test_energy_conserved(self, sys2, points):
        rate = lie_scalar(sys2.field, sys2.energy).expr
        assert max_abs_on([rate], sys2.ctx, points) < 1e-12

    def test_domain_exclusion_floors_energy(self, sys2):
        pts = sys2.domain().sample(seed=0, n_random=400, grid_points=3)
        energies = np.array([float(sys2.energy(p)) for p in pts])
        assert float(np.min(energies)) >= 0.125 - 1e-12

    def test_rejects_zero_dof(self):
        with pytest.raises(ValueError):
            fo.make_oscillator(0)


# ----------------------------------------------------------- deformations


class TestDeformation:
    def test_matching_profile_values(self):
        d = fo.kepler_matching_deformation(1.0)
        assert d.value_at(0.5) == pytest.approx(0.1, abs=1e-15)
        assert d.slope_at(0.5) == pytest.approx(0.5, abs=1e-14)
        assert d.curvature_at(0.5) == pytest.approx(1.5, abs=1e-13)

    def test_matching_slope_formula(self):
        # slope must be sqrt(2 xi^3) / g across a grid of levels
        for g in (1.0, 2.5):
            d = fo.kepler_matching_deformation(g)
            for xi in (0.2, 0.5, 1.3, 2.0):
                assert d.slope_at(xi) == pytest.approx(
                    math.sqrt(2.0 * xi**3) / g, rel=1e-12
                )

    def test_linear_profile(self):
        d = fo.linear_deformation(3.0)
        assert d.slope_at(0.7) == pytest.approx(3.0)
        assert d.curvature_at(0.7) == 0.0

    def test_power_profile(self):
        d = fo.power_deformation(2.0)
        assert d.value_at(0.8) == pytest.approx(0.32)
        assert d.slope_at(0.8) == pytest.approx(0.8)

    def test_rejects_stray_variables(self):
        from sodelab.expr import parse, VariableContext

        bad = parse("xi + q1", VariableContext.of("xi", "q1"))
        with pytest.raises(ValueError):
            fo.Deformation("bad", bad)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fo.linear_deformation(0.0)
        with pytest.raises(ValueError):
            fo.power_deformation(-1.0)
        with pytest.raises(ValueError):
            fo.kepler_matching_deformation(0.0)


# ------------------------------------------------------- rescaled dynamics


class TestDeformedField:
    def test_values_scale_with_slope(self, sys2, points):
        d = fo.kepler_matching_deformation()
        gamma = fo.deformed_field(sys2, d)
        for p in points[:40]:
            c = float(sys2.energy(p))
            assert np.allclose(gamma(p), d.slope_at(c) * sys2.field(p), rtol=1e-12)

    def test_energy_still_conserved(self, sys2, points):
        d = fo.kepler_matching_deformation()
        rate = lie_scalar(fo.deformed_field(sys2, d), sys2.energy).expr
        assert max_abs_on([rate], sys2.ctx, points) < 1e-10

    def test_measured_frequencies(self, sys2):
        # three profiles, including the Kepler-matching one at level 1/2
        cases = [
            (fo.linear_deformation(2.0), 0.9),
            (fo.power_deformation(2.0), 0.8),
            (fo.kepler_matching_deformation(1.0), 0.5),
        ]
        for d, level in cases:
            gamma = fo.deformed_field(sys2, d)
            est = estimate_period(gamma.ode_rhs, fo.shell_state(sys2, level))
            measured = 2 * math.pi / est.period
            assert measured == pytest.approx(d.slope_at(level), rel=1e-3)

    def test_matching_level_half_gives_half(self, sys2):
        d = fo.kepler_matching_deformation(1.0)
        gamma = fo.deformed_field(sys2, d)
        est = estimate_period(gamma.ode_rhs, fo.shell_state(sys2, 0.5))
        assert 2 * math.pi / est.period == pytest.approx(0.5, rel=1e-3)

    def test_symplectic_residual(self, sys2, points):
        for d in (
            fo.linear_deformation(2.0),
            fo.power_deformation(2.0),
            fo.kepler_matching_deformation(1.0),
        ):
            assert fo.symplectic_residual(sys2, d, points) < 1e-9

    def test_shell_state_level(self, sys2):
        state = fo.shell_state(sys2, 0.5)
        assert float(sys2.energy(state)) == pytest.approx(0.5, abs=1e-14)
        with pytest.raises(ValueError):
            fo.shell_state(sys2, 0.0)


# ------------------------------------------------------------- rebuilding


class TestRebuild:
    def test_nonlinear_profile_needs_newton(self, sys2):
        st = fo.rebuild_structure(sys2, fo.kepler_matching_deformation())
        assert st.inverse_kind == "newton"
        assert "nonlinear_fibers" in st.warnings

    def test_linear_profile_stays_affine(self, sys2):
        st = fo.rebuild_structure(sys2, fo.linear_deformation(2.0))
        assert st.inverse_kind == "affine"
        assert "nonlinear_fibers" not in st.warnings

    def test_forward_map_values(self, sys2, points):
        d = fo.kepler_matching_deformation()
        st = fo.rebuild_structure(sys2, d)
        for p in points[:30]:
            c = float(sys2.energy(p))
            chart = st.forward(p)
            assert np.allclose(chart[:2], p[:2], atol=1e-14)
            assert np.allclose(chart[2:], d.slope_at(c) * p[2:], rtol=1e-12)

    def test_round_trip(self, sys2, points):
        d = fo.kepler_matching_deformation()
        st = fo.rebuild_structure(sys2, d)
        for p in points[:12]:
            back = st.inverse(st.forward(p), guess=p + 0.05)
            assert np.allclose(back, p, atol=1e-9)

    def test_rebuilt_force_is_squared_slope(self, sys2, points):
        # energy conservation makes the slope ride as a constant, so the
        # chart force is exactly -f'(E)^2 Q
        d = fo.kepler_matching_deformation()
        st = fo.rebuild_structure(sys2, d)
        assert st.gamma == fo.deformed_field(sys2, d)
        force = st.acceleration_exprs
        for p in points[:30]:
            c = float(sys2.energy(p))
            vals = np.array(
                [vectorized_scalar(f, sys2.ctx)(p[None, :])[0] for f in force]
            )
            assert np.allclose(vals, -d.slope_at(c) ** 2 * p[:2], rtol=1e-9, atol=1e-12)

    def test_level_set_transport(self, sys2):
        # integrate on the source side, transport, check the rebuilt level set
        d = fo.kepler_matching_deformation()
        st = fo.rebuild_structure(sys2, d)
        level = 0.5
        gamma = fo.deformed_field(sys2, d)
        period = 2 * math.pi / d.slope_at(level)
        traj = integrate(gamma.ode_rhs, fo.shell_state(sys2, level), period)
        worst = max(
            fo.rebuilt_shell_residual(sys2, d, st.forward(s), level)
            for s in traj.states
        )
        assert worst < 1e-8

    def test_rebuilt_shell_residual_detects_off_level(self, sys2):
        d = fo.linear_deformation(2.0)
        st = fo.rebuild_structure(sys2, d)
        on = st.forward(fo.shell_state(sys2, 0.5))
        assert fo.rebuilt_shell_residual(sys2, d, on, 0.5) < 1e-12
        assert fo.rebuilt_shell_residual(sys2, d, on * 1.1, 0.5) > 1e-3
