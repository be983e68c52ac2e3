import dataclasses
import math

import numpy as np
import pytest

from sodelab import cli
from sodelab import kepler as kp
from sodelab import scenarios as sc
from sodelab.conformal import (
    bracket_rescaling_residual,
    oneform_rescaling_residual,
    rescale,
    shared_constants_residual,
)
from sodelab.dynamics import estimate_period
from sodelab.errors import FunctionalDependenceError
from sodelab.expr import add, differentiate, parse
from sodelab.fields import (
    OneFormField,
    ScalarField,
    VectorField,
    evaluate_on,
    vectorized_scalar,
)
from sodelab.geometry import lie_scalar


@pytest.fixture(scope="module")
def library():
    return dict(sc.structure_library())


class TestRegistry:
    def test_names_are_unique(self):
        names = [s.name for s in sc.sode_scenarios()]
        assert len(names) == len(set(names))
        names += [s.name for s in sc.conformal_scenarios()]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert sc.get_sode_scenario("kepler-chart").ctx.dim == 8
        assert sc.get_conformal_scenario("am-clock").ctx.dim == 4
        with pytest.raises(KeyError):
            sc.get_sode_scenario("nope")
        with pytest.raises(KeyError):
            sc.get_conformal_scenario("nope")

    def test_context_is_the_fields(self):
        for s in sc.sode_scenarios() + sc.conformal_scenarios():
            assert "ctx" not in {f.name for f in dataclasses.fields(s)}
            assert s.ctx is s.field.ctx
            assert s.box.ctx == s.ctx

    def test_canonical_contexts(self):
        cases = dict(sc.canonical_contexts())
        assert cases["flat-2"].dim == 2
        assert cases["flat-4"].dim == 4

    def test_split_is_clean(self):
        assert {s.name for s in sc.buildable_scenarios()}.isdisjoint(
            {s.name for s in sc.rejection_scenarios()}
        )
        assert len(sc.rejection_scenarios()) == 2


_CONSTRUCTION_NAMES = [
    "oscillator-1", "oscillator-2",
    "double-rotation-13", "double-rotation-14", "double-rotation-23",
    "double-rotation-24", "free-particle", "free-particle-bent", "conformal-am",
    "kepler-chart", "fosc-linear-2", "fosc-power-2", "fosc-kepler-match-g1",
    "rotation-2d", "rotation-4d-lift",
]
_RESCALING_NAMES = [
    "uniform-speedup", "state-speedup", "am-clock", "kepler-clock", "blowup-damping",
]


class TestLazyTable:
    @pytest.fixture
    def no_kepler_chart(self, monkeypatch):
        """Make building ``kepler-chart`` (its rescaled field) fail."""

        def refuse(*args, **kwargs):
            raise AssertionError("kepler-chart was built")

        monkeypatch.setattr(kp, "rescaled_field", refuse)

    def test_a_lookup_builds_only_its_own_scenario(self, no_kepler_chart):
        assert sc.get_sode_scenario("oscillator-2").name == "oscillator-2"
        assert sc.get_conformal_scenario("uniform-speedup").name == "uniform-speedup"
        with pytest.raises(AssertionError, match="kepler-chart was built"):
            sc.get_sode_scenario("kepler-chart")

    def test_listing_names_builds_nothing(self, no_kepler_chart, capsys):
        assert cli.main(["integrate", "--scenario", "nope", "--t-end", "1"]) == 2
        known = ", ".join(_CONSTRUCTION_NAMES + _RESCALING_NAMES)
        assert capsys.readouterr().err == (
            f"error: --scenario 'nope' is unknown; known: {known}\n"
        )

    def test_table_order_is_the_listing_order(self):
        construction = [s.name for s in sc.sode_scenarios()]
        rescaling = [s.name for s in sc.conformal_scenarios()]
        assert construction == _CONSTRUCTION_NAMES
        assert rescaling == _RESCALING_NAMES
        assert list(sc.scenario_names("construction")) == construction
        assert list(sc.scenario_names("rescaling")) == rescaling
        assert list(sc.scenario_names("flat")) == [n for n, _ in sc.canonical_contexts()]

    def test_every_lookup_builds_afresh(self):
        for get, name in (
            (sc.get_sode_scenario, "oscillator-2"),
            (sc.get_conformal_scenario, "kepler-clock"),
        ):
            first, second = get(name), get(name)
            assert first is not second
            assert first.field is not second.field
            assert first.name == second.name == name

    def test_cli_lookup_of_a_rescaling_name_is_one_call(self, monkeypatch):
        calls = []

        def counted(getter):
            def wrapper(name):
                calls.append(getter.__name__)
                return getter(name)

            return wrapper

        for name in ("get_sode_scenario", "get_conformal_scenario"):
            monkeypatch.setattr(sc, name, counted(getattr(sc, name)))
        kind, scenario = cli._scenario("kepler-clock", "construction", "rescaling")
        assert (kind, scenario.name) == ("rescaling", "kepler-clock")
        assert calls == ["get_conformal_scenario"]

    def test_key_error_inside_a_builder_is_not_an_unknown_name(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("deep inside the builder")

        monkeypatch.setattr(kp, "rescaled_field", broken)
        with pytest.raises(KeyError, match="deep inside"):
            cli._scenario("kepler-chart", "construction")


class TestConstruction:
    def test_every_buildable_scenario_builds(self, library):
        assert len(library) == len(sc.buildable_scenarios())

    def test_inverse_kinds(self, library):
        assert library["oscillator-1"].inverse_kind == "affine"
        assert library["double-rotation-13"].inverse_kind == "affine"
        assert library["free-particle"].inverse_kind == "affine"
        assert library["free-particle-bent"].inverse_kind == "newton"
        assert library["kepler-chart"].inverse_kind == "triangular"
        assert library["fosc-linear-2"].inverse_kind == "affine"
        assert library["fosc-kepler-match-g1"].inverse_kind == "newton"
        assert library["conformal-am"].inverse_kind == "newton"

    def test_double_rotation_forces(self, library):
        # every mixed base sees the same harmonic force -Q
        for pair in ("13", "14", "23", "24"):
            st = library[f"double-rotation-{pair}"]
            for v, base in zip(st.velocity_exprs, st.base_exprs):
                accel = lie_scalar(st.gamma, ScalarField(st.src_ctx, v)).expr
                residual = add(accel, base)
                pts = st.domain.sample(seed=9, n_random=50, grid_points=1)
                vals = np.asarray(
                    vectorized_scalar(residual, st.src_ctx)(pts), dtype=float
                )
                assert float(np.max(np.abs(vals))) < 1e-12

    def test_free_particle_warning(self, library):
        assert "equilibria_on_base" in library["free-particle"].warnings

    def test_conformal_am_nonlinear_fibers(self, library):
        assert "nonlinear_fibers" in library["conformal-am"].warnings

    def test_rejections_raise(self):
        for s in sc.rejection_scenarios():
            with pytest.raises(FunctionalDependenceError):
                sc.build_scenario(s)

    def test_rejections_cover_both_readings(self):
        dims = sorted(s.ctx.dim for s in sc.rejection_scenarios())
        assert dims == [2, 4]


class TestConformalAmDeterminant:
    def test_closed_form_matches_numeric(self, library):
        # det of the chart Jacobian must be (1 + ell^2)(1 + 3 ell^2)
        st = library["conformal-am"]
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.1, 1.1, (60, 4))
        for p in pts:
            ell = p[0] * p[3] - p[1] * p[2]
            expected = (1 + ell**2) * (1 + 3 * ell**2)
            det = float(np.linalg.det(st.forward.jacobian_at(p)))
            assert abs(abs(det) - expected) < 1e-10 * expected

    def test_determinant_never_small(self, library):
        assert library["conformal-am"].jacobian_min_abs_det >= 1.0 - 1e-12


class TestChartJacobian:
    def test_rows_are_the_first_partials(self, library):
        for name, st in library.items():
            forward = st.forward
            for i, comp in enumerate(forward.components):
                for j, var in enumerate(forward.src.names):
                    assert forward.jacobian[i][j] == differentiate(comp, var), name

    def test_floor_is_min_abs_det_over_the_build_sample(self, library):
        for name, st in library.items():
            ctx, points = st.src_ctx, st.domain.sample(seed=0)
            partials = [differentiate(c, v) for c in st.forward.components for v in ctx.names]
            jac = evaluate_on(partials, ctx, points).reshape(len(points), ctx.dim, ctx.dim)
            expected = float(np.min(np.abs(np.linalg.det(jac))))
            assert st.jacobian_min_abs_det == pytest.approx(expected, rel=1e-12), name


class TestConformalScenarios:
    @staticmethod
    def _probe_form(ctx):
        names = ctx.names
        comps = tuple(
            parse(f"{names[i]} * {names[(i + 1) % ctx.dim]} + 1", ctx)
            for i in range(ctx.dim)
        )
        return OneFormField(ctx, comps)

    @staticmethod
    def _probe_field(ctx):
        names = ctx.names
        comps = tuple(
            parse(f"{names[(i + 1) % ctx.dim]}^2 - {names[i]}", ctx)
            for i in range(ctx.dim)
        )
        return VectorField(ctx, comps)

    def test_factors_certify(self):
        for s in sc.conformal_scenarios():
            pair = rescale(s.field, s.factor, s.box)
            assert pair.rescaled.ctx == s.ctx

    def test_rescaling_identities_across_library(self):
        for s in sc.conformal_scenarios():
            pts = s.box.sample(seed=5, n_random=120, grid_points=3)
            alpha = self._probe_form(s.ctx)
            other = self._probe_field(s.ctx)
            assert oneform_rescaling_residual(s.field, s.factor, alpha, pts) < 1e-9
            assert bracket_rescaling_residual(s.field, s.factor, other, pts) < 1e-9

    def test_conserved_quantities_survive(self):
        for s in sc.conformal_scenarios():
            if s.conserved is None:
                continue
            pts = s.box.sample(seed=6, n_random=150, grid_points=3)
            plain, scaled = shared_constants_residual(
                s.field, s.factor, s.conserved, pts
            )
            assert plain < 1e-9
            assert scaled < 1e-9

    def test_am_factor_conserved_but_not_constant(self):
        s = sc.get_conformal_scenario("am-clock")
        rate = lie_scalar(s.field, s.factor).expr
        pts = s.box.sample(seed=7, n_random=150, grid_points=3)
        vals = np.asarray(vectorized_scalar(rate, s.ctx)(pts), dtype=float)
        assert float(np.max(np.abs(vals))) < 1e-12
        factor_vals = np.asarray(
            vectorized_scalar(s.factor.expr, s.ctx)(pts), dtype=float
        )
        assert float(np.std(factor_vals)) > 1e-3

    def test_naive_plane_product_is_not_conserved(self):
        # the tempting product of the two plane radii fails: only the
        # mixing invariant survives the double rotation
        s = sc.get_conformal_scenario("am-clock")
        naive = ScalarField(s.ctx, parse("(x1^2 + x3^2) * (x2^2 + x4^2)", s.ctx))
        rate = lie_scalar(s.field, naive).expr
        pts = s.box.sample(seed=8, n_random=150, grid_points=3)
        vals = np.asarray(vectorized_scalar(rate, s.ctx)(pts), dtype=float)
        assert float(np.max(np.abs(vals))) > 1e-2

    def test_am_clock_period(self):
        s = sc.get_conformal_scenario("am-clock")
        pair = rescale(s.field, s.factor, s.box)
        state = np.array(s.orbit_state)
        speed = 1.0 + (state[0] * state[3] - state[1] * state[2]) ** 2
        est = estimate_period(pair.rescaled.ode_rhs, state)
        assert est.period == pytest.approx(2 * math.pi / speed, rel=1e-3)

    def test_kepler_clock_period(self):
        # on the circular orbit the factor is the constant 2, so the fast
        # clock halves the slow period 4 pi
        s = sc.get_conformal_scenario("kepler-clock")
        pair = rescale(s.field, s.factor, s.box)
        est = estimate_period(pair.rescaled.ode_rhs, np.array(s.orbit_state))
        assert est.period == pytest.approx(2 * math.pi, rel=1e-3)
