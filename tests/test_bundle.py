"""Chart construction: positive builds, rejection order, inversion strategies."""

import ast
import dataclasses
import math

import numpy as np
import pytest

from sodelab.errors import (
    ChartDimensionError,
    DegenerateBaseError,
    FixedPointOnBaseError,
    FunctionalDependenceError,
    NonInvertibleChartError,
)
from sodelab import bundle
from sodelab import scenarios as sc
from sodelab.expr import Const, VariableContext, add, qv_context
from sodelab.fields import (
    Box,
    PointMap,
    ScalarField,
    VectorField,
    canonical_tangent_structure,
)
from sodelab.bundle import build, structure_sode_residual
from sodelab.geometry import verify_tangent_structure

R4 = VariableContext.of("x1", "x2", "x3", "x4")
R2 = VariableContext.of("x1", "x2")

# two uncoupled unit rotations sharing one flow
SPIN4 = VectorField.of(R4, "x2", "-x1", "x4", "-x3")
BOX4 = Box.cube(R4, 1.5)
BOX2 = Box.cube(R2, 1.5)


def quick_build(field, base, box, **kw):
    kw.setdefault("n_random", 100)
    return build(field, base, box, **kw)


class TestOscillatorBases:
    """Four admissible base choices for the same field, all landing on -Q force."""

    @pytest.mark.parametrize(
        "base,velocity",
        [
            (("x1", "x3"), ("x2", "x4")),
            (("x1", "x4"), ("x2", "-x3")),
            (("x2", "x3"), ("-x1", "x4")),
            (("x2", "x4"), ("-x1", "-x3")),
        ],
    )
    def test_velocity_and_force_blocks(self, base, velocity):
        t = quick_build(SPIN4, base, BOX4)
        v_block, f_block = t.velocity_exprs, t.acceleration_exprs
        p = (0.3, -0.8, 1.1, 0.4)
        env = R4.env(p)
        from sodelab.expr import evaluate, parse

        for got, expected in zip(v_block, velocity):
            assert evaluate(got, env) == pytest.approx(
                evaluate(parse(expected, R4), env), abs=1e-14
            )
        # force block reduces to minus the base functions
        for got, q in zip(f_block, base):
            assert evaluate(got, env) == pytest.approx(
                -evaluate(parse(q, R4), env), abs=1e-14
            )

    def test_affine_chart_inverts_in_one_newton_step(self, monkeypatch):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        assert t.inverse_kind == "affine"
        calls = []
        original = PointMap.jacobian_at

        def count(self, point):
            calls.append(tuple(point))
            return original(self, point)

        monkeypatch.setattr(PointMap, "jacobian_at", count)
        # the fibre values -0.25 and 1.0 lie away from the seed's centre values
        p = np.array([0.5, -0.25, 0.75, 1.0])
        np.testing.assert_allclose(t.inverse(t.forward(p)), p, atol=1e-12)
        assert len(calls) == 1

    def test_chart_field_is_linear_oscillator(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        zeta = np.array([0.4, -0.2, 0.9, 0.1])  # (Q1, Q2, V1, V2)
        np.testing.assert_allclose(
            t.chart_field(zeta), [0.9, 0.1, -0.4, 0.2], atol=1e-13
        )

    def test_canonical_structure_verifies_in_chart(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        chart_box = Box.cube(t.chart_ctx, 1.5)
        s, delta = canonical_tangent_structure(t.chart_ctx)
        report = verify_tangent_structure(
            s,
            delta,
            chart_box,
            field=t.chart_field,
            n_random=100,
        )
        assert report.verdict == "pass"

    def test_equilibrium_at_origin_is_warning_not_error(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        assert "equilibria_on_base" in t.warnings

    def test_sode_residual_is_tautologically_zero(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        pts = BOX4.sample(seed=1, n_random=20, grid_points=3)
        assert structure_sode_residual(t, pts) < 1e-12

    def test_sode_residual_measures_a_shifted_velocity_block(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        shifted = tuple(add(v, Const(0.25)) for v in t.velocity_exprs)
        forward = dataclasses.replace(t.forward, components=t.base_exprs + shifted)
        moved = dataclasses.replace(t, forward=forward)
        pts = BOX4.sample(seed=1, n_random=20, grid_points=3)
        residual = structure_sode_residual(moved, pts)
        assert residual == pytest.approx(0.25, abs=1e-15)
        # the point-by-point form the batch replaced, as a reference
        reference = max(
            float(np.max(np.abs(
                forward.jacobian_at(p)[:2] @ moved.gamma(p) - forward(p)[2:]
            )))
            for p in pts
        )
        assert residual == pytest.approx(reference, abs=1e-15)

    @pytest.mark.parametrize("point", [(0.0, 1.0, 0.5, 0.5), (0.0, 0.0, 0.5, 0.5)])
    def test_sode_residual_is_inf_where_the_field_is_not_finite(self, point):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        broken = dataclasses.replace(
            t, gamma=VectorField.of(R4, "x2 / x1", "-x1", "x4", "-x3")
        )  # 1/0 is inf and 0/0 is nan at the two points
        assert structure_sode_residual(broken, [point]) == math.inf


class TestFreeParticle:
    FIELD = VectorField.of(R2, "x2", "0")

    def test_plain_base(self):
        t = quick_build(self.FIELD, ("x1",), BOX2)
        assert t.inverse_kind == "affine"
        force = t.acceleration_exprs
        assert all(str(e) == "0" for e in force)

    def test_shifted_base_also_builds(self):
        t = quick_build(self.FIELD, ("x1 + x2^2",), BOX2)
        assert t.inverse_kind == "newton"
        force = t.acceleration_exprs
        assert all(str(e) == "0" for e in force)
        p = np.array([0.6, -0.9])
        np.testing.assert_allclose(t.inverse(t.forward(p)), p, atol=1e-9)

    def test_rest_states_warn(self):
        t = quick_build(self.FIELD, ("x1",), BOX2)
        assert "equilibria_on_base" in t.warnings


def assert_rejected(field, base, box, error, message):
    """``build`` raises exactly this error class with exactly this message."""
    with pytest.raises(error) as info:
        quick_build(field, base, box)
    assert type(info.value) is error
    assert str(info.value) == message


class TestRejections:
    """Each rejection keeps its error class and message, in check order."""

    def test_rotation_on_plane_rejected(self):
        spin2 = VectorField.of(R2, "x2", "-x1")
        assert_rejected(
            spin2, ("x1", "x2"), BOX2, FunctionalDependenceError,
            "4 chart functions on a 2-dimensional space have rank at most 2",
        )

    def test_rotation_in_four_dimensions_rejected(self):
        lifted = VectorField.of(R4, "x2", "-x1", "0", "0")
        assert_rejected(
            lifted, ("x1", "x2"), BOX4, FunctionalDependenceError,
            "chart functions become dependent near (-1.5, -1.5, -1.5, -1.5)",
        )

    def test_zero_field_rejected_before_dependence(self):
        silent = VectorField.of(R2, "0", "0")
        assert_rejected(
            silent, ("x1",), BOX2, FixedPointOnBaseError,
            "the field vanishes identically on the sampled domain",
        )

    def test_degenerate_base_rejected_first(self):
        # even with a zero field, the base check comes first
        silent = VectorField.of(R2, "0", "0")
        assert_rejected(
            silent, ("x1^2",), BOX2, DegenerateBaseError,
            "base differentials degenerate near (0.0, -1.5)",
        )

    def test_degenerate_base_on_nonzero_field(self):
        free = VectorField.of(R2, "x2", "0")
        assert_rejected(
            free, ("x1^2",), BOX2, DegenerateBaseError,
            "base differentials degenerate near (0.0, -1.5)",
        )

    def test_too_few_functions(self):
        assert_rejected(
            SPIN4, ("x1",), BOX4, ChartDimensionError,
            "2 chart functions cannot coordinatize a 4-dimensional space",
        )

    def test_too_many_base_functions(self):
        assert_rejected(
            VectorField.of(R2, "x2", "-x1"), ("x1", "x2", "x1 + x2"), BOX2,
            DegenerateBaseError,
            "3 base functions on a 2-dimensional space cannot be independent",
        )

    def test_dependent_base_pair(self):
        assert_rejected(
            SPIN4, ("x1", "2*x1"), BOX4, DegenerateBaseError,
            "base differentials degenerate near (-1.5, -1.5, -1.5, -1.5)",
        )


class TestCountChecksComeFirst:
    """The function counts alone decide these rejections: nothing is sampled."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Box.sample was called")

        monkeypatch.setattr(Box, "sample", refuse)

    @pytest.mark.parametrize(
        "field,base,box,error",
        [
            (VectorField.of(R2, "x2", "-x1"), ("x1", "x2"), BOX2, FunctionalDependenceError),
            # a vanishing field: the count error wins over FixedPointOnBaseError
            (VectorField.of(R2, "0", "0"), ("x1", "x2"), BOX2, FunctionalDependenceError),
            (SPIN4, ("x1",), BOX4, ChartDimensionError),
            (VectorField.of(R2, "x2", "-x1"), ("x1", "x2", "x1 + x2"), BOX2,
             DegenerateBaseError),
        ],
    )
    def test_count_error_is_raised_before_sampling(self, field, base, box, error):
        with pytest.raises(error):
            build(field, base, box)


class TestRankedBlock:
    """The rank tests run on the least data that decides them."""

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes = []
        original = bundle._singular_values

        def record(jac):
            shapes.append(jac.shape)
            return original(jac)

        monkeypatch.setattr(bundle, "_singular_values", record)
        return shapes

    def test_affine_chart_is_ranked_at_one_point(self, svd_shapes):
        sc.build_scenario(sc.get_sode_scenario("oscillator-2"))
        assert svd_shapes and all(shape[0] == 1 for shape in svd_shapes)

    def test_coordinate_base_ranks_only_the_fibre_block(self, svd_shapes):
        scenario = sc.get_sode_scenario("fosc-power-2")
        sc.build_scenario(scenario)
        assert svd_shapes == [(len(scenario.box.sample(seed=0)), 2, 2)]

    def test_bent_base_takes_one_svd_of_the_whole_jacobian(self, svd_shapes):
        # the base rows are ranked only where J fails; here J passes
        scenario = sc.get_sode_scenario("free-particle-bent")
        sc.build_scenario(scenario)
        assert svd_shapes == [(len(scenario.box.sample(seed=0)), 2, 2)]

    def test_singular_fibre_block_is_refused(self):
        # B = dV/dx2 = 3 x2^2 vanishes on the grid line x2 = 0
        with pytest.raises(FunctionalDependenceError):
            quick_build(VectorField.of(R2, "x2^3", "0"), ("x1",), BOX2)

    def test_fibre_block_takes_the_non_base_column(self):
        # the base is the trailing coordinate, so the fibre column is x1
        t = quick_build(VectorField.of(R2, "1", "x1^3 + x1"), ("x2",), BOX2)
        # the floor is min |dV/dx1| = min (3 x1^2 + 1), taken at x1 = 0
        assert t.jacobian_min_abs_det == pytest.approx(1.0)

    def test_constant_rank_loss_names_the_first_sample_point(self):
        with pytest.raises(FunctionalDependenceError) as info:
            sc.build_scenario(sc.get_sode_scenario("rotation-4d-lift"))
        assert str(info.value) == (
            "chart functions become dependent near (-2.0, -2.0, -2.0, -2.0)"
        )


class TestBaseEntries:
    """Base functions go through the same entry checks as field entries."""

    def test_scalar_field_and_text_entries_agree(self):
        from_fields = quick_build(SPIN4, (ScalarField.of(R4, "x1"), "x3"), BOX4)
        from_text = quick_build(SPIN4, ("x1", "x3"), BOX4)
        assert from_fields.forward == from_text.forward

    def test_scalar_field_on_another_context_rejected(self):
        with pytest.raises(ValueError):
            quick_build(SPIN4, (ScalarField.of(R2, "x1"), "x3"), BOX4)

    def test_unsupported_entry_type_rejected(self):
        with pytest.raises(TypeError):
            quick_build(SPIN4, ("x1", None), BOX4)


class TestInversionStrategies:
    def test_triangular_solve(self):
        ctx = qv_context(2)
        field = VectorField.of(ctx, "(1 + q1^2)*v1", "v2", "-q1", "-q2")
        t = quick_build(field, ("q1", "q2"), Box.cube(ctx, 1.5))
        assert t.inverse_kind == "triangular"
        p = np.array([0.7, -0.3, 0.5, 1.2])
        np.testing.assert_allclose(t.inverse(t.forward(p)), p, atol=1e-12)

    def test_coordinate_base_seeds_the_solve_with_the_target_base(self, monkeypatch):
        st = sc.build_scenario(sc.get_sode_scenario("fosc-power-2"))
        assert st.inverse_kind == "newton" and st.base_slots == (0, 1)
        guesses = []
        original = bundle._newton_solve

        def record(forward, target, guess):
            guesses.append(np.array(guess))
            return original(forward, target, guess)

        monkeypatch.setattr(bundle, "_newton_solve", record)
        target = st.forward(np.array([0.3, -0.2, 0.4, 0.1]))
        st.inverse(target)
        (guess,) = guesses
        np.testing.assert_array_equal(guess[list(st.base_slots)], target[: st.n])
        # the fibre slots keep the box-centre start
        np.testing.assert_array_equal(guess[2:], np.array(st.newton_guess)[2:])

    def test_newton_on_nonlinear_fibers(self):
        ctx = qv_context(1)
        field = VectorField.of(ctx, "v1 + v1^3", "-q1")
        t = quick_build(field, ("q1",), Box.cube(ctx, 1.2))
        assert t.inverse_kind == "newton"
        assert "nonlinear_fibers" in t.warnings
        p = np.array([0.4, -0.8])
        np.testing.assert_allclose(t.inverse(t.forward(p)), p, atol=1e-9)

    def test_linear_fibers_do_not_warn(self):
        ctx = qv_context(2)
        field = VectorField.of(ctx, "(1 + q1^2)*v1", "v2", "-q1", "-q2")
        t = quick_build(field, ("q1", "q2"), Box.cube(ctx, 1.5))
        assert "nonlinear_fibers" not in t.warnings

    def test_chart_rhs_matches_pushforward(self):
        ctx = qv_context(1)
        field = VectorField.of(ctx, "v1 + v1^3", "-q1")
        t = quick_build(field, ("q1",), Box.cube(ctx, 1.2))
        p = np.array([0.4, -0.6])
        zeta = t.forward(p)
        expected = t.forward.jacobian_at(p) @ field(p)
        np.testing.assert_allclose(t.chart_rhs()(0.0, zeta), expected, atol=1e-8)

    def test_singular_jacobian_message_holds_plain_numbers(self):
        # dV/dv1 = 1 - v1^2 vanishes at v1 = 1, outside the certified box
        ctx = qv_context(1)
        field = VectorField.of(ctx, "v1 - v1^3/3", "-q1")
        t = quick_build(field, ("q1",), Box.cube(ctx, 0.9))
        assert t.inverse_kind == "newton"
        with pytest.raises(NonInvertibleChartError) as info:
            t.inverse(t.forward([0.2, 0.5]), guess=(0.5, 1.0))
        message = str(info.value)
        assert "np." not in message
        assert ast.literal_eval(message.split(" near ")[1]) == (0.5, 1.0)

    def test_non_injective_chart_caught(self):
        # v1^2 folds the fiber; the round-trip certificate must fail
        ctx = qv_context(1)
        field = VectorField.of(ctx, "v1^2", "1")
        with pytest.raises((NonInvertibleChartError, FunctionalDependenceError)):
            quick_build(field, ("q1",), Box.cube(ctx, 1.0))


class TestStructureMetadata:
    def test_json_shape(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        payload = t.to_json()
        assert payload["Q"] == ["x1", "x3"]
        assert payload["V"] == ["x2", "x4"]
        assert payload["inverse"] == "affine"
        assert payload["jacobian_min_abs_det"] == pytest.approx(1.0)
        assert payload["domain"]["lo"] == [-1.5] * 4
        assert set(payload) == {
            "context",
            "chart_context",
            "Q",
            "V",
            "warnings",
            "jacobian_min_abs_det",
            "rank_basis",
            "inverse",
            "domain",
        }
        assert payload["rank_basis"] == {"base": "by_construction", "chart": "exact"}

    @pytest.mark.parametrize(
        "field,base,expected",
        [
            # a coordinate base under a nonlinear chart: B is ranked on the sample
            (("(1 + x1^2)*x2", "-x1"), ("x1",), ("by_construction", "sampled")),
            # an affine chart over a bent base: one evaluation decides both
            (("x2", "0"), ("x1 + x2",), ("exact", "exact")),
            (("x2", "0"), ("x1 + x2^2",), ("sampled", "sampled")),
        ],
    )
    def test_rank_basis_names_what_each_claim_rests_on(self, field, base, expected):
        t = quick_build(VectorField.of(R2, *field), base, BOX2)
        assert t.to_json()["rank_basis"] == dict(zip(("base", "chart"), expected))

    def test_chart_context_names(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        assert t.chart_ctx.names == ("Q1", "Q2", "V1", "V2")

    def test_acceleration_exprs_cached(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        assert [str(e) for e in t.acceleration_exprs] == ["-x1", "-x3"]
