"""Chart construction: positive builds, rejection order, inversion strategies."""

import ast
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sodelab.errors import (
    ChartDimensionError,
    DegenerateBaseError,
    FixedPointOnBaseError,
    FunctionalDependenceError,
    NonInvertibleChartError,
)
from sodelab import bundle, expr, fields
from sodelab import scenarios as sc
from sodelab.expr import (
    ZERO,
    Const,
    VariableContext,
    add,
    evaluate,
    parse,
    qv_context,
    sub,
    sum_of_products,
)
from sodelab.fields import (
    Box,
    ScalarField,
    VectorField,
    canonical_tangent_structure,
)
from sodelab.bundle import build, structure_sode_residual
from sodelab.geometry import lie_scalar, verify_tangent_structure

R4 = VariableContext.of("x1", "x2", "x3", "x4")
R2 = VariableContext.of("x1", "x2")

# two uncoupled unit rotations sharing one flow
SPIN4 = VectorField.of(R4, "x2", "-x1", "x4", "-x3")
BOX4 = Box.cube(R4, 1.5)
BOX2 = Box.cube(R2, 1.5)


def quick_build(field, base, box, **kw):
    kw.setdefault("n_random", 100)
    return build(field, base, box, **kw)


def force_block(t):
    """The chart's force trees: the field's derivative of each velocity function."""
    return tuple(lie_scalar(t.gamma, ScalarField(t.src_ctx, v)).expr for v in t.velocity_exprs)


def newton_maps(t):
    """The batch functions of the chart map's trees and of its Jacobian's."""
    entries = [e for row in t.forward.jacobian for e in row]
    return (
        fields.vectorized_scalar(t.forward.components, t.src_ctx),
        fields.vectorized_scalar(entries, t.src_ctx),
    )


def chart_velocity(t, zeta):
    """The chart dynamics at ``zeta``: the field pushed forward through the chart."""
    x = t.inverse(zeta)
    return t.forward.jacobian_at(x) @ t.gamma(x)


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
        v_block, f_block = t.velocity_exprs, force_block(t)
        env = dict(zip(R4.names, (0.3, -0.8, 1.1, 0.4)))
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
        entries = [e for row in t.forward.jacobian for e in row]
        calls = []
        original = bundle.vectorized_scalar

        def spy(trees, ctx):
            batch = original(trees, ctx)
            if list(trees) != entries:  # nodes are interned: this compares identities
                return batch

            def count(points):
                calls.append(np.array(points))
                return batch(points)

            return count

        monkeypatch.setattr(bundle, "vectorized_scalar", spy)
        # the fibre values -0.25 and 1.0 lie away from the seed's centre values
        p = np.array([0.5, -0.25, 0.75, 1.0])
        np.testing.assert_allclose(t.inverse(t.forward(p)), p, atol=1e-12)
        assert len(calls) == 1 and calls[0].shape == (1, 4)

    def test_chart_field_is_linear_oscillator(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        zeta = np.array([0.4, -0.2, 0.9, 0.1])  # (Q1, Q2, V1, V2)
        np.testing.assert_allclose(
            chart_velocity(t, zeta), [0.9, 0.1, -0.4, 0.2], atol=1e-13
        )

    def test_canonical_structure_verifies_in_chart(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        chart_box = Box.cube(t.chart_ctx, 1.5)
        # the built chart's dynamics, written out and checked on the sample
        field = VectorField.of(t.chart_ctx, "V1", "V2", "-Q1", "-Q2")
        for zeta in chart_box.sample(seed=2, n_random=10, grid_points=3):
            np.testing.assert_allclose(chart_velocity(t, zeta), field(zeta), atol=1e-13)
        s, delta = canonical_tangent_structure(t.chart_ctx)
        report = verify_tangent_structure(
            s,
            delta,
            chart_box,
            field=field,
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


# each buildable scenario's chart shape: (inverse kind, warnings, rank basis)
LIBRARY_SHAPES = {
    "oscillator-1": ("affine", (), ("by_construction", "exact")),
    "oscillator-2": ("affine", (), ("by_construction", "exact")),
    "double-rotation-13": ("affine", (), ("by_construction", "exact")),
    "double-rotation-14": ("affine", (), ("by_construction", "exact")),
    "double-rotation-23": ("affine", (), ("by_construction", "exact")),
    "double-rotation-24": ("affine", (), ("by_construction", "exact")),
    "free-particle": ("affine", ("equilibria_on_base",), ("by_construction", "exact")),
    "free-particle-bent": ("newton", ("equilibria_on_base",), ("sampled", "sampled")),
    "conformal-am": ("newton", ("nonlinear_fibers",), ("by_construction", "sampled")),
    "kepler-chart": ("triangular", (), ("by_construction", "sampled")),
    "fosc-linear-2": ("affine", (), ("by_construction", "exact")),
    "fosc-power-2": ("newton", ("nonlinear_fibers",), ("by_construction", "sampled")),
    "fosc-kepler-match-g1": ("newton", ("nonlinear_fibers",), ("by_construction", "sampled")),
}


class TestReadFromTheTrees:
    """Second-orderness is a node identity, and affinity a free-variable test."""

    def test_library_residual_trees_are_zero_and_nothing_is_compiled(self, monkeypatch):
        library = sc.structure_library()
        compiled = []
        original = fields.vectorized_scalar

        def spy(e, ctx):
            compiled.append(e)
            return original(e, ctx)

        monkeypatch.setattr(fields, "vectorized_scalar", spy)
        for name, t in library:
            residuals = [
                sub(sum_of_products(zip(t.gamma.components, row)), v)
                for row, v in zip(t.forward.jacobian, t.velocity_exprs)
            ]
            assert all(r is ZERO for r in residuals), name
            assert structure_sode_residual(t, t.domain.sample()) == 0.0, name
        assert compiled == []

    def test_infinite_field_entry_off_the_base_rows_reads_zero(self):
        # dQ = (1, 0) meets the field's 1/x1, so a sampled product at x1 = 0
        # would be 0 * inf = nan; the residual tree x2 - x2 folds to zero
        box = Box.cube(R2, 2.0)
        t = build(VectorField.of(R2, "x2", "1/x1"), ("x1",), box)
        assert t.inverse_kind == "affine"
        assert structure_sode_residual(t, box.sample()) == 0.0

    def test_unfolded_residual_over_no_points_is_zero(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        shifted = dataclasses.replace(t, gamma=t.gamma.scaled(2.0))
        assert structure_sode_residual(shifted, np.empty((0, 4))) == 0.0

    def test_affine_in_takes_no_derivative(self, monkeypatch):
        library = sc.structure_library()
        calls = []
        original = expr._differentiate

        def spy(e, name):
            calls.append(name)
            return original(e, name)

        monkeypatch.setattr(expr, "_differentiate", spy)
        for _, t in library:
            bundle._affine_in(t.forward.jacobian, t.src_ctx, t.src_ctx.names)
        assert calls == []

    def test_library_chart_shapes(self):
        shapes = {}
        for name, t in sc.structure_library():
            rank = t.to_json()["rank_basis"]
            shapes[name] = (t.inverse_kind, t.warnings, (rank["base"], rank["chart"]))
        assert shapes == LIBRARY_SHAPES


class TestFreeParticle:
    FIELD = VectorField.of(R2, "x2", "0")

    def test_plain_base(self):
        t = quick_build(self.FIELD, ("x1",), BOX2)
        assert t.inverse_kind == "affine"
        force = force_block(t)
        assert all(str(e) == "0" for e in force)

    def test_shifted_base_also_builds(self):
        t = quick_build(self.FIELD, ("x1 + x2^2",), BOX2)
        assert t.inverse_kind == "newton"
        force = force_block(t)
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
    """The rank tests run on the least data that decides them: one batched det
    of the ranked block, then an SVD of only the points the det cannot clear."""

    @pytest.fixture
    def ranked(self, monkeypatch):
        """What the rank tests are handed, call by call: the det screen's
        (points, rows, cols), and the stack shapes of the SVD and of LAPACK's
        det."""
        shapes = {"det": [], "svd": [], "lapack": []}
        screen, svd = bundle._screened_rank_failure, bundle._singular_values
        lapack = np.linalg.det

        def record_screen(block, points):
            # one value per point in every column, or one scalar for them all
            assert all(np.shape(c) in ((), (len(points),)) for row in block for c in row)
            assert all(len(row) == len(block) for row in block)
            shapes["det"].append((len(points), len(block), len(block[0])))
            return screen(block, points)

        def record(key, original):
            def wrapper(jac):
                shapes[key].append(jac.shape)
                return original(jac)

            return wrapper

        monkeypatch.setattr(bundle, "_screened_rank_failure", record_screen)
        monkeypatch.setattr(bundle, "_singular_values", record("svd", svd))
        monkeypatch.setattr(np.linalg, "det", record("lapack", lapack))
        return shapes

    @staticmethod
    def svd_points(shapes):
        return sum(shape[0] for shape in shapes["svd"])

    def test_affine_chart_is_ranked_at_one_point(self, ranked):
        sc.build_scenario(sc.get_sode_scenario("oscillator-2"))
        assert [shape[0] for shape in ranked["det"]] == [1]
        assert self.svd_points(ranked) == 0

    def test_coordinate_base_ranks_only_the_fibre_block(self, ranked):
        scenario = sc.get_sode_scenario("fosc-power-2")
        sc.build_scenario(scenario)
        assert ranked["det"] == [(len(scenario.box.sample(seed=0)), 2, 2)]
        assert self.svd_points(ranked) == 0

    def test_bent_base_takes_one_det_of_the_whole_jacobian(self, ranked):
        # the base rows are ranked only where J fails; here J passes
        scenario = sc.get_sode_scenario("free-particle-bent")
        sc.build_scenario(scenario)
        assert ranked["det"] == [(len(scenario.box.sample(seed=0)), 2, 2)]
        assert self.svd_points(ranked) == 0

    def test_no_library_chart_sends_a_point_to_the_svd(self, ranked):
        names = [name for name, _ in sc.structure_library()]
        assert len(ranked["det"]) == len(names)
        assert self.svd_points(ranked) == 0
        # every library block has 1, 2 or 4 rows: all take the det by cofactors
        assert {rows for _, rows, _ in ranked["det"]} == {1, 2, 4}
        assert ranked["lapack"] == []

    @pytest.mark.parametrize("rows", [5, 7, 8])
    def test_only_blocks_above_seven_rows_take_the_lapack_det(self, ranked, rows):
        # coordinate bases over cubic fibres: B = diag(3 x^2 + 1), rows x rows
        ctx = VariableContext.of(*(f"x{k}" for k in range(1, 2 * rows + 1)))
        cubic = VectorField(ctx, tuple(
            parse(f"x{k}^3 + x{k}", ctx) for k in range(rows + 1, 2 * rows + 1)
        ) + (Const(0.0),) * rows)
        base = tuple(f"x{k}" for k in range(1, rows + 1))
        t = quick_build(cubic, base, Box.cube(ctx, 1.0))
        count = ranked["det"][0][0]
        assert ranked["det"] == [(count, rows, rows)]
        assert ranked["lapack"] == ([] if rows <= 7 else [(count, rows, rows)])
        assert self.svd_points(ranked) == 0
        # the grid rows hold the fibre at the box centre, where B = I
        assert t.jacobian_min_abs_det == pytest.approx(1.0)

    def test_singular_fibre_block_is_refused(self, ranked):
        # B = dV/dx2 = 3 x2^2 vanishes on the grid line x2 = 0
        with pytest.raises(FunctionalDependenceError) as info:
            quick_build(VectorField.of(R2, "x2^3", "0"), ("x1",), BOX2)
        assert str(info.value) == "chart functions become dependent near (-1.5, 0.0)"
        # only the points the det cannot clear are decomposed
        assert 0 < self.svd_points(ranked) < ranked["det"][0][0]

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

    def test_nan_jacobian_entry_is_rank_loss(self):
        # dV/dx1 = 1 / (2 sqrt(x1)) is nan for x1 < 0 and inf at x1 = 0
        with pytest.raises(FunctionalDependenceError) as info:
            build(VectorField.of(R2, "1", "sqrt(x1)"), ("x2",), Box.cube(R2, 2.0))
        assert str(info.value) == "chart functions become dependent near (-2.0, -2.0)"


def _full_svd_oracle(jac, points):
    """The failing point (or None) and the singular values, from an SVD of every
    point: the test-only oracle.

    A point with a non-finite entry has singular values 0, as in ``build``.
    """
    sigma = np.zeros(jac.shape[:2])
    for k, matrix in enumerate(jac):
        if np.all(np.isfinite(matrix)):
            sigma[k] = np.linalg.svd(matrix, compute_uv=False)
    return bundle._rank_failure(sigma, points), sigma


def _rank_stack(data):
    """A stack of square matrices mixing plain, near-singular, zero, inf and
    nan points, each scaled by its own power of ten.

    Blocks of 1 to 7 rows take the det by cofactors and 8 rows by LAPACK;
    scales up to 10^+-100 make a cofactor det overflow or underflow."""
    size = data.draw(st.integers(1, 8), label="size")
    count = data.draw(st.integers(1, 6), label="points")
    entries = st.floats(-3.0, 3.0, allow_nan=False)
    stack = []
    for _ in range(count):
        kind = data.draw(st.sampled_from(["plain", "near_singular", "zero", "inf", "nan"]))
        scale = 10.0 ** data.draw(st.one_of(st.just(0), st.integers(-100, 100)))
        matrix = scale * data.draw(arrays(float, (size, size), elements=entries))
        if kind == "near_singular":
            # singular values of order scale and one near scale * tilt, around
            # the rank test's threshold when tilt is near 1e-9
            rank = data.draw(st.integers(0, size - 1))
            left = data.draw(arrays(float, (size, rank), elements=entries))
            right = data.draw(arrays(float, (rank, size), elements=entries))
            tilt = 10.0 ** data.draw(st.integers(-16, -4))
            matrix = scale * (left @ right) + tilt * matrix
        elif kind == "zero":
            matrix = np.zeros((size, size))
        elif kind in ("inf", "nan"):
            i, j = data.draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
            bad = st.just(np.nan) if kind == "nan" else st.sampled_from([-np.inf, np.inf])
            matrix[i, j] = data.draw(bad)
        stack.append(matrix)
    return np.array(stack)


def test_det_the_screen_cannot_clear_is_read_from_the_svd():
    # B = Q diag(1, 1e-8, 1e-8, 1e-8) Q^T passes the rank test (sigma_min 1e-8
    # against 1e-9 * (1 + 1)), but its det 1e-24 is far below the cofactor
    # rounding eps * F^4 of about 1e-16, so only the SVD can give it
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    matrix = q @ np.diag([1.0, 1e-8, 1e-8, 1e-8]) @ q.T
    block = [[np.array([matrix[i, j]]) for j in range(4)] for i in range(4)]
    dependent, abs_det = bundle._screened_rank_failure(block, np.zeros((1, 1)))
    assert dependent is None
    assert abs(abs_det[0] - 1e-24) <= 1e-6 * 1e-24


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_det_screen_matches_the_full_svd(data):
    jac = _rank_stack(data)
    size = jac.shape[1]
    # the screen reads rows of point columns, as build evaluates them; an entry
    # drawn constant is one scalar shared by every point, as a constant tree gives
    constant = data.draw(arrays(bool, (size, size)), label="constant")
    jac[:, constant] = jac[:1, constant]
    block = [
        [jac[0, i, j] if constant[i, j] else jac[:, i, j] for j in range(size)]
        for i in range(size)
    ]
    points = np.arange(float(len(jac)))[:, None]
    dependent, abs_det = bundle._screened_rank_failure(block, points)
    expected, sigma = _full_svd_oracle(jac, points)
    if expected is None:
        assert dependent is None
        # every point passed, so each condition number is below about 1e9.  Each
        # |det| and the product of its singular values agree to about eps cond
        # |det|: the rounding of LAPACK's LU det and of the SVD.  A cofactor det
        # also rounds by up to size^2 eps F^size, allowed only where it cleared
        # the screen's bound 2e-9 (1 + F) F^(size - 1), which makes that under
        # about 1e-6 of it; a point the screen sent to the SVD reads prod(sigma).
        # A product past the float range leaves |det| non-finite too.
        eps = np.finfo(float).eps
        cond = sigma[:, 0] / sigma[:, -1]
        with np.errstate(over="ignore"):
            oracle = np.prod(sigma, axis=1)
            fro = np.sqrt(np.einsum("kij,kij->k", jac, jac))
            tol = 1e3 * eps * cond * oracle
            if size <= bundle._COFACTOR_MAX_ROWS:
                bound = 2.0 * bundle._RANK_RTOL * (1.0 + fro) * fro ** (size - 1)
                cleared = abs_det > bound
                # size^2 eps F^size, in an order that stays finite where the bound does
                rounding = np.where(cleared, size**2 * eps * fro * fro ** (size - 1), 0.0)
                assert np.all(rounding[cleared] < 1e-5 * abs_det[cleared])
                tol = tol + rounding
        inside = np.isfinite(oracle)
        assert np.all(np.abs(abs_det[inside] - oracle[inside]) <= tol[inside])
        assert not np.any(np.isfinite(abs_det[~inside]))
    else:
        assert dependent is not None and dependent[0] == expected[0]


class TestBaseEntries:
    """Base functions go through the same entry checks as field entries."""

    def test_scalar_field_and_text_entries_agree(self):
        from_fields = quick_build(SPIN4, (ScalarField(R4, "x1"), "x3"), BOX4)
        from_text = quick_build(SPIN4, ("x1", "x3"), BOX4)
        assert from_fields.forward == from_text.forward

    def test_scalar_field_on_another_context_rejected(self):
        with pytest.raises(ValueError):
            quick_build(SPIN4, (ScalarField(R2, "x1"), "x3"), BOX4)

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

        def record(forward, jacobian, target, guess):
            guesses.append(np.array(guess))
            return original(forward, jacobian, target, guess)

        monkeypatch.setattr(bundle, "_newton_solve", record)
        target = st.forward(np.array([0.3, -0.2, 0.4, 0.1]))
        st.inverse(target)
        ((guess,),) = guesses
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

    def test_fibre_slope_over_a_base_denominator_is_linear(self):
        # dV/dv1 = 1/(1 + q1^2) uses only q1, though its v1-derivative is an
        # unfolded 0/(...) tree
        ctx = qv_context(1)
        field = VectorField.of(ctx, "v1/(1 + q1^2)", "-q1")
        t = build(field, ("q1",), Box.cube(ctx, 1.5))
        assert t.inverse_kind == "triangular"
        assert "nonlinear_fibers" not in t.warnings

    def test_singular_jacobian_message_holds_plain_numbers(self):
        # dV/dv1 = 1 - v1^2 vanishes at v1 = 1, outside the certified box
        ctx = qv_context(1)
        field = VectorField.of(ctx, "v1 - v1^3/3", "-q1")
        t = quick_build(field, ("q1",), Box.cube(ctx, 0.9))
        assert t.inverse_kind == "newton"
        _, failures = bundle._newton_solve(
            *newton_maps(t), np.array([t.forward([0.2, 0.5])]), np.array([[0.5, 1.0]])
        )
        message = failures[0]
        assert "np." not in message
        assert ast.literal_eval(message.split(" near ")[1]) == (0.5, 1.0)

    def test_each_row_of_a_batch_fails_for_its_own_reason(self):
        ctx = qv_context(1)
        field = VectorField.of(ctx, "v1 - v1^3/3", "-q1")
        t = quick_build(field, ("q1",), Box.cube(ctx, 0.9))
        target = np.tile(t.forward([0.2, 0.5]), (3, 1))
        guess = np.array([[0.5, 1.0], [math.nan, 0.5], [0.2, 0.4]])
        x, failures = bundle._newton_solve(*newton_maps(t), target, guess)
        assert failures == {
            0: "chart Jacobian is singular near (0.5, 1.0)",
            1: "chart map undefined at the starting guess",
        }
        np.testing.assert_allclose(x[2], [0.2, 0.5], atol=1e-12)

    @pytest.mark.parametrize(
        "failures, moved, message",
        [
            ({5: "chart inversion stalled", 2: "chart map undefined"}, None,
             "chart map undefined"),
            ({5: "chart inversion stalled"}, 3, "round trip moved"),
            ({1: "chart Jacobian is singular"}, 3, "chart Jacobian is singular"),
        ],
    )
    def test_the_first_failing_spot_point_names_the_error(
        self, monkeypatch, failures, moved, message
    ):
        # the spot points are solved in one batch; the error is the one the
        # earliest failing point in sample order raises on its own
        original = bundle._newton_solve
        solved = []

        def solve(forward, jacobian, target, guess):
            x, found = original(forward, jacobian, target, guess)
            assert found == {}
            solved.append(x.copy())
            if moved is not None:
                x[moved] += 1.0
            return x, failures

        monkeypatch.setattr(bundle, "_newton_solve", solve)
        with pytest.raises(NonInvertibleChartError, match=message) as info:
            quick_build(SPIN4, ("x1", "x3"), BOX4)
        if message == "round trip moved":  # it names its spot point
            assert str(info.value).endswith(bundle._point_text(solved[0][moved]))

    def test_building_the_library_generates_no_code(self, monkeypatch):
        # every sampled check, the round trip included, runs on the batch backend
        compiled = []
        original = fields.compile_scalar

        def spy(e, ctx):
            compiled.append(e)
            return original(e, ctx)

        monkeypatch.setattr(fields, "compile_scalar", spy)
        for scenario in sc.buildable_scenarios():
            sc.build_scenario(scenario)
        assert compiled == []

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

    def test_force_block_is_minus_the_base(self):
        t = quick_build(SPIN4, ("x1", "x3"), BOX4)
        assert [str(e) for e in force_block(t)] == ["-x1", "-x3"]
