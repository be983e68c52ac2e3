"""Field containers, sampling boxes, canonical structures."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodelab import expr, fields
from sodelab.dynamics import integrate
from sodelab.errors import ChartDimensionError, DomainSamplingError
from sodelab.expr import Const, Var, VariableContext, parse, qv_context
from sodelab.fields import (
    Box,
    OneFormField,
    PointMap,
    ScalarField,
    Tensor11Field,
    TwoFormField,
    VectorField,
    canonical_symplectic,
    canonical_tangent_structure,
    evaluate_on,
    max_abs_on,
)

CTX2 = qv_context(2)  # (q1, q2, v1, v2)


class TestContainers:
    def test_vector_field_from_strings(self):
        x = VectorField.of(CTX2, "v1", "v2", "-q1", "-q2")
        np.testing.assert_allclose(
            x((1.0, 2.0, 3.0, 4.0)), [3.0, 4.0, -1.0, -2.0]
        )

    def test_component_count_enforced(self):
        with pytest.raises(ValueError):
            VectorField.of(CTX2, "v1", "v2")

    def test_out_of_context_name_rejected(self):
        other = parse("x", VariableContext.of("x"))
        with pytest.raises(ValueError):
            ScalarField(CTX2, other)

    def test_scalar_gradient(self):
        h = ScalarField(CTX2, "q1^2 + q2*v1")
        grad = h.gradient()
        np.testing.assert_allclose(
            grad((1.0, 2.0, 3.0, 4.0)), [2.0, 3.0, 2.0, 0.0]
        )

    def test_negated_and_scaled(self):
        x = VectorField.of(CTX2, "v1", "v2", "-q1", "-q2")
        p = (1.0, 2.0, 3.0, 4.0)
        np.testing.assert_allclose(x.negated()(p), -x(p))
        np.testing.assert_allclose(x.scaled(2.0)(p), 2 * x(p))
        np.testing.assert_allclose(x.scaled("q1")(p), 1.0 * x(p))

    def test_ode_rhs_adapter(self):
        x = VectorField.of(CTX2, "v1", "v2", "-q1", "-q2")
        p = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(x.ode_rhs(17.0, p), x(p))

    def test_tensor_contraction_shape(self):
        s = Tensor11Field.constant(CTX2, np.eye(4))
        assert s((0.0, 0.0, 0.0, 0.0)).shape == (4, 4)


PLANE = VariableContext.of("x", "y")
SPACE = VariableContext.of("a", "b", "c")

# each field class with its constructor from entries and the shape it needs
SHAPED = {
    "ScalarField": (lambda e: ScalarField(PLANE, e), ()),
    "VectorField": (lambda e: VectorField(PLANE, e), (2,)),
    "OneFormField": (lambda e: OneFormField(PLANE, e), (2,)),
    "Tensor11Field": (lambda e: Tensor11Field(PLANE, e), (2, 2)),
    "TwoFormField": (lambda e: TwoFormField(PLANE, e), (2, 2)),
    "PointMap": (lambda e: PointMap(PLANE, SPACE, e), (3,)),
}


def _nest(shape, flat):
    """The flat entries as a tuple, or a tuple of rows, of the given shape."""
    if not shape:
        return flat[0]
    step = len(flat) // shape[0]
    return tuple(_nest(shape[1:], flat[i * step:(i + 1) * step]) for i in range(shape[0]))


def _size(shape):
    return int(np.prod(shape, dtype=int))


class TestEntryChecks:
    """One validation path shared by every field class."""

    @pytest.mark.parametrize("name", [n for n, (_, shape) in SHAPED.items() if shape])
    def test_wrong_shape_rejected(self, name):
        make, shape = SHAPED[name]
        n = shape[0]
        if len(shape) == 1:
            bad = [(n - 1,), (n + 1,)]
        else:
            bad = [(n - 1, n), (n + 1, n), (n, n + 1)]  # too few, too many, not square
        for wrong in bad:
            with pytest.raises(ValueError):
                make(_nest(wrong, ["x"] * _size(wrong)))
        if len(shape) == 2:
            rows = _nest(shape, ["x"] * _size(shape))
            with pytest.raises(ValueError):
                make(rows[:-1] + (rows[-1][:-1],))  # ragged

    @pytest.mark.parametrize("name", SHAPED)
    @pytest.mark.parametrize(
        "stray", [Var("z"), ScalarField(VariableContext.of("z"), "z")],
        ids=["tree", "scalar-field"],
    )
    def test_entry_outside_context_rejected(self, name, stray):
        make, shape = SHAPED[name]
        flat = ["x"] * _size(shape)
        flat[-1] = stray
        with pytest.raises(ValueError):
            make(_nest(shape, flat))

    @pytest.mark.parametrize("name", SHAPED)
    @pytest.mark.parametrize("bad", [None, [1.0], object()], ids=["none", "list", "object"])
    def test_entry_of_bad_type_rejected(self, name, bad):
        make, shape = SHAPED[name]
        flat = ["x"] * _size(shape)
        flat[-1] = bad
        with pytest.raises(TypeError):
            make(_nest(shape, flat))

    @pytest.mark.parametrize("name", SHAPED)
    def test_text_number_and_tree_entries_agree(self, name):
        make, shape = SHAPED[name]
        text = [("x*y", "2", "y - x", "0.5")[k % 4] for k in range(_size(shape))]
        trees = [parse(t, PLANE) for t in text]
        mixed = [float(t) if t[0].isdigit() else ScalarField(PLANE, t) for t in text]
        field = make(_nest(shape, text))
        assert field == make(_nest(shape, trees)) == make(_nest(shape, mixed))
        point = (0.3, -1.2)
        np.testing.assert_array_equal(field(point), make(_nest(shape, trees))(point))


class TestPointMap:
    def test_jacobian_matches_difference_quotient(self):
        src = VariableContext.of("a", "b")
        dst = VariableContext.of("u", "w", "z")
        m = PointMap(src, dst, ("a*b", "a^2 - b", "sin(a)"))
        p = np.array([0.7, -1.2])
        jac = m.jacobian_at(p)
        h = 1e-6
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = h
            numeric = (m(p + dp) - m(p - dp)) / (2 * h)
            np.testing.assert_allclose(jac[:, j], numeric, rtol=1e-6, atol=1e-9)

    def test_component_count_checked(self):
        src = VariableContext.of("a")
        dst = VariableContext.of("u", "w")
        with pytest.raises(ValueError):
            PointMap(src, dst, ("a",))

    def test_point_and_jacobian_calls_check_the_point_length(self):
        m = PointMap(VariableContext.of("a", "b"), VariableContext.of("u"), ("a*b",))
        for call in (m, m.jacobian_at):
            with pytest.raises(ValueError, match="point has 3 coordinates, context has 2"):
                call((1.0, 2.0, 3.0))
        assert m.jacobian_at(np.array([2.0, 3.0])).tolist() == [[3.0, 2.0]]


class TestBatch:
    POINTS = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 0.5, 0.0]])

    def test_evaluate_on_stacks_columns(self):
        exprs = [parse(s, CTX2) for s in ("q1 + v2", "2", "1/v2")]
        values = evaluate_on(exprs, CTX2, self.POINTS)
        np.testing.assert_array_equal(values, [[3.0, 2.0, 1 / 3], [1.0, 2.0, np.inf]])

    def test_max_abs_on_counts_nan_as_inf(self):
        assert max_abs_on([parse("q2 - q1", CTX2)], CTX2, self.POINTS) == 2.0
        assert max_abs_on([parse("sqrt(q1 - 2)", CTX2)], CTX2, self.POINTS) == np.inf
        assert max_abs_on([], CTX2, self.POINTS) == 0.0

    def test_max_abs_on_mixes_constant_and_varying_trees(self):
        # one compile for the set: a constant tree comes back as one scalar
        assert max_abs_on([Const(math.nan)], CTX2, self.POINTS) == math.inf
        varying = parse("q2 - q1", CTX2)
        assert max_abs_on([Const(-3.0), varying, Const(1.5)], CTX2, self.POINTS) == 3.0
        assert max_abs_on([Const(0.5), varying], CTX2, self.POINTS) == 2.0
        assert max_abs_on([varying, Const(math.nan)], CTX2, self.POINTS) == math.inf


class TestBox:
    def test_sampling_is_deterministic(self):
        box = Box.cube(CTX2, 2.0)
        a = box.sample(seed=7, n_random=50)
        b = box.sample(seed=7, n_random=50)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_random_tail(self):
        box = Box.cube(CTX2, 2.0)
        a = box.sample(seed=1, n_random=50)
        b = box.sample(seed=2, n_random=50)
        assert not np.array_equal(a[-50:], b[-50:])

    def test_points_inside_bounds(self):
        box = Box(CTX2, (-1.0, 0.0, -2.0, 1.0), (1.0, 3.0, 2.0, 4.0))
        pts = box.sample(seed=0, n_random=100)
        assert np.all(pts >= np.array(box.lo) - 1e-12)
        assert np.all(pts <= np.array(box.hi) + 1e-12)

    def test_exclusion_ball_over_selected_dims(self):
        box = Box(CTX2, (-1.0,) * 4, (1.0,) * 4, exclude_radius=0.5, exclude_dims=(0, 1))
        pts = box.sample(seed=0, n_random=200)
        assert np.all(np.linalg.norm(pts[:, :2], axis=1) >= 0.5)
        # fiber coordinates are free to be small
        assert np.any(np.linalg.norm(pts[:, 2:], axis=1) < 0.5)

    @pytest.mark.parametrize("radius", [0.5, 0.3, 1.0, 7.25, 1e-155, 1e-160, 1e150])
    def test_exclusion_at_the_sphere_matches_the_norm(self, radius):
        # points within 4 ulp of the sphere, where the screening sum of
        # squares and the norm round apart; tiny radii square to subnormals
        dims = [0, 2, 3]
        ctx = VariableContext(tuple(f"x{k}" for k in range(5)))
        box = Box(ctx, (-1.0,) * 5, (1.0,) * 5, exclude_radius=radius, exclude_dims=dims)
        directions = np.random.default_rng(0).normal(size=(200, 5))
        directions /= np.linalg.norm(directions[:, dims], axis=1)[:, None]
        directions = np.vstack([directions, np.eye(5)[dims]])
        edge = radius + np.arange(-4, 5) * np.spacing(radius)
        points = (directions[:, None, :] * edge[None, :, None]).reshape(-1, 5)
        expected = np.linalg.norm(points[:, dims], axis=1) < radius
        np.testing.assert_array_equal(box._excluded(points), expected)
        assert expected.any() and not expected.all()

    def test_empty_domain_raises(self):
        with pytest.raises(DomainSamplingError):
            Box.cube(CTX2, 1.0, exclude_radius=10.0).sample(seed=0, n_random=10)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box(CTX2, (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 1.0))

    def test_high_dimension_grid_stays_bounded(self):
        ctx8 = qv_context(4)
        box = Box.cube(ctx8, 1.0)
        pts = box.sample(seed=0, n_random=20, grid_points=3)
        # 3^4 grid points, extra axes at center, plus the random tail
        assert len(pts) == 81 + 20
        assert np.allclose(pts[:81, 4:], 0.0)

    def test_contains(self):
        box = Box.cube(CTX2, 1.0, exclude_radius=0.25)
        assert box.contains((0.5, 0.5, 0.5, 0.5))
        assert not box.contains((2.0, 0.0, 0.0, 0.0))
        assert not box.contains((0.1, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("exclude_radius", [0.0, 0.25])
    def test_contains_refuses_a_point_of_the_wrong_length(self, exclude_radius):
        ctx2 = VariableContext.of("x", "y")
        box = Box.cube(ctx2, 1.0, exclude_radius=exclude_radius)
        for point in ([0.5], [0.5, 0.5, 0.5]):
            message = f"^point has {len(point)} coordinates, context has 2$"
            with pytest.raises(ValueError, match=message):
                box.contains(point)
        assert box.contains([0.5, 0.5])


def _meshgrid_sample(box, seed, n_random, grid_points):
    """The draw as it was written before ``Box.sample`` filled one array:
    meshgrid, stack, tile and stack again, then a masked copy.  The oracle
    the one-array draw must match bit for bit."""
    dim = box.ctx.dim
    gridded = min(dim, 4)
    axes = [np.linspace(box.lo[k], box.hi[k], grid_points) for k in range(gridded)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    if gridded < dim:
        grid = np.hstack([grid, np.tile(box.center[gridded:], (len(grid), 1))])
    rng = np.random.default_rng(seed)
    points = np.vstack([grid, rng.uniform(box.lo, box.hi, size=(n_random, dim))])
    if box.exclude_radius > 0.0:
        dims = list(range(dim)) if box.exclude_dims is None else list(box.exclude_dims)
        points = points[~(np.linalg.norm(points[:, dims], axis=1) < box.exclude_radius)]
    if len(points) < 10:
        raise DomainSamplingError(
            f"only {len(points)} sample points survive the exclusion ball"
        )
    return points


@st.composite
def _boxes(draw):
    dim = draw(st.integers(1, 8))
    ctx = VariableContext(tuple(f"x{k}" for k in range(dim)))
    # coordinates near 1e-160 square to subnormals, and near 1e150 overflow
    # in a sum of squares
    scale = draw(st.sampled_from([1.0, 1e-160, 1e150]))
    bounds = st.floats(-10.0, 10.0)
    lo = [scale * a for a in draw(st.lists(bounds, min_size=dim, max_size=dim))]
    widths = draw(st.lists(st.floats(1e-3, 10.0), min_size=dim, max_size=dim))
    radius = scale * draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    dims = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True),
    ))
    hi = [a + scale * w for a, w in zip(lo, widths)]
    return Box(ctx, tuple(lo), tuple(hi), exclude_radius=radius, exclude_dims=dims)


@settings(max_examples=300, deadline=None)
@given(
    box=_boxes(),
    seed=st.integers(0, 2**32 - 1),
    n_random=st.integers(0, 600),
    grid_points=st.integers(1, 11),
)
def test_sample_matches_the_meshgrid_draw_bit_for_bit(box, seed, n_random, grid_points):
    try:
        expected = _meshgrid_sample(box, seed, n_random, grid_points)
    except DomainSamplingError as exc:
        with pytest.raises(DomainSamplingError) as raised:
            box.sample(seed, n_random, grid_points)
        assert str(raised.value) == str(exc)
        return
    points = box.sample(seed, n_random, grid_points)
    assert points.shape == expected.shape
    assert points.dtype == np.float64 and points.flags.c_contiguous
    np.testing.assert_array_equal(points.view(np.int64), expected.view(np.int64))


class TestCanonicalStructures:
    def test_vertical_endomorphism_blocks(self):
        s, _ = canonical_tangent_structure(CTX2)
        m = s((0.3, -0.2, 1.5, 2.5))
        expected = np.zeros((4, 4))
        expected[2, 0] = expected[3, 1] = 1.0
        np.testing.assert_array_equal(m, expected)

    def test_dilation_components(self):
        _, delta = canonical_tangent_structure(CTX2)
        np.testing.assert_allclose(
            delta((9.0, 9.0, 1.5, -2.5)), [0.0, 0.0, 1.5, -2.5]
        )

    def test_odd_dimension_rejected(self):
        with pytest.raises(ChartDimensionError):
            canonical_tangent_structure(VariableContext.of("a", "b", "c"))

    def test_symplectic_pairing(self):
        ctx = VariableContext.of("q1", "q2", "p1", "p2")
        omega = canonical_symplectic(ctx)
        m = omega((0.0, 0.0, 0.0, 0.0))
        dq1 = np.array([1.0, 0.0, 0.0, 0.0])
        dp1 = np.array([0.0, 0.0, 1.0, 0.0])
        assert dq1 @ m @ dp1 == 1.0
        assert dp1 @ m @ dq1 == -1.0
        np.testing.assert_array_equal(m, -m.T)


def test_point_calls_and_integration_share_one_compiled_function(monkeypatch):
    compiled = []

    def spy(e, ctx):
        compiled.append(e)
        return expr.compile_scalar(e, ctx)

    monkeypatch.setattr(fields, "compile_scalar", spy)
    field = VectorField.of(CTX2, "v1", "v2", "-q1", "-q2")
    start = np.array([1.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(field(start), [0.0, 1.0, -1.0, -0.0])
    traj = integrate(field.ode_rhs, start, 1.0)
    assert traj.status == "completed"
    assert len(compiled) == 1
    assert field.ode_rhs.stage_fn is field._fn


def test_a_field_and_its_rhs_hold_no_reference_cycle():
    gc.collect()
    before = len(expr._NODES)
    field = VectorField.of(CTX2, "v1", "v2", "-q1*sqrt(q1^2 + q2^2)", "-q2")
    rhs = field.ode_rhs
    del field  # the rhs works on without the field, and holds none of its trees
    assert len(expr._NODES) == before
    np.testing.assert_array_equal(rhs(0.0, [3.0, 4.0, 1.0, 2.0]), [1.0, 2.0, -15.0, -4.0])
    assert len(expr._NODES) == before
