"""Coordinate fields over a variable context.

A field here is a tuple (or matrix) of expression trees tied to one
:class:`~sodelab.expr.VariableContext`.  Evaluation compiles all entries once
into one cached function, so repeated sampling (verification grids, numeric
integration) stays cheap while every derivative used to build the field was
taken symbolically.  :func:`vectorized_scalar`, :func:`evaluate_on` and
:func:`max_abs_on` evaluate trees on point arrays through the batch backend;
like the scalar one, it computes a subexpression the trees share once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ChartDimensionError, DomainSamplingError
from .expr import (
    Const,
    Expression,
    Var,
    VariableContext,
    _emit,
    compile_scalar,
    differentiate,
    free_variables,
    mul,
    neg,
    parse,
    to_source,
)

__all__ = [
    "ScalarField",
    "VectorField",
    "FieldRhs",
    "OneFormField",
    "Tensor11Field",
    "TwoFormField",
    "PointMap",
    "Box",
    "canonical_tangent_structure",
    "canonical_symplectic",
    "vectorized_scalar",
    "evaluate_on",
    "max_abs_on",
]


def vectorized_scalar(
    e: Expression | Sequence[Expression], ctx: VariableContext
) -> Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, ...]]:
    """Compile a tree, or a sequence of trees, to a function of an (m, dim) array.

    Uses numpy ufuncs and never raises on values: domain violations and
    overflow give nan/inf entries, and callers scanning for residual maxima
    treat non-finite as failure.  A sequence gives a tuple of values; a
    constant tree may give a scalar instead of an (m,) array.
    """
    return _emit(e, ctx, batch=True)


def _flattened(rows) -> tuple[list[Expression], tuple[int, ...]]:
    """A sequence of trees, or rows of them, as one flat list and its shape."""
    if len(rows) > 0 and not isinstance(rows[0], Expression):
        return [e for row in rows for e in row], (len(rows), len(rows[0]))
    return list(rows), (len(rows),)


def evaluate_on(exprs: Sequence, ctx: VariableContext, points: np.ndarray) -> np.ndarray:
    """Batch values on an (m, dim) point array, in one call: shape (m, k) for a
    sequence of k trees, (m, rows, cols) for rows of trees such as a Jacobian's."""
    flat, shape = _flattened(exprs)
    out = np.empty((len(points), len(flat)))
    for k, value in enumerate(vectorized_scalar(flat, ctx)(points)):
        out[:, k] = value
    return out.reshape(len(points), *shape)


def max_abs_on(
    exprs: Sequence[Expression], ctx: VariableContext, points: np.ndarray
) -> float:
    """Largest |value| of the trees over the points; nan counts as inf.

    One compiled call evaluates the whole set, so every non-constant tree's
    (m,) column and one (m,) array per shared subexpression are alive at
    once; a constant tree gives one scalar.  No trees, or no points, give 0.0.
    """
    worst = 0.0
    for value in vectorized_scalar(exprs, ctx)(points):
        peak = float(np.max(np.abs(value), initial=0.0))
        worst = max(worst, math.inf if math.isnan(peak) else peak)
    return worst


def _entries(ctx: VariableContext, entries, shape: tuple[int, ...]):
    """``entries`` as trees over ``ctx``, nested as ``shape`` says.

    ``shape`` is () for one entry, (k,) for k entries or (k, k) for k rows of
    k.  An entry may be a tree, source text, a number or a :class:`ScalarField`
    on ``ctx``; a wrong count raises ValueError, as does a tree naming a
    coordinate outside ``ctx``, and an entry of another type raises TypeError.
    """
    if shape:
        entries = tuple(entries)
        if len(entries) != shape[0]:
            raise ValueError(f"expected {shape[0]} entries, got {len(entries)}")
        return tuple(_entries(ctx, entry, shape[1:]) for entry in entries)
    if isinstance(entries, ScalarField):
        if entries.ctx != ctx:
            raise ValueError(f"scalar field over {entries.ctx.names}, not {ctx.names}")
        return entries.expr
    if isinstance(entries, str):
        return parse(entries, ctx)
    if isinstance(entries, (int, float)):
        return Const(float(entries))
    if not isinstance(entries, Expression):
        raise TypeError(f"cannot treat {type(entries).__name__} as a field entry")
    extra = free_variables(entries) - set(ctx.names)
    if extra:
        raise ValueError(
            f"expression '{to_source(entries)}' uses {sorted(extra)} outside {ctx.names}"
        )
    return entries


def _fused(ctx: VariableContext, rows) -> Callable[..., float | np.ndarray]:
    """One scalar-backend call for a tree, a vector or a matrix of trees.

    The callable returns a float for one tree and otherwise an ndarray shaped
    like ``rows``.
    """
    if isinstance(rows, Expression):
        return compile_scalar(rows, ctx)
    flat, shape = _flattened(rows)
    fn = compile_scalar(flat, ctx)
    return lambda point: np.array(fn(point), dtype=float).reshape(shape)


class _Shaped:
    """Entries of one shape over one context, callable on points.

    A subclass is a frozen dataclass whose entries sit in the attribute
    ``_attr``; ``_layout`` gives the context they live on and their shape.
    Construction coerces and checks the entries, and evaluation compiles all
    of them into one cached function.
    """

    _attr = "components"

    def _layout(self) -> tuple[VariableContext, tuple[int, ...]]:
        return self.ctx, (self.ctx.dim,)

    def __post_init__(self) -> None:
        ctx, shape = self._layout()
        object.__setattr__(self, self._attr, _entries(ctx, getattr(self, self._attr), shape))

    @cached_property
    def _fn(self) -> Callable[..., float | np.ndarray]:
        return _fused(self._layout()[0], getattr(self, self._attr))

    def __call__(self, point):
        return self._fn(point)


@dataclass(frozen=True)
class ScalarField(_Shaped):
    """A single expression over a context, callable on points."""

    ctx: VariableContext
    expr: Expression

    _attr = "expr"

    def _layout(self):
        return self.ctx, ()

    def gradient(self) -> "OneFormField":
        return OneFormField(
            self.ctx,
            tuple(differentiate(self.expr, name) for name in self.ctx.names),
        )


@dataclass(frozen=True)
class VectorField(_Shaped):
    """Contravariant components X^i over a context; one entry per coordinate."""

    ctx: VariableContext
    components: tuple[Expression, ...]

    @classmethod
    def of(cls, ctx: VariableContext, *entries: Expression | str | float) -> "VectorField":
        return cls(ctx, tuple(entries))  # type: ignore[arg-type]

    @cached_property
    def ode_rhs(self) -> "FieldRhs":
        """Adapter f(t, y) for the integrator; the field is autonomous."""
        return FieldRhs(self)

    @cached_property
    def stage_fn(self) -> Callable[..., tuple[float, ...]]:
        """The field function ``(t, x1, ..., xn) -> components`` on plain floats.

        The integration kernel calls it once per stage.  It has the values
        and the domain errors of :func:`~sodelab.expr.evaluate`, and computes
        each shared subexpression once.
        """
        return compile_scalar(self.components, self.ctx, stage=True)

    def negated(self) -> "VectorField":
        return VectorField(self.ctx, tuple(neg(c) for c in self.components))

    def scaled(self, factor: Expression | str | float) -> "VectorField":
        f = _entries(self.ctx, factor, ())
        return VectorField(self.ctx, tuple(mul(f, c) for c in self.components))


class FieldRhs:
    """``VectorField.ode_rhs``: ``f(t, y)`` is the field at ``y``, as an array.

    :func:`~sodelab.dynamics.integrate` recognises this type and calls the
    field's :attr:`VectorField.stage_fn` on plain floats directly.  It holds
    that function, not the field, so the field's cached ``ode_rhs`` is no
    reference cycle that would keep the field's trees alive.
    """

    __slots__ = ("stage_fn",)

    def __init__(self, field: VectorField) -> None:
        self.stage_fn = field.stage_fn

    def __call__(self, t: float, y) -> np.ndarray:
        return np.array(self.stage_fn(t, *np.asarray(y, dtype=float).tolist()))


@dataclass(frozen=True)
class OneFormField(_Shaped):
    """Covariant components alpha_i over a context."""

    ctx: VariableContext
    components: tuple[Expression, ...]


class _Matrix(_Shaped):
    """A square matrix of entries over the context, given as rows."""

    _attr = "matrix"

    def _layout(self):
        return self.ctx, (self.ctx.dim, self.ctx.dim)

    @classmethod
    def constant(cls, ctx: VariableContext, matrix: np.ndarray):
        return cls(ctx, np.asarray(matrix, dtype=float).tolist())


@dataclass(frozen=True)
class Tensor11Field(_Matrix):
    """A (1,1) tensor: matrix[i][j] = T^i_j, acting on vectors by contraction."""

    ctx: VariableContext
    matrix: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class TwoFormField(_Matrix):
    """A two-form: matrix[i][j] = omega_ij with omega(X, Y) = X^i omega_ij Y^j."""

    ctx: VariableContext
    matrix: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class PointMap(_Shaped):
    """A coordinate map src -> dst given by dst.dim expressions over src names."""

    src: VariableContext
    dst: VariableContext
    components: tuple[Expression, ...]

    def _layout(self):
        return self.src, (self.dst.dim,)

    @cached_property
    def jacobian(self) -> tuple[tuple[Expression, ...], ...]:
        """First-partial trees: ``jacobian[i][j]`` is d(components[i])/d(src.names[j])."""
        return tuple(
            tuple(differentiate(comp, name) for name in self.src.names)
            for comp in self.components
        )

    @cached_property
    def _jacobian_fn(self) -> Callable[..., np.ndarray]:
        return _fused(self.src, self.jacobian)

    def jacobian_at(self, point) -> np.ndarray:
        """d(components)/d(src coordinates), shape (dst.dim, src.dim)."""
        return self._jacobian_fn(point)


@dataclass(frozen=True)
class Box:
    """An axis-aligned sampling domain, optionally minus a coordinate ball.

    ``exclude_radius > 0`` removes points whose Euclidean norm over
    ``exclude_dims`` (all coordinates when None) is below the radius; this is
    how singular loci like a collision set or a degenerate fiber are kept out
    of verification grids.
    """

    ctx: VariableContext
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    exclude_radius: float = 0.0
    exclude_dims: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != self.ctx.dim or len(hi) != self.ctx.dim:
            raise ValueError("box bounds must match the context dimension")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("each lower bound must be below its upper bound")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.exclude_dims is not None:
            dims = tuple(int(d) for d in self.exclude_dims)
            if any(d < 0 or d >= self.ctx.dim for d in dims):
                raise ValueError("exclude_dims out of range")
            object.__setattr__(self, "exclude_dims", dims)

    @classmethod
    def cube(
        cls, ctx: VariableContext, half_width: float, *, exclude_radius: float = 0.0
    ) -> "Box":
        """The box |x_k| <= half_width, minus the ball |x| < exclude_radius."""
        return cls(ctx, (-half_width,) * ctx.dim, (half_width,) * ctx.dim, exclude_radius)

    @property
    def center(self) -> np.ndarray:
        return (np.array(self.lo) + np.array(self.hi)) / 2.0

    def _excluded(self, points: np.ndarray) -> np.ndarray:
        if self.exclude_radius <= 0.0:
            return np.zeros(len(points), dtype=bool)
        if self.exclude_dims is not None:
            points = points[:, list(self.exclude_dims)]
        return np.linalg.norm(points, axis=1) < self.exclude_radius

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        inside = bool(np.all(p >= self.lo) and np.all(p <= self.hi))
        return inside and not bool(self._excluded(p.reshape(1, -1))[0])

    def sample(
        self, seed: int = 0, n_random: int = 500, grid_points: int = 11
    ) -> np.ndarray:
        """Deterministic grid plus seeded uniform draws, exclusion applied.

        The grid spans the first min(dim, 4) axes; remaining coordinates sit
        at the box center so the point count stays bounded in high dimension.
        Rows come in a fixed order: the ``grid_points ** min(dim, 4)`` grid
        rows in C order over the gridded axes (the last one varies fastest),
        then the ``n_random`` draws of ``default_rng(seed).uniform``.  The
        exclusion ball drops rows and keeps that order.  Raises
        :class:`DomainSamplingError` when fewer than 10 points are left.
        """
        dim = self.ctx.dim
        gridded = min(dim, 4)
        n_grid = grid_points**gridded
        points = np.empty((n_grid + n_random, dim))
        grid = points[:n_grid].reshape((grid_points,) * gridded + (dim,))
        for k in range(gridded):
            axis = np.linspace(self.lo[k], self.hi[k], grid_points)
            grid[..., k] = axis.reshape((-1,) + (1,) * (gridded - 1 - k))
        points[:n_grid, gridded:] = self.center[gridded:]
        rng = np.random.default_rng(seed)
        points[n_grid:] = rng.uniform(self.lo, self.hi, size=(n_random, dim))
        if self.exclude_radius > 0.0:
            points = points[~self._excluded(points)]
        if len(points) < 10:
            raise DomainSamplingError(
                f"only {len(points)} sample points survive the exclusion ball"
            )
        return points


def _half_dim(ctx: VariableContext, chart: str) -> int:
    if ctx.dim % 2 != 0:
        raise ChartDimensionError(
            f"a {chart} chart needs an even coordinate count, got {ctx.dim}"
        )
    return ctx.dim // 2


def canonical_tangent_structure(ctx: VariableContext):
    """The flat vertical endomorphism and dilation field on a (base, fiber) chart.

    The context must list n base names followed by n fiber names.  Returns
    ``(S, delta)`` where S sends each base direction to its fiber partner and
    kills fiber directions, and delta scales fibers: components (0, .., v).
    """
    n = _half_dim(ctx, "tangent")
    matrix = np.zeros((ctx.dim, ctx.dim))
    for k in range(n):
        matrix[n + k, k] = 1.0
    s = Tensor11Field.constant(ctx, matrix)
    delta = VectorField(ctx, (0.0,) * n + tuple(Var(name) for name in ctx.names[n:]))
    return s, delta


def canonical_symplectic(ctx: VariableContext) -> TwoFormField:
    """dq^k wedge dp_k on a (position, momentum) chart: omega(X, Y) = X^q.Y^p - X^p.Y^q."""
    n = _half_dim(ctx, "phase-space")
    matrix = np.zeros((ctx.dim, ctx.dim))
    for k in range(n):
        matrix[k, n + k] = 1.0
        matrix[n + k, k] = -1.0
    return TwoFormField.constant(ctx, matrix)
