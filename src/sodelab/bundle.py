"""Constructing tangent-bundle charts that make a given field second order.

``build`` takes a first-order field and a choice of base functions, derives
the matching velocity functions by differentiating along the field, and
certifies on a sample grid that the combined functions form a genuine chart.
Every check reads the chart's one set of first-partial trees,
:attr:`~sodelab.fields.PointMap.jacobian`: the rank tests and the Jacobian
floor come from one batched SVD, and the shape tests take second partials of
its rows.  The chart is inverted by its symbolic affine map when it is
affine, and otherwise by a damped Newton solve seeded from the base.  In the
new chart the canonical vertical endomorphism and dilation field turn the
original dynamics into an explicitly second-order system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    ChartDimensionError,
    DegenerateBaseError,
    EvaluationDomainError,
    FixedPointOnBaseError,
    FunctionalDependenceError,
    NonInvertibleChartError,
)
from .expr import (
    Const,
    Expression,
    Var,
    VariableContext,
    add,
    differentiate,
    free_variables,
    mul,
    sub,
    substitute,
    sum_of_products,
    to_source,
)
from .fields import (
    Box,
    PointMap,
    ScalarField,
    VectorField,
    _entries,
    evaluate_on,
)
from .geometry import lie_scalar

__all__ = [
    "TangentStructure",
    "build",
    "structure_sode_residual",
]

_ZERO_FIELD_TOL = 1e-12
# a point fails a rank check when sigma_min <= _RANK_RTOL * (1 + sigma_max)
_RANK_RTOL = 1e-9
_NEWTON_MAX_ITER = 100


def _point_text(x) -> str:
    """A point as plain rounded numbers, for error messages."""
    return str(tuple(round(float(v), 6) for v in x))


def _affine_in(
    rows: Sequence[Sequence[Expression]], ctx: VariableContext, names: Sequence[str]
) -> bool:
    """Whether the map with these Jacobian rows is affine in the coordinates ``names``."""
    cols = [ctx.index(name) for name in names]
    return all(
        differentiate(row[j], name) == Const(0.0)
        for row in rows
        for j in cols
        for name in names
    )


def _rows_on(
    rows: Sequence[Sequence[Expression]], ctx: VariableContext, points: np.ndarray
) -> np.ndarray:
    """Batch values of Jacobian rows on points, shape (m, len(rows), ctx.dim)."""
    flat = [entry for row in rows for entry in row]
    return evaluate_on(flat, ctx, points).reshape(len(points), len(rows), ctx.dim)


def _rank_failure(sigma: np.ndarray, points: np.ndarray) -> np.ndarray | None:
    """The point nearest to rank loss, if one fails the rank test, else None.

    ``sigma`` holds each point's singular values in descending order.
    """
    ratio = sigma[:, -1] - _RANK_RTOL * (1.0 + sigma[:, 0])
    worst = int(np.argmin(ratio))
    return points[worst] if ratio[worst] <= 0.0 else None


def _singular_values(jac: np.ndarray) -> np.ndarray:
    """Each point's singular values, descending; nan (a bad evaluation) reads as 0."""
    return np.nan_to_num(np.linalg.svd(jac, compute_uv=False), nan=0.0)


def _newton_solve(forward: PointMap, target: np.ndarray, guess: np.ndarray) -> np.ndarray:
    x = np.array(guess, dtype=float)
    tol = 1e-12 * (1.0 + float(np.linalg.norm(target)))
    try:
        fx = forward(x) - target
    except EvaluationDomainError:
        raise NonInvertibleChartError("chart map undefined at the starting guess") from None
    norm = float(np.linalg.norm(fx))
    for _ in range(_NEWTON_MAX_ITER):
        if norm <= tol:
            return x
        try:
            step = np.linalg.solve(forward.jacobian_at(x), fx)
        except (np.linalg.LinAlgError, EvaluationDomainError):
            raise NonInvertibleChartError(
                f"chart Jacobian is singular near {_point_text(x)}"
            ) from None
        lam = 1.0
        while True:
            candidate = x - lam * step
            try:
                f_candidate = forward(candidate) - target
                n_candidate = float(np.linalg.norm(f_candidate))
            except EvaluationDomainError:
                n_candidate = np.inf
            if np.isfinite(n_candidate) and n_candidate < (1.0 - 0.25 * lam) * norm:
                break
            lam *= 0.5
            if lam < 1.0 / 4096.0:
                raise NonInvertibleChartError(
                    "chart inversion stalled: no descent direction"
                )
        x, fx, norm = candidate, f_candidate, n_candidate
    if norm <= tol:
        return x
    raise NonInvertibleChartError(
        f"chart inversion did not converge (residual {norm:.3e})"
    )


@dataclass(frozen=True)
class TangentStructure:
    """A certified chart in which the originating field is second order.

    ``forward`` maps source coordinates to the chart (base block first, then
    the derived velocity block).  The chart's tangent structure is always
    ``canonical_tangent_structure(chart_ctx)``, so it is not stored.
    ``inverse`` is the symbolic affine map when the chart is affine and
    otherwise a damped Newton solve seeded from the base: the target's Q is
    written into ``triangular_base_slots`` when the base functions are plain
    coordinates.  ``inverse_kind`` reports the chart's shape; for a
    "triangular" chart, affine across the non-base coordinates, the seeded
    solve ends after one exact step.  ``jacobian_min_abs_det`` is the
    smallest product of the chart Jacobian's singular values over the
    build's sample points.
    """

    gamma: VectorField
    forward: PointMap
    n: int
    inverse_kind: str  # "affine" | "triangular" | "newton"
    inverse_map: PointMap | None
    warnings: tuple[str, ...]
    jacobian_min_abs_det: float
    domain: Box
    newton_guess: tuple[float, ...]
    triangular_base_slots: tuple[int, ...] | None

    @property
    def src_ctx(self) -> VariableContext:
        return self.forward.src

    @property
    def chart_ctx(self) -> VariableContext:
        return self.forward.dst

    @property
    def base_exprs(self) -> tuple[Expression, ...]:
        return self.forward.components[: self.n]

    @property
    def velocity_exprs(self) -> tuple[Expression, ...]:
        return self.forward.components[self.n :]

    @cached_property
    def acceleration_exprs(self) -> tuple[Expression, ...]:
        """Force block over the source context: the field applied twice to the base."""
        return tuple(
            sum_of_products(zip(self.gamma.components, row))
            for row in self.forward.jacobian[self.n :]
        )

    def inverse(self, chart_point, *, guess=None) -> np.ndarray:
        target = np.asarray(chart_point, dtype=float)
        if target.shape != (self.chart_ctx.dim,):
            raise ValueError(
                f"chart point needs {self.chart_ctx.dim} coordinates, got {target.shape}"
            )
        if self.inverse_map is not None:
            return self.inverse_map(target)
        if guess is None:
            guess = np.array(self.newton_guess)
            if self.triangular_base_slots is not None:
                guess[list(self.triangular_base_slots)] = target[: self.n]
        return _newton_solve(self.forward, target, guess)

    @cached_property
    def chart_field(self) -> VectorField | None:
        """The dynamics in chart coordinates, symbolic when the inverse is exact."""
        if self.inverse_map is None:
            return None
        bindings = dict(zip(self.src_ctx.names, self.inverse_map.components))
        blocks = list(self.velocity_exprs) + list(self.acceleration_exprs)
        return VectorField(
            self.chart_ctx, tuple(substitute(e, bindings) for e in blocks)
        )

    def chart_rhs(self):
        """Numeric chart-coordinate dynamics f(t, chart_point) for integration."""
        if self.chart_field is not None:
            return self.chart_field.ode_rhs

        def rhs(t, zeta, _self=self):
            x = _self.inverse(zeta)
            return _self.forward.jacobian_at(x) @ _self.gamma(x)

        return rhs

    def to_json(self) -> dict:
        return {
            "context": list(self.src_ctx.names),
            "chart_context": list(self.chart_ctx.names),
            "Q": [to_source(e) for e in self.base_exprs],
            "V": [to_source(e) for e in self.velocity_exprs],
            "warnings": list(self.warnings),
            "jacobian_min_abs_det": self.jacobian_min_abs_det,
            "inverse": self.inverse_kind,
            "domain": {
                "lo": list(self.domain.lo),
                "hi": list(self.domain.hi),
                "exclude_radius": self.domain.exclude_radius,
                "exclude_dims": (
                    None
                    if self.domain.exclude_dims is None
                    else list(self.domain.exclude_dims)
                ),
            },
        }


def build(
    gamma: VectorField,
    base: Sequence[Expression | ScalarField | str],
    box: Box,
    *,
    seed: int = 0,
    n_random: int = 500,
    grid_points: int = 11,
) -> TangentStructure:
    """Derive and certify a second-order chart for ``gamma`` from base functions.

    Velocity functions are the derivatives of the base functions along the
    field.  Failure modes, in check order: base differentials degenerate
    somewhere on the grid; the field vanishes identically (nothing to lift);
    the combined functions are functionally dependent; the function count
    cannot form a chart of the ambient dimension.
    """
    ctx = gamma.ctx
    if box.ctx != ctx:
        raise ValueError("domain box and field live on different contexts")
    base_exprs = _entries(ctx, base, (len(base),))
    n = len(base_exprs)
    if n == 0:
        raise ValueError("at least one base function is required")
    dim = ctx.dim

    velocity_exprs = tuple(lie_scalar(gamma, ScalarField(ctx, q)).expr for q in base_exprs)
    chart_ctx = VariableContext(
        tuple(f"Q{k + 1}" for k in range(n)) + tuple(f"V{k + 1}" for k in range(n))
    )
    forward = PointMap(ctx, chart_ctx, base_exprs + velocity_exprs)
    points = box.sample(seed=seed, n_random=n_random, grid_points=grid_points)

    # base differentials must stay independent everywhere on the grid
    if n > dim:
        raise DegenerateBaseError(
            f"{n} base functions on a {dim}-dimensional space cannot be independent"
        )
    # the base rows come first; the full Jacobian serves the chart checks below
    jac = _rows_on(forward.jacobian, ctx, points)
    where = _rank_failure(_singular_values(jac[:, :n, :]), points)
    if where is not None:
        raise DegenerateBaseError(f"base differentials degenerate near {_point_text(where)}")

    # a field with no motion anywhere has no velocity functions to offer
    gamma_values = evaluate_on(gamma.components, ctx, points)
    pointwise = np.max(np.abs(gamma_values), axis=1)
    warnings: list[str] = []
    if float(np.max(pointwise)) <= _ZERO_FIELD_TOL:
        raise FixedPointOnBaseError(
            "the field vanishes identically on the sampled domain"
        )
    if bool(np.any(pointwise <= _ZERO_FIELD_TOL)):
        warnings.append("equilibria_on_base")

    # combined chart functions must be independent: rank 2n on the grid
    if 2 * n > dim:
        raise FunctionalDependenceError(
            f"{2 * n} chart functions on a {dim}-dimensional space have rank at most {dim}"
        )
    sigma = _singular_values(jac)
    where = _rank_failure(sigma, points)
    if where is not None:
        raise FunctionalDependenceError(
            f"chart functions become dependent near {_point_text(where)}"
        )

    if 2 * n < dim:
        raise ChartDimensionError(
            f"{2 * n} chart functions cannot coordinatize a {dim}-dimensional space"
        )

    # the Jacobian is square here, so |det| is the product of its singular values
    jacobian_min_abs_det = float(np.min(np.prod(sigma, axis=1)))

    # fiber coordinates: source directions the base functions never see
    base_vars = set().union(*(free_variables(q) for q in base_exprs))
    fiber_names = [name for name in ctx.names if name not in base_vars]
    linear_fibers = _affine_in(forward.jacobian[n:], ctx, fiber_names)
    if not linear_fibers:
        warnings.append("nonlinear_fibers")

    inverse_map = slots = None
    if _affine_in(forward.jacobian, ctx, ctx.names):
        inverse_kind, inverse_map = "affine", _affine_inverse(forward, box.center)
    elif linear_fibers and all(isinstance(q, Var) for q in base_exprs):
        # the chart is affine across the complement of the base coordinates
        inverse_kind = "triangular"
        slots = tuple(ctx.index(q.name) for q in base_exprs)
    else:
        inverse_kind = "newton"

    center = box.center
    if box.contains(center):
        guess = tuple(float(v) for v in center)
    else:
        guess = tuple(float(v) for v in points[0])

    structure = TangentStructure(
        gamma=gamma,
        forward=forward,
        n=n,
        inverse_kind=inverse_kind,
        inverse_map=inverse_map,
        warnings=tuple(warnings),
        jacobian_min_abs_det=jacobian_min_abs_det,
        domain=box,
        newton_guess=guess,
        triangular_base_slots=slots,
    )

    # round-trip spot check certifies the chosen inversion on the domain
    stride = max(1, len(points) // 8)
    for p in points[::stride][:8]:
        recovered = structure.inverse(forward(p))
        if float(np.max(np.abs(recovered - p))) > 1e-6 * (1.0 + float(np.max(np.abs(p)))):
            raise NonInvertibleChartError(
                f"chart is not injective over the domain: round trip moved {_point_text(p)}"
            )
    return structure


def _affine_inverse(forward: PointMap, center: np.ndarray) -> PointMap:
    """The exact inverse of an affine chart, expanded about ``center``."""
    origin = forward(center)
    inverse_matrix = np.linalg.inv(forward.jacobian_at(center))
    components = []
    for i in range(forward.src.dim):
        total: Expression = Const(float(center[i]))
        for j, name in enumerate(forward.dst.names):
            coeff = float(inverse_matrix[i, j])
            if coeff != 0.0:
                total = add(
                    total,
                    mul(Const(coeff), sub(Var(name), Const(float(origin[j])))),
                )
        components.append(total)
    return PointMap(forward.dst, forward.src, tuple(components))


def structure_sode_residual(
    structure: TangentStructure, points: np.ndarray
) -> float:
    """Max |dQ(field) - V| over points: how far the chart misses second-orderness.

    Zero by construction up to roundoff; exercised as a tautology guard.  All
    points are evaluated in one batch; nan counts as inf.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ctx = structure.src_ctx
    jac = _rows_on(structure.forward.jacobian[: structure.n], ctx, points)
    gamma = evaluate_on(structure.gamma.components, ctx, points)
    lifted = np.einsum("mij,mj->mi", jac, gamma)
    direct = evaluate_on(structure.velocity_exprs, ctx, points)
    worst = float(np.max(np.abs(lifted - direct), initial=0.0))
    return math.inf if math.isnan(worst) else worst
