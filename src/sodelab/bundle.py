"""Constructing tangent-bundle charts that make a given field second order.

``build`` takes a first-order field and a choice of base functions, derives
the matching velocity functions by differentiating along the field, and
certifies on a sample grid that the combined functions form a genuine chart.
In the new chart the canonical vertical endomorphism and dilation field turn
the original dynamics into an explicitly second-order system.
"""

from __future__ import annotations

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
    mul,
    sub,
    substitute,
    to_source,
)
from .fields import (
    Box,
    PointMap,
    ScalarField,
    Tensor11Field,
    VectorField,
    _entries,
    canonical_tangent_structure,
    evaluate_on,
)
from .geometry import lie_scalar

__all__ = [
    "TangentStructure",
    "build",
    "express_in_chart",
    "structure_sode_residual",
]

_ZERO_FIELD_TOL = 1e-12


def _second_partials_vanish(
    expr: Expression, names_i: Sequence[str], names_j: Sequence[str]
) -> bool:
    for ni in names_i:
        first = differentiate(expr, ni)
        for nj in names_j:
            if differentiate(first, nj) != Const(0.0):
                return False
    return True


def _jacobian_on(
    components: Sequence[Expression], ctx: VariableContext, points: np.ndarray
) -> np.ndarray:
    """Rows d(component)/d(coord) evaluated on points, shape (m, len(components), dim)."""
    partials = [differentiate(comp, name) for comp in components for name in ctx.names]
    return evaluate_on(partials, ctx, points).reshape(-1, len(components), ctx.dim)


def _newton_solve(
    forward: PointMap, target: np.ndarray, guess: np.ndarray, *, max_iter: int = 100
) -> np.ndarray:
    x = np.array(guess, dtype=float)
    tol = 1e-12 * (1.0 + float(np.linalg.norm(target)))
    try:
        fx = forward(x) - target
    except EvaluationDomainError:
        raise NonInvertibleChartError("chart map undefined at the starting guess") from None
    norm = float(np.linalg.norm(fx))
    for _ in range(max_iter):
        if norm <= tol:
            return x
        try:
            step = np.linalg.solve(forward.jacobian_at(x), fx)
        except (np.linalg.LinAlgError, EvaluationDomainError):
            raise NonInvertibleChartError(
                f"chart Jacobian is singular near {tuple(round(v, 6) for v in x)}"
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
    the derived velocity block); ``s_hat``/``delta_hat`` are the canonical
    structure tensors in the chart.  The inverse is exact for affine charts,
    a single linear solve for charts whose velocity block is affine across
    the non-base coordinates, and damped Newton otherwise.
    """

    gamma: VectorField
    forward: PointMap
    n: int
    s_hat: Tensor11Field
    delta_hat: VectorField
    inverse_kind: str  # "affine" | "triangular" | "newton"
    inverse_map: PointMap | None
    warnings: tuple[str, ...]
    jacobian_min_abs_det: float
    jacobian_argmin: tuple[float, ...]
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
        gamma = self.gamma
        return tuple(
            lie_scalar(gamma, ScalarField(gamma.ctx, v)).expr for v in self.velocity_exprs
        )

    def inverse(self, chart_point, *, guess=None) -> np.ndarray:
        target = np.asarray(chart_point, dtype=float)
        if target.shape != (self.chart_ctx.dim,):
            raise ValueError(
                f"chart point needs {self.chart_ctx.dim} coordinates, got {target.shape}"
            )
        if self.inverse_kind == "affine":
            return self.inverse_map(target)
        if self.inverse_kind == "triangular":
            return self._triangular_inverse(target)
        start = np.asarray(guess, dtype=float) if guess is not None else np.array(
            self.newton_guess
        )
        return _newton_solve(self.forward, target, start)

    def _triangular_inverse(self, target: np.ndarray) -> np.ndarray:
        n, dim = self.n, self.src_ctx.dim
        slots = self.triangular_base_slots
        complement = [k for k in range(dim) if k not in slots]
        x0 = np.zeros(dim)
        for value, slot in zip(target[:n], slots):
            x0[slot] = value
        try:
            offset = self.forward(x0)[n:]
            coeffs = self.forward.jacobian_at(x0)[n:, complement]
            u = np.linalg.solve(coeffs, target[n:] - offset)
        except (np.linalg.LinAlgError, EvaluationDomainError):
            raise NonInvertibleChartError(
                "velocity block is singular at the requested base point"
            ) from None
        x = x0.copy()
        x[complement] = u
        return x

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
    rank_rtol: float = 1e-9,
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

    velocity_exprs = [lie_scalar(gamma, ScalarField(ctx, q)).expr for q in base_exprs]
    chart_components = base_exprs + tuple(velocity_exprs)
    points = box.sample(seed=seed, n_random=n_random, grid_points=grid_points)

    # base differentials must stay independent everywhere on the grid
    base_jac = _jacobian_on(base_exprs, ctx, points)
    base_sigma = np.linalg.svd(base_jac, compute_uv=False)
    base_sigma = np.nan_to_num(base_sigma, nan=0.0)
    if n <= dim:
        ratio = base_sigma[:, -1] - rank_rtol * (1.0 + base_sigma[:, 0])
        worst = int(np.argmin(ratio))
        if ratio[worst] <= 0.0:
            where = tuple(round(float(v), 6) for v in points[worst])
            raise DegenerateBaseError(
                f"base differentials degenerate near {where}"
            )
    else:
        raise DegenerateBaseError(
            f"{n} base functions on a {dim}-dimensional space cannot be independent"
        )

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
    full_jac = _jacobian_on(chart_components, ctx, points)
    sigma = np.linalg.svd(full_jac, compute_uv=False)
    sigma = np.nan_to_num(sigma, nan=0.0)
    ratio = sigma[:, -1] - rank_rtol * (1.0 + sigma[:, 0])
    worst = int(np.argmin(ratio))
    if ratio[worst] <= 0.0:
        where = tuple(round(float(v), 6) for v in points[worst])
        raise FunctionalDependenceError(
            f"chart functions become dependent near {where}"
        )

    if 2 * n < dim:
        raise ChartDimensionError(
            f"{2 * n} chart functions cannot coordinatize a {dim}-dimensional space"
        )

    dets = np.linalg.det(full_jac)
    argmin = int(np.argmin(np.abs(dets)))
    jacobian_min_abs_det = float(np.abs(dets[argmin]))
    jacobian_argmin = tuple(float(v) for v in points[argmin])

    chart_ctx = VariableContext(
        tuple(f"Q{k + 1}" for k in range(n)) + tuple(f"V{k + 1}" for k in range(n))
    )
    forward = PointMap(ctx, chart_ctx, chart_components)
    s_hat, delta_hat = canonical_tangent_structure(chart_ctx)

    # fiber coordinates: source directions the base functions never see
    base_vars = set()
    from .expr import free_variables

    for q in base_exprs:
        base_vars |= free_variables(q)
    fiber_names = [name for name in ctx.names if name not in base_vars]
    if fiber_names and not all(
        _second_partials_vanish(v, fiber_names, fiber_names) for v in velocity_exprs
    ):
        warnings.append("nonlinear_fibers")

    inverse_kind, inverse_map, slots = _pick_inverse(
        base_exprs, velocity_exprs, forward, ctx, chart_ctx, box
    )

    center = box.center
    if box.contains(center):
        guess = tuple(float(v) for v in center)
    else:
        guess = tuple(float(v) for v in points[0])

    structure = TangentStructure(
        gamma=gamma,
        forward=forward,
        n=n,
        s_hat=s_hat,
        delta_hat=delta_hat,
        inverse_kind=inverse_kind,
        inverse_map=inverse_map,
        warnings=tuple(warnings),
        jacobian_min_abs_det=jacobian_min_abs_det,
        jacobian_argmin=jacobian_argmin,
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
                f"chart is not injective over the domain: round trip moved "
                f"{tuple(round(float(v), 6) for v in p)}"
            )
    return structure


def _pick_inverse(
    base_exprs: Sequence[Expression],
    velocity_exprs: list[Expression],
    forward: PointMap,
    ctx: VariableContext,
    chart_ctx: VariableContext,
    box: Box,
):
    all_names = list(ctx.names)
    affine = all(
        _second_partials_vanish(comp, all_names, all_names)
        for comp in forward.components
    )
    if affine:
        center = box.center
        origin = forward(center)
        matrix = forward.jacobian_at(center)
        inverse_matrix = np.linalg.inv(matrix)
        components = []
        for i in range(ctx.dim):
            total: Expression = Const(float(center[i]))
            for j, name in enumerate(chart_ctx.names):
                coeff = float(inverse_matrix[i, j])
                if coeff != 0.0:
                    total = add(
                        total,
                        mul(Const(coeff), sub(Var(name), Const(float(origin[j])))),
                    )
            components.append(total)
        inverse_map = PointMap(chart_ctx, ctx, tuple(components))
        return "affine", inverse_map, None

    if all(isinstance(q, Var) for q in base_exprs):
        slots = tuple(ctx.index(q.name) for q in base_exprs)
        complement_names = [
            name for k, name in enumerate(ctx.names) if k not in slots
        ]
        if all(
            _second_partials_vanish(v, complement_names, complement_names)
            for v in velocity_exprs
        ):
            return "triangular", None, slots

    return "newton", None, None


def express_in_chart(
    gamma: VectorField, structure: TangentStructure
) -> tuple[tuple[Expression, ...], tuple[Expression, ...]]:
    """Velocity and force blocks of the second-order form, over the source context.

    The velocity block is the structure's velocity functions; the force block
    is the field applied to them once more.
    """
    if gamma != structure.gamma:
        raise ValueError("the structure was built for a different field")
    return structure.velocity_exprs, structure.acceleration_exprs


def structure_sode_residual(
    structure: TangentStructure, points: np.ndarray
) -> float:
    """Max |dQ(field) - V| over points: how far the chart misses second-orderness.

    Zero by construction up to roundoff; exercised as a tautology guard.
    """
    worst = 0.0
    for p in np.atleast_2d(np.asarray(points, dtype=float)):
        jac = structure.forward.jacobian_at(p)[: structure.n, :]
        lifted = jac @ structure.gamma(p)
        direct = structure.forward(p)[structure.n :]
        worst = max(worst, float(np.max(np.abs(lifted - direct))))
    return worst
