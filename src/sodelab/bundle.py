"""Constructing tangent-bundle charts that make a given field second order.

``build`` takes a first-order field and a choice of base functions, derives
the matching velocity functions by differentiating along the field, and
certifies on a sample grid that the combined functions form a genuine chart.
Every check reads the chart's one set of first-partial trees,
:attr:`~sodelab.fields.PointMap.jacobian`; the shape tests read which
coordinates its entries use from their free variables.  The chart rank test
and the Jacobian floor come from the determinant of the least block that
decides them.  One batch call evaluates the block's entries as columns of
values over the sample points; a block of up to 7 rows (every library
chart's has 1, 2 or 4) takes its determinant by cofactors over those
columns, and a larger one is packed into matrices for LAPACK's.  Only the
points whose determinant cannot clear the rank test are packed and
decomposed by an SVD, which also gives their |det|.
The function counts are checked first, so a ranked chart always has 2n
functions on a 2n-dimensional space.  A constant Jacobian is evaluated at
one point, which holds over the whole space.  A base of distinct plain
coordinates has unit rows, so its rank needs no test, and the chart
Jacobian, columns ordered (base, fibre), is [[I, 0], [A, B]]: only the
fibre block B is ranked.  Otherwise the whole Jacobian is ranked, and its
base rows only when it fails, to name the error.
Every chart is inverted by one damped Newton solve, seeded from the base
when the base is plain coordinates; the inverse kind names only the chart's
shape.  In the new chart the canonical vertical endomorphism
and dilation field turn the original dynamics into an explicitly second-order
system.  The structure stores no chart-coordinate field: the chart velocity
is the pushforward of the field through the chart, whose base block is V and
whose fibre block is the force, the field's derivative of each V.  Nodes are
interned, so that V is the very tree dQ(field) builds from the Jacobian's
base rows: :func:`structure_sode_residual` finds a built chart second order
by node identity, and evaluates only residuals that do not fold to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Sequence

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
    ZERO,
    Expression,
    Var,
    VariableContext,
    free_variables,
    sub,
    sum_of_products,
    to_source,
)
from .fields import (
    Box,
    PointMap,
    ScalarField,
    VectorField,
    _entries,
    max_abs_on,
    vectorized_scalar,
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
# the largest block whose det is taken by cofactors: over 15k stacked points
# they beat LAPACK's batched det up to 7 x 7 (6.9 against 11.9 ms, packing
# included; the whole rank screen of a dense block 11.6 against 12.8 ms) and
# lose at 8 x 8 (16.4 against 14.8 ms; screen 24.5 against 19.7 ms).  CPU
# medians, x86-64, numpy 2.4.6, one BLAS thread
_COFACTOR_MAX_ROWS = 7


def _point_text(x) -> str:
    """A point as plain rounded numbers, for error messages."""
    return str(tuple(round(float(v), 6) for v in x))


def _affine_in(
    rows: Sequence[Sequence[Expression]], ctx: VariableContext, names: Sequence[str]
) -> bool:
    """Whether the map with these Jacobian rows is affine in the coordinates ``names``.

    It is when no entry in the ``names`` columns uses one of ``names``, read
    from each entry's free variables; no second derivative is taken.
    """
    cols = [ctx.index(name) for name in names]
    return all(free_variables(row[j]).isdisjoint(names) for row in rows for j in cols)


def _coordinate_slots(
    base_exprs: Sequence[Expression], ctx: VariableContext
) -> tuple[int, ...] | None:
    """The base's coordinate slots when it is distinct plain coordinates, else None."""
    if not all(isinstance(q, Var) for q in base_exprs):
        return None
    slots = tuple(ctx.index(q.name) for q in base_exprs)
    return slots if len(set(slots)) == len(slots) else None


def _rank_failure(sigma: np.ndarray, points: np.ndarray) -> np.ndarray | None:
    """The point nearest to rank loss, if one fails the rank test, else None.

    ``sigma`` holds each point's singular values in descending order.
    """
    ratio = sigma[:, -1] - _RANK_RTOL * (1.0 + sigma[:, 0])
    if not len(ratio):
        return None
    worst = int(np.argmin(ratio))
    return points[worst] if ratio[worst] <= 0.0 else None


def _singular_values(jac: np.ndarray) -> np.ndarray:
    """Each point's singular values, descending.

    A point with a non-finite entry (a bad evaluation) reads as all 0; its
    matrix never reaches LAPACK, whose SVD does not converge on it.
    """
    finite = np.isfinite(jac).all(axis=(1, 2))
    sigma = np.zeros((len(jac), min(jac.shape[1:])))
    sigma[finite] = np.linalg.svd(jac[finite], compute_uv=False)
    return sigma


def _packed(block, count: int, where) -> np.ndarray:
    """The entries of ``block``, rows of point columns over ``count`` points
    (a constant entry may be a scalar), at the points ``where`` selects, as
    one (points, rows, cols) stack."""
    rows = [[np.broadcast_to(c, (count,))[where] for c in row] for row in block]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=1)


def _cofactor_det(block) -> np.ndarray:
    """Each point's determinant of a square block of point columns.

    Laplace expansion along the first row, and so on down: the minors on
    the trailing rows are formed once for each set of columns, from the last
    row up, so a 4 x 4 block takes 6 2 x 2 and 4 3 x 3 minors, one ufunc per
    product or sum.
    """
    m = len(block)
    minors = {(c,): block[m - 1][c] for c in range(m)}
    for k in range(m - 2, -1, -1):
        larger = {}
        for cols in combinations(range(m), m - k):
            det = block[k][cols[0]] * minors[cols[1:]]
            for i in range(1, len(cols)):
                term = block[k][cols[i]] * minors[cols[:i] + cols[i + 1 :]]
                det = det - term if i % 2 else det + term
            larger[cols] = det
        minors = larger
    return minors[tuple(range(m))]


def _screened_rank_failure(
    block, points: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """``_rank_failure`` of a square block, decomposing only what a det cannot clear.

    ``block`` holds rows of point columns, one value per point (a constant
    entry may be a scalar).  Returns the failing point (or None) and each
    point's |det|.  |det| = prod(sigma) <= sigma_min * sigma_max^(m-1) and
    sigma_max <= the Frobenius norm F, so sigma_min >= |det| / F^(m-1): a
    point whose finite det has |det| > 2 * _RANK_RTOL * (1 + F) * F^(m-1)
    passes the rank test.  Blocks of up to ``_COFACTOR_MAX_ROWS`` rows take
    the det by cofactors over the point columns.  Each of its m! terms is a
    product of m entries, rounded at most m^2 times, and their absolute
    values sum to the permanent of |block|, at most prod(row 1-norms) <=
    F^m: the rounding is under m^2 * eps * F^m, far inside the test's margin
    of 1e-9 * F^m, and the factor 2 covers it.  A larger block is packed for
    LAPACK's LU det, whose rounding is about eps * F against a margin of
    1e-9 * F.  A non-finite entry, or an overflow, leaves F or the det
    non-finite, so the point never clears.  Where the bound underflows,
    F^(m-1) is below about 1e-299 and every product of m entries, at most
    F^m, underflows to 0 with it, so the det reads 0 and does not clear
    either.  Only the other points are packed and decomposed, in their
    order, so a failure names the point that an SVD of every point would
    name.  A cleared point's |det| exceeds 2e-9 * F^m, so its cofactor
    rounding is under m^2 * eps / 2e-9 of it, 6e-6 at m = 7.  At a
    doubtful point the det may be all rounding, so its |det| is read from
    the SVD as prod(sigma), correct to about eps * cond.
    """
    count = len(points)
    with np.errstate(all="ignore"):
        fro = np.sqrt(sum(np.square(c) for row in block for c in row))
        if len(block) <= _COFACTOR_MAX_ROWS:
            det = np.broadcast_to(_cofactor_det(block), (count,))
        else:
            det = np.linalg.det(_packed(block, count, slice(None)))
        bound = 2.0 * _RANK_RTOL * (1.0 + fro) * fro ** (len(block) - 1)
    abs_det = np.abs(det)
    doubtful = ~(np.isfinite(abs_det) & (abs_det > bound))
    sigma = _singular_values(_packed(block, count, doubtful))
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 fails anyway
        abs_det[doubtful] = np.prod(sigma, axis=1)
    return _rank_failure(sigma, points[doubtful]), abs_det


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
    ``inverse`` is one damped Newton solve for every chart, from
    ``newton_guess``, the box centre (or the first sample point when the box
    excludes it); when the base is distinct plain coordinates, the target's
    Q is first written into their ``base_slots``.  An affine chart's solve,
    and a seeded one across linear fibres, ends after one exact step.
    ``inverse_kind`` names only the chart's shape: "affine", "triangular"
    (a coordinate base, affine across the other coordinates) or "newton".
    ``jacobian_min_abs_det`` is the smallest |det| of the chart
    Jacobian over the build's sample points (its one point when the Jacobian
    is constant): the determinant of the Jacobian, or of its fibre block B
    when the base is plain coordinates, since then |det J| = |det B|, taken
    by cofactors for a block of up to 7 rows and by LAPACK's LU above, or
    as the product of the singular values where the rank screen needed an
    SVD.  The
    chart dynamics are not stored either: the force block is
    ``lie_scalar(gamma, ScalarField(src_ctx, v)).expr`` for each velocity
    tree v, and the chart velocity at zeta is the pushforward
    ``forward.jacobian_at(x) @ gamma(x)`` at ``x = inverse(zeta)``.
    """

    gamma: VectorField
    forward: PointMap
    n: int
    inverse_kind: str  # "affine" | "triangular" | "newton"
    warnings: tuple[str, ...]
    jacobian_min_abs_det: float
    domain: Box
    newton_guess: tuple[float, ...]

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
    def base_slots(self) -> tuple[int, ...] | None:
        """The base's slots when it is distinct plain coordinates, else None."""
        return _coordinate_slots(self.base_exprs, self.src_ctx)

    def inverse(self, chart_point) -> np.ndarray:
        target = np.asarray(chart_point, dtype=float)
        if target.shape != (self.chart_ctx.dim,):
            raise ValueError(
                f"chart point needs {self.chart_ctx.dim} coordinates, got {target.shape}"
            )
        guess = np.array(self.newton_guess)
        if self.base_slots is not None:
            guess[list(self.base_slots)] = target[: self.n]
        return _newton_solve(self.forward, target, guess)

    def to_json(self) -> dict:
        # what each rank claim rests on: unit base rows, one evaluation of a
        # constant Jacobian, or the sample points
        chart = "exact" if self.inverse_kind == "affine" else "sampled"
        base = "by_construction" if self.base_slots is not None else chart
        return {
            "context": list(self.src_ctx.names),
            "chart_context": list(self.chart_ctx.names),
            "Q": [to_source(e) for e in self.base_exprs],
            "V": [to_source(e) for e in self.velocity_exprs],
            "warnings": list(self.warnings),
            "jacobian_min_abs_det": self.jacobian_min_abs_det,
            "rank_basis": {"base": base, "chart": chart},
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
) -> TangentStructure:
    """Derive and certify a second-order chart for ``gamma`` from base functions.

    Velocity functions are the derivatives of the base functions along the
    field.  Failure modes, in check order.  First the function counts,
    before any tree is derived or any point drawn: more base functions than
    dimensions (:class:`DegenerateBaseError`), more chart functions than
    dimensions (:class:`FunctionalDependenceError`), or fewer
    (:class:`ChartDimensionError`).  Then, on ``box.sample`` (an 11-point
    grid on the first four axes plus ``n_random`` seeded draws): base
    differentials degenerate somewhere; the field vanishes identically
    (nothing to lift); the combined functions are functionally dependent.
    """
    ctx = gamma.ctx
    if box.ctx != ctx:
        raise ValueError("domain box and field live on different contexts")
    base_exprs = _entries(ctx, base, (len(base),))
    n = len(base_exprs)
    if n == 0:
        raise ValueError("at least one base function is required")
    dim = ctx.dim
    # the counts alone decide these three; after them 2n == dim
    if n > dim:
        raise DegenerateBaseError(
            f"{n} base functions on a {dim}-dimensional space cannot be independent"
        )
    if 2 * n > dim:
        raise FunctionalDependenceError(
            f"{2 * n} chart functions on a {dim}-dimensional space have rank at most {dim}"
        )
    if 2 * n < dim:
        raise ChartDimensionError(
            f"{2 * n} chart functions cannot coordinatize a {dim}-dimensional space"
        )

    velocity_exprs = tuple(lie_scalar(gamma, ScalarField(ctx, q)).expr for q in base_exprs)
    chart_ctx = VariableContext(
        tuple(f"Q{k + 1}" for k in range(n)) + tuple(f"V{k + 1}" for k in range(n))
    )
    forward = PointMap(ctx, chart_ctx, base_exprs + velocity_exprs)
    points = box.sample(seed=seed, n_random=n_random)

    # a constant Jacobian is ranked by one evaluation, valid over the whole space
    affine = _affine_in(forward.jacobian, ctx, ctx.names)
    ranked = points[:1] if affine else points
    slots = _coordinate_slots(base_exprs, ctx)
    if slots is not None:
        # columns ordered (base, fibre) give J = [[I, 0], [A, B]]: rank J is
        # n + rank B and |det J| = |det B|, so only B = dV/dfibre is evaluated
        fibre = [j for j in range(dim) if j not in slots]
        trees = [[row[j] for j in fibre] for row in forward.jacobian[n:]]
    else:
        trees = forward.jacobian
    # one batch call gives each entry of the square block as a column of points
    values = vectorized_scalar([e for row in trees for e in row], ctx)(ranked)
    m = len(trees)
    block = [values[i * m : (i + 1) * m] for i in range(m)]
    dependent, abs_det = _screened_rank_failure(block, ranked)
    if dependent is not None and slots is None:
        # base differentials must stay independent everywhere on the grid.
        # J's first n rows have sigma_min >= sigma_min(J) and sigma_max <=
        # sigma_max(J), so they can fail only where J fails: ranked only now
        base_rows = _packed(block[:n], len(ranked), slice(None))
        where = _rank_failure(_singular_values(base_rows), ranked)
        if where is not None:
            raise DegenerateBaseError(
                f"base differentials degenerate near {_point_text(where)}"
            )

    # a field with no motion anywhere has no velocity functions to offer
    pointwise = np.zeros(len(points))
    for component in vectorized_scalar(gamma.components, ctx)(points):
        pointwise = np.maximum(pointwise, np.abs(component))  # nan stays nan
    warnings: list[str] = []
    if float(np.max(pointwise)) <= _ZERO_FIELD_TOL:
        raise FixedPointOnBaseError(
            "the field vanishes identically on the sampled domain"
        )
    if bool(np.any(pointwise <= _ZERO_FIELD_TOL)):
        warnings.append("equilibria_on_base")

    # combined chart functions must be independent: rank 2n on the grid
    if dependent is not None:
        raise FunctionalDependenceError(
            f"chart functions become dependent near {_point_text(dependent)}"
        )

    jacobian_min_abs_det = float(np.min(abs_det))

    # fiber coordinates: source directions the base functions never see
    base_vars = set().union(*(free_variables(q) for q in base_exprs))
    fiber_names = [name for name in ctx.names if name not in base_vars]
    linear_fibers = affine or _affine_in(forward.jacobian[n:], ctx, fiber_names)
    if not linear_fibers:
        warnings.append("nonlinear_fibers")

    if affine:
        inverse_kind = "affine"
    elif linear_fibers and slots is not None:
        # the chart is affine across the complement of the base coordinates
        inverse_kind = "triangular"
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
        warnings=tuple(warnings),
        jacobian_min_abs_det=jacobian_min_abs_det,
        domain=box,
        newton_guess=guess,
    )

    # round-trip spot check certifies the inversion on the domain
    stride = max(1, len(points) // 8)
    for p in points[::stride][:8]:
        recovered = structure.inverse(forward(p))
        if float(np.max(np.abs(recovered - p))) > 1e-6 * (1.0 + float(np.max(np.abs(p)))):
            raise NonInvertibleChartError(
                f"chart is not injective over the domain: round trip moved {_point_text(p)}"
            )
    return structure


def structure_sode_residual(
    structure: TangentStructure, points: np.ndarray | Callable[[], np.ndarray]
) -> float:
    """Max |dQ(field) - V| over points: how far the chart misses second-orderness.

    Each residual is the tree dQ_i(field) - V_i, written as ``build`` writes
    V_i, so on a built chart every one folds to ``ZERO`` and the result is
    0.0 without evaluating anything.  The residuals that do not fold are
    evaluated on the points in one batch; nan counts as inf.  ``points`` is
    an array of points or a zero-argument callable that draws them; the
    callable is called only when some residual does not fold, so a built
    chart draws no sample for this check.
    """
    gamma = structure.gamma.components
    residuals = [
        sub(sum_of_products(zip(gamma, row)), v)
        for row, v in zip(structure.forward.jacobian, structure.velocity_exprs)
    ]
    unfolded = [r for r in residuals if r is not ZERO]
    if not unfolded:
        return 0.0
    if callable(points):
        points = points()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return max_abs_on(unfolded, structure.src_ctx, points)
