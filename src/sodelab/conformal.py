"""Conformal rescaling of vector fields: shared orbits, reshaped clocks.

Multiplying a field by a nowhere-zero function keeps its unparametrized
orbits and its constants of motion while changing the speed along them.  This
module certifies the nowhere-zero condition on a sample grid, provides the
rescaling identities as dual-route residuals, measures the distance between
two traced orbits, and builds the damping factor that makes an escaping field
complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SignChangeError
from .expr import add, call, differentiate, mul, neg, sub, sum_of_products
from .fields import (
    Box,
    OneFormField,
    ScalarField,
    VectorField,
    evaluate_on,
    max_abs_on,
)
from .geometry import lie_bracket, lie_oneform, lie_scalar

__all__ = [
    "ConformalPair",
    "rescale",
    "oneform_rescaling_residual",
    "bracket_rescaling_residual",
    "shared_constants_residual",
    "CompletenessCertificate",
    "regularize_complete",
    "polyline_deviation",
]

# analytic peak of |u| * exp(-u^2): attained at u^2 = 1/2
DAMPED_SPEED_BOUND = math.exp(-0.5) / math.sqrt(2.0)
# a factor whose |value| at some sample point is at most this vanishes there
_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ConformalPair:
    """A field, a certified nowhere-zero factor, and their product."""

    original: VectorField
    factor: ScalarField
    rescaled: VectorField


def rescale(
    field: VectorField,
    factor: ScalarField,
    box: Box,
    *,
    seed: int = 0,
) -> ConformalPair:
    """Form factor * field after certifying the factor keeps one sign.

    A factor that vanishes or changes sign on the sampled domain would stop
    or reverse the flow somewhere, breaking the orbit correspondence; that
    raises :class:`SignChangeError`.  The domain sample is ``box.sample(seed)``:
    an 11-point grid on the first four axes plus 500 seeded draws.
    """
    points = box.sample(seed=seed)
    return _one_signed(field, factor, box, points)


def _one_signed(
    field: VectorField, factor: ScalarField, box: Box, points: np.ndarray
) -> ConformalPair:
    """:func:`rescale` with its sign check on ``points``, a sample of ``box``."""
    if field.ctx != factor.ctx or field.ctx != box.ctx:
        raise ValueError("field, factor, and box must share one context")
    values = evaluate_on((factor.expr,), factor.ctx, points)
    if not np.all(np.isfinite(values)):
        raise SignChangeError("factor is not finite everywhere on the domain")
    if float(np.min(np.abs(values))) <= _ZERO_TOL:
        raise SignChangeError("factor vanishes on the domain")
    if float(np.min(values)) < 0.0 < float(np.max(values)):
        raise SignChangeError("factor changes sign on the domain")
    return ConformalPair(field, factor, field.scaled(factor.expr))


def oneform_rescaling_residual(
    field: VectorField,
    factor: ScalarField,
    alpha: OneFormField,
    points: np.ndarray,
) -> float:
    """Residual of: moving alpha along factor*field equals the pairing times
    d(factor) plus factor times the unrescaled motion of alpha.

    Left side uses the packaged Lie derivative on the rescaled field; right
    side assembles the expansion term by term, so agreement cross-checks both.
    """
    ctx = field.ctx
    lhs = lie_oneform(field.scaled(factor.expr), alpha)
    pairing = sum_of_products(zip(field.components, alpha.components))
    moved = lie_oneform(field, alpha)
    residuals = []
    for j, name in enumerate(ctx.names):
        rhs = add(
            mul(pairing, differentiate(factor.expr, name)),
            mul(factor.expr, moved.components[j]),
        )
        residuals.append(sub(lhs.components[j], rhs))
    return max_abs_on(residuals, ctx, points)


def bracket_rescaling_residual(
    field: VectorField,
    factor: ScalarField,
    other: VectorField,
    points: np.ndarray,
) -> float:
    """Residual of: [factor*field, other] = -(L_other factor)*field + factor*[field, other]."""
    ctx = field.ctx
    lhs = lie_bracket(field.scaled(factor.expr), other)
    drift = lie_scalar(other, factor).expr
    plain = lie_bracket(field, other)
    residuals = []
    for i in range(ctx.dim):
        rhs = add(
            mul(neg(drift), field.components[i]),
            mul(factor.expr, plain.components[i]),
        )
        residuals.append(sub(lhs.components[i], rhs))
    return max_abs_on(residuals, ctx, points)


def shared_constants_residual(
    field: VectorField,
    factor: ScalarField,
    quantity: ScalarField,
    points: np.ndarray,
) -> tuple[float, float]:
    """Max |L_field quantity| and |L_(factor*field) quantity| over points.

    A conserved quantity of the field stays conserved after rescaling; both
    numbers should be at noise level together.
    """
    plain = lie_scalar(field, quantity)
    scaled = lie_scalar(field.scaled(factor.expr), quantity)
    return (
        max_abs_on([plain.expr], field.ctx, points),
        max_abs_on([scaled.expr], field.ctx, points),
    )


@dataclass(frozen=True)
class CompletenessCertificate:
    """A damping factor with its certified speed bound along the witness."""

    pair: ConformalPair
    grid_bound: float  # max |L_(rescaled) witness| on the sample grid
    bound_holds: bool

    @property
    def factor(self) -> ScalarField:
        return self.pair.factor

    @property
    def rescaled(self) -> VectorField:
        return self.pair.rescaled


def regularize_complete(
    field: VectorField,
    witness: ScalarField,
    box: Box,
    *,
    seed: int = 0,
) -> CompletenessCertificate:
    """Damp a field so the witness function grows at a bounded rate.

    The factor exp(-(L_field witness)^2) is positive everywhere, and the
    rescaled growth rate u * exp(-u^2) is globally bounded by
    ``DAMPED_SPEED_BOUND`` < 1, so escape detected by the witness (such as a
    coordinate running away in finite time) is stretched to infinite time.
    The factor's sign and the damped rate's bound are checked on one
    ``box.sample(seed)``: an 11-point grid on the first four axes plus 500
    seeded draws.
    """
    rate = lie_scalar(field, witness).expr
    factor_expr = call("exp", neg(mul(rate, rate)))
    factor = ScalarField(field.ctx, factor_expr)
    points = box.sample(seed=seed)
    pair = _one_signed(field, factor, box, points)  # one draw for both checks
    damped_rate = mul(factor_expr, rate)
    grid_bound = max_abs_on([damped_rate], field.ctx, points)
    return CompletenessCertificate(
        pair=pair,
        grid_bound=grid_bound,
        bound_holds=grid_bound <= 1.0 + 1e-12,
    )


def polyline_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric max distance between two polylines given as (m, dim) vertex arrays."""

    def one_way(points: np.ndarray, verts: np.ndarray) -> float:
        starts = verts[:-1]
        ends = verts[1:]
        span = ends - starts
        lengths = np.einsum("ij,ij->i", span, span)
        lengths = np.where(lengths == 0.0, 1.0, lengths)
        worst = 0.0
        for p in points:
            t = np.clip(np.einsum("ij,ij->i", p - starts, span) / lengths, 0.0, 1.0)
            proj = starts + t[:, None] * span
            dist = float(np.min(np.linalg.norm(p - proj, axis=1)))
            worst = max(worst, dist)
        return worst

    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if len(b) < 2 or len(a) < 2:
        raise ValueError("polylines need at least two vertices")
    return max(one_way(a, b), one_way(b, a))
