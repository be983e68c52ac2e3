"""The Kepler problem unfolded to four dimensions.

The square map of Kustaanheimo and Stiefel sends y in R^4 to x in R^3 with
|x| = |y|^2, turning the gravitational two-body problem into a system whose
collision set is a plain coordinate puncture.  This module carries, all as
expression trees:

  * the tangent map (y, v) -> (x, u) of the square map, and the bilinear
    constraint whose zero locus projects onto physical motion; its gradient
    in v spans the fiber the square map forgets;
  * the unfolded variational field, its energy, and the fast-clock rescaling
    by 2 |y|^2 that makes the fiber-velocity pair (Q, V) a genuine chart;
  * the chart-side field, whose negative-energy shells are linear harmonic
    blocks with frequency sqrt(2|E|);
  * the direct three-dimensional field for cross-checks.

Orbit data helpers produce circular states at a prescribed energy with the
constraint already zeroed, so projected and direct integrations share initial
conditions exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositiveEnergyError
from .expr import (
    Const,
    Expression,
    Var,
    VariableContext,
    add,
    differentiate,
    div,
    mul,
    parse,
    pow_,
    sub,
    sum_of_products,
)
from .fields import Box, PointMap, ScalarField, VectorField

__all__ = [
    "KS_CTX",
    "CHART_CTX",
    "THREE_CTX",
    "KeplerParams",
    "tangent_map",
    "constraint_field",
    "lagrangian",
    "energy",
    "unfolded_field",
    "conformal_factor",
    "unfolded_domain",
    "rescaled_field",
    "chart_field",
    "chart_energy",
    "shell_frequency",
    "shell_period",
    "shell_field",
    "shell_state",
    "shell_representative",
    "mean_motion",
    "half_mean_motion",
    "orbit_period",
    "kepler3d_field",
    "unfolded_circular_state",
    "kepler3d_circular_state",
]

KS_CTX = VariableContext.of("y0", "y1", "y2", "y3", "v0", "v1", "v2", "v3")
CHART_CTX = VariableContext.of("Q1", "Q2", "Q3", "Q4", "V1", "V2", "V3", "V4")
THREE_CTX = VariableContext.of("x1", "x2", "x3", "u1", "u2", "u3")

_R2 = "(y0^2 + y1^2 + y2^2 + y3^2)"
_VSQ = "(v0^2 + v1^2 + v2^2 + v3^2)"
_YDV = "(y0*v0 + y1*v1 + y2*v2 + y3*v3)"
_Q2 = "(Q1^2 + Q2^2 + Q3^2 + Q4^2)"
_W2 = "(V1^2 + V2^2 + V3^2 + V4^2)"


@dataclass(frozen=True)
class KeplerParams:
    """Coupling strength of the inverse-square attraction."""

    g: float = 1.0

    def __post_init__(self) -> None:
        if self.g <= 0:
            raise ValueError("coupling g must be positive")


# ------------------------------------------------------------ square map

# pi(y), written with + - * alone, so every backend gives the same bits
_SQUARE_MAP = (
    "2 * (y0*y1 + y2*y3)",
    "2 * (y0*y2 - y1*y3)",
    "y0*y0 + y3*y3 - y1*y1 - y2*y2",
)


def tangent_map() -> PointMap:
    """The tangent map (y, v) -> (x, u) = (pi(y), Dpi(y) v) of the square map.

    pi sends R^4 to R^3 with |pi(y)| = |y|^2, and u_i is the sum over k of
    v_k d(pi_i)/d(y_k).  The first three rows of ``jacobian``, over the
    y columns, are Dpi, with Dpi Dpi^T = 4 |y|^2 I; its kernel is spanned
    by the v-gradient (-y3, -y2, y1, y0) of :func:`constraint_field`.
    """
    positions = [parse(src, KS_CTX) for src in _SQUARE_MAP]
    pairs = list(zip(KS_CTX.names[:4], KS_CTX.names[4:]))
    velocities = [
        sum_of_products((Var(v), differentiate(x, y)) for y, v in pairs)
        for x in positions
    ]
    return PointMap(KS_CTX, THREE_CTX, (*positions, *velocities))


# ------------------------------------------------------------ constraint


def constraint_field() -> ScalarField:
    """Bilinear constraint: the fiber component of v.

    Zero exactly when (y, v) projects onto a kinematic 3d state; its zero
    locus is invariant under the unfolded flow.
    """
    return ScalarField(KS_CTX, parse("y0*v3 - y3*v0 + y1*v2 - y2*v1", KS_CTX))


# ------------------------------------------------- unfolded dynamics


def _slow_clock_terms(params: KeplerParams) -> tuple[Expression, Expression]:
    """2 |y|^2 |v|^2 and g / |y|^2, the terms of the Lagrangian and the energy."""
    r2 = parse(_R2, KS_CTX)
    return mul(mul(Const(2.0), r2), parse(_VSQ, KS_CTX)), div(Const(params.g), r2)


def lagrangian(params: KeplerParams = KeplerParams()) -> ScalarField:
    """Unfolded Lagrangian 2 |y|^2 |v|^2 + g / |y|^2 on the slow clock."""
    return ScalarField(KS_CTX, add(*_slow_clock_terms(params)))


def energy(params: KeplerParams = KeplerParams()) -> ScalarField:
    """Conserved energy 2 |y|^2 |v|^2 - g / |y|^2 of the unfolded field."""
    return ScalarField(KS_CTX, sub(*_slow_clock_terms(params)))


def unfolded_field(params: KeplerParams = KeplerParams()) -> VectorField:
    """Variational field of the unfolded Lagrangian; time is physical time.

    y_k'' = |v|^2 y_k / |y|^2 - g y_k / (2 |y|^6) - 2 (y . v) v_k / |y|^2,
    built from the shared factors by the constructors ``parse`` runs.
    """
    r2, vsq, ydv = (parse(src, KS_CTX) for src in (_R2, _VSQ, _YDV))
    g, two = Const(params.g), Const(2.0)
    two_r6 = mul(two, pow_(r2, Const(3.0)))
    comps = [Var(f"v{k}") for k in range(4)]
    for k in range(4):
        y, v = Var(f"y{k}"), Var(f"v{k}")
        radial = sub(div(mul(vsq, y), r2), div(mul(g, y), two_r6))
        comps.append(sub(radial, div(mul(mul(two, ydv), v), r2)))
    return VectorField(KS_CTX, tuple(comps))


def conformal_factor() -> ScalarField:
    """Clock factor 2 |y|^2 whose rescaling linearizes the fiber velocity."""
    return ScalarField(KS_CTX, parse(f"2 * {_R2}", KS_CTX))


def unfolded_domain() -> Box:
    """Positions |y_k| <= 1.5 and velocities |v_k| <= 1, minus the ball |y| < 0.5.

    The ball keeps sample points away from the collision puncture y = 0.
    """
    return Box(
        KS_CTX,
        (-1.5,) * 4 + (-1.0,) * 4,
        (1.5,) * 4 + (1.0,) * 4,
        exclude_radius=0.5,
        exclude_dims=(0, 1, 2, 3),
    )


def rescaled_field(params: KeplerParams = KeplerParams()) -> VectorField:
    """The unfolded field on the fast clock: 2 |y|^2 times unfolded_field.

    The factor is positive off the puncture y = 0 and is not sampled here;
    a chart built on this field ranks its velocity block 2 |y|^2 I, which
    refuses a factor that vanishes on the build's sample.
    """
    return unfolded_field(params).scaled(conformal_factor().expr)


# ----------------------------------------------------- chart-side field


def _chart_energy(params: KeplerParams) -> Expression:
    """|V|^2 / (2 |Q|^2) - g / |Q|^2, built as ``parse`` builds its text."""
    q2 = parse(_Q2, CHART_CTX)
    return sub(div(parse(_W2, CHART_CTX), mul(Const(2.0), q2)), div(Const(params.g), q2))


def chart_energy(params: KeplerParams = KeplerParams()) -> ScalarField:
    """Unfolded energy written in the chart variables (Q, V)."""
    return ScalarField(CHART_CTX, _chart_energy(params))


def chart_field(params: KeplerParams = KeplerParams()) -> VectorField:
    """Second-order chart field: Q'' = 2 E(Q, V) Q.

    On each negative-energy shell this is a harmonic block of frequency
    sqrt(2|E|); the energy factor varies only across shells.
    """
    twice_energy = mul(Const(2.0), _chart_energy(params))
    comps = [Var(f"V{k}") for k in range(1, 5)]
    comps += [mul(twice_energy, Var(f"Q{k}")) for k in range(1, 5)]
    return VectorField(CHART_CTX, tuple(comps))


# -------------------------------------------------------- energy shells


def _require_bound(energy_value: float) -> float:
    if energy_value >= 0:
        raise PositiveEnergyError(
            f"energy {energy_value} is not negative: no bounded shell"
        )
    return -float(energy_value)


def shell_frequency(energy_value: float) -> float:
    """Angular frequency sqrt(2|E|) of the shell at negative energy E."""
    return math.sqrt(2.0 * _require_bound(energy_value))


def shell_period(energy_value: float) -> float:
    return 2.0 * math.pi / shell_frequency(energy_value)


def shell_field(energy_value: float) -> VectorField:
    """Restriction of the chart field to the shell: linear, complete."""
    depth = _require_bound(energy_value)
    comps = [parse(f"V{k}", CHART_CTX) for k in range(1, 5)]
    comps += [parse(f"-(2 * {depth!r}) * Q{k}", CHART_CTX) for k in range(1, 5)]
    return VectorField(CHART_CTX, tuple(comps))


def shell_state(
    energy_value: float, radius: float, params: KeplerParams = KeplerParams()
) -> np.ndarray:
    """Chart point on the shell at a chosen base radius, constraint zero.

    The radius must stay below sqrt(g/|E|), the turning radius where the
    fiber velocity runs out.
    """
    depth = _require_bound(energy_value)
    if not 0.0 < radius < math.sqrt(params.g / depth):
        raise ValueError(
            f"radius {radius} outside the shell range (0, {math.sqrt(params.g / depth)})"
        )
    speed = math.sqrt(2.0 * (params.g - depth * radius * radius))
    state = np.zeros(8)
    state[0] = radius
    state[5] = speed
    return state


def shell_representative(
    energy_value: float, params: KeplerParams = KeplerParams()
) -> np.ndarray:
    """The equipartition point of the shell: constraint zero, |Q| constant.

    The base radius sqrt(g / 2|E|) splits the shell invariant evenly between
    its kinetic and radial halves; the circular orbit through this point
    keeps |Q| constant, so it never approaches the puncture.
    """
    depth = _require_bound(energy_value)
    return shell_state(energy_value, math.sqrt(params.g / (2.0 * depth)), params)


def _outside_float_range(
    energy_value: float, params: KeplerParams, quantity: str
) -> OverflowError:
    return OverflowError(
        f"energy {energy_value!r} with g {params.g!r} puts the orbit {quantity}"
        " outside the float range"
    )


def mean_motion(energy_value: float, params: KeplerParams = KeplerParams()) -> float:
    """Physical orbital frequency 2 sqrt(2|E|^3) / g at negative energy.

    Raises OverflowError when the frequency leaves the float range: |E|^3
    overflows, or the frequency is inf or underflows to 0.
    """
    depth = _require_bound(energy_value)
    try:
        frequency = 2.0 * math.sqrt(2.0 * depth**3) / params.g
    except OverflowError:
        frequency = math.inf
    if not 0.0 < frequency < math.inf:
        raise _outside_float_range(energy_value, params, "frequency")
    return frequency


def half_mean_motion(
    energy_value: float, params: KeplerParams = KeplerParams()
) -> float:
    """Half the physical frequency: the rate at which the unfolded angle turns."""
    return 0.5 * mean_motion(energy_value, params)


def orbit_period(energy_value: float, params: KeplerParams = KeplerParams()) -> float:
    """Physical orbital period 2 pi / mean_motion at negative energy.

    Raises OverflowError when the frequency or the period leaves the float
    range.
    """
    period = 2.0 * math.pi / mean_motion(energy_value, params)
    if math.isinf(period):
        raise _outside_float_range(energy_value, params, "period")
    return period


# ------------------------------------------------------- direct 3d side


def kepler3d_field(params: KeplerParams = KeplerParams()) -> VectorField:
    """Plain inverse-square field x'' = -g x / |x|^3 for cross-checks."""
    r3 = "(x1^2 + x2^2 + x3^2)^1.5"
    comps = [parse(f"u{k}", THREE_CTX) for k in range(1, 4)]
    comps += [parse(f"-{params.g!r} * x{k} / {r3}", THREE_CTX) for k in range(1, 4)]
    return VectorField(THREE_CTX, tuple(comps))


# ------------------------------------------------------------ orbit data


def unfolded_circular_state(
    energy_value: float, params: KeplerParams = KeplerParams()
) -> np.ndarray:
    """Unfolded initial data (y, v) for the circular orbit at energy E < 0.

    The constraint is exactly zero, so the projected motion is the circular
    Kepler orbit of radius g / 2|E| traced in the same physical time.
    """
    depth = _require_bound(energy_value)
    a = params.g / (2.0 * depth)
    state = np.zeros(8)
    state[0] = math.sqrt(a)
    state[5] = math.sqrt(params.g) / (2.0 * a)
    return state


def kepler3d_circular_state(
    energy_value: float, params: KeplerParams = KeplerParams()
) -> np.ndarray:
    """Direct 3d initial data matching unfolded_circular_state after projection."""
    depth = _require_bound(energy_value)
    a = params.g / (2.0 * depth)
    state = np.zeros(6)
    state[2] = a
    state[3] = math.sqrt(params.g / a)
    return state
