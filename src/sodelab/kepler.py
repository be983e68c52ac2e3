"""The Kepler problem unfolded to four dimensions.

The square map of Kustaanheimo and Stiefel sends y in R^4 to x in R^3 with
|x| = |y|^2, turning the gravitational two-body problem into a system whose
collision set is a plain coordinate puncture.  This module carries:

  * the square map, its tangent map, its fiber direction, and the bilinear
    constraint whose zero locus projects onto physical motion;
  * the unfolded variational field, its energy, and the slow-clock rescaling
    that makes the fiber-velocity pair (Q, V) a genuine chart;
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

from .bundle import TangentStructure, build
from .conformal import rescale
from .errors import PositiveEnergyError
from .expr import VariableContext, parse
from .fields import Box, PointMap, ScalarField, VectorField

__all__ = [
    "KS_BASE_CTX",
    "KS_CTX",
    "CHART_CTX",
    "THREE_CTX",
    "KeplerParams",
    "ks_map",
    "ks_jacobian",
    "ks_tangent",
    "ks_point_map",
    "fiber_direction",
    "ks_constraint",
    "constraint_field",
    "constraint_rate_field",
    "lagrangian",
    "energy",
    "unfolded_field",
    "conformal_factor",
    "unfolded_domain",
    "rescaled_field",
    "regularized_structure",
    "chart_field",
    "chart_energy",
    "chart_constraint",
    "shell_frequency",
    "shell_period",
    "shell_field",
    "shell_state",
    "shell_representative",
    "shell_residual",
    "mean_motion",
    "half_mean_motion",
    "kepler3d_field",
    "project_state",
    "project_trajectory",
    "unfolded_circular_state",
    "kepler3d_circular_state",
]

KS_BASE_CTX = VariableContext.of("y0", "y1", "y2", "y3")
KS_CTX = VariableContext.of("y0", "y1", "y2", "y3", "v0", "v1", "v2", "v3")
CHART_CTX = VariableContext.of("Q1", "Q2", "Q3", "Q4", "V1", "V2", "V3", "V4")
THREE_CTX = VariableContext.of("x1", "x2", "x3", "u1", "u2", "u3")
_POSITION_CTX = VariableContext.of("x1", "x2", "x3")

_KS_SOURCES = (
    "2 * (y0*y1 + y2*y3)",
    "2 * (y0*y2 - y1*y3)",
    "y0^2 + y3^2 - y1^2 - y2^2",
)

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


def ks_map(y) -> np.ndarray:
    """Square map R^4 -> R^3; |ks_map(y)| = |y|^2."""
    y0, y1, y2, y3 = np.asarray(y, dtype=float)
    return np.array(
        [
            2.0 * (y0 * y1 + y2 * y3),
            2.0 * (y0 * y2 - y1 * y3),
            y0 * y0 + y3 * y3 - y1 * y1 - y2 * y2,
        ]
    )


def ks_jacobian(y) -> np.ndarray:
    """Tangent map of the square map, shape (3, 4); J J^T = 4 |y|^2 I."""
    y0, y1, y2, y3 = np.asarray(y, dtype=float)
    return 2.0 * np.array(
        [
            [y1, y0, y3, y2],
            [y2, -y3, y0, -y1],
            [y0, -y1, -y2, y3],
        ]
    )


def ks_tangent(y, v) -> tuple[np.ndarray, np.ndarray]:
    """Push a tangent vector (y, v) down to (x, u) = (ks_map(y), J(y) v)."""
    return ks_map(y), ks_jacobian(y) @ np.asarray(v, dtype=float)


def ks_point_map() -> PointMap:
    """The square map as a symbolic coordinate map for pullback work."""
    return PointMap(
        KS_BASE_CTX, _POSITION_CTX, tuple(parse(s, KS_BASE_CTX) for s in _KS_SOURCES)
    )


def fiber_direction(y) -> np.ndarray:
    """Spanning vector of ker(ks_jacobian(y)): the direction the map forgets."""
    y0, y1, y2, y3 = np.asarray(y, dtype=float)
    return np.array([-y3, -y2, y1, y0])


# ------------------------------------------------------------ constraint


def ks_constraint(y, v) -> float:
    """Bilinear constraint: the fiber component of v.

    Zero exactly when (y, v) projects onto a kinematic 3d state; its zero
    locus is invariant under the unfolded flow.
    """
    return float(np.dot(fiber_direction(y), np.asarray(v, dtype=float)))


def constraint_field() -> ScalarField:
    return ScalarField(KS_CTX, parse("y0*v3 - y3*v0 + y1*v2 - y2*v1", KS_CTX))


def constraint_rate_field() -> ScalarField:
    """Closed form for the constraint's rate along the unfolded field.

    The rate is proportional to the constraint itself, which is why the zero
    locus is invariant and why |y|^2 times the constraint is conserved.
    """
    src = f"-2 * {_YDV} * (y0*v3 - y3*v0 + y1*v2 - y2*v1) / {_R2}"
    return ScalarField(KS_CTX, parse(src, KS_CTX))


# ------------------------------------------------- unfolded dynamics


def lagrangian(params: KeplerParams = KeplerParams()) -> ScalarField:
    """Unfolded Lagrangian 2 |y|^2 |v|^2 + g / |y|^2 on the slow clock."""
    return ScalarField(KS_CTX, parse(f"2 * {_R2} * {_VSQ} + {params.g!r} / {_R2}", KS_CTX))


def energy(params: KeplerParams = KeplerParams()) -> ScalarField:
    """Conserved energy 2 |y|^2 |v|^2 - g / |y|^2 of the unfolded field."""
    return ScalarField(KS_CTX, parse(f"2 * {_R2} * {_VSQ} - {params.g!r} / {_R2}", KS_CTX))


def unfolded_field(params: KeplerParams = KeplerParams()) -> VectorField:
    """Variational field of the unfolded Lagrangian; time is physical time."""
    comps = [parse(f"v{k}", KS_CTX) for k in range(4)]
    for k in range(4):
        src = (
            f"{_VSQ} * y{k} / {_R2}"
            f" - {params.g!r} * y{k} / (2 * {_R2}^3)"
            f" - 2 * {_YDV} * v{k} / {_R2}"
        )
        comps.append(parse(src, KS_CTX))
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


def rescaled_field(
    params: KeplerParams = KeplerParams(), box: Box | None = None
) -> VectorField:
    """The unfolded field on the fast clock: 2 |y|^2 times unfolded_field."""
    if box is None:
        box = unfolded_domain()
    pair = rescale(unfolded_field(params), conformal_factor(), box)
    return pair.rescaled


def regularized_structure(
    params: KeplerParams = KeplerParams(), box: Box | None = None, **kwargs
) -> TangentStructure:
    """Tangent-bundle structure with base y for the rescaled field.

    The fiber velocity comes out as 2 |y|^2 v, linear across the fibers, so
    the chart inverts by one linear solve per point.
    """
    if box is None:
        box = unfolded_domain()
    field = rescaled_field(params, box)
    return build(field, tuple(f"y{k}" for k in range(4)), box, **kwargs)


# ----------------------------------------------------- chart-side field


def _chart_energy_src(params: KeplerParams) -> str:
    return f"({_W2} / (2 * {_Q2}) - {params.g!r} / {_Q2})"


def chart_energy(params: KeplerParams = KeplerParams()) -> ScalarField:
    """Unfolded energy written in the chart variables (Q, V)."""
    return ScalarField(CHART_CTX, parse(_chart_energy_src(params), CHART_CTX))


def chart_field(params: KeplerParams = KeplerParams()) -> VectorField:
    """Second-order chart field: Q'' = 2 E(Q, V) Q.

    On each negative-energy shell this is a harmonic block of frequency
    sqrt(2|E|); the energy factor varies only across shells.
    """
    e_src = _chart_energy_src(params)
    comps = [parse(f"V{k}", CHART_CTX) for k in range(1, 5)]
    comps += [parse(f"2 * {e_src} * Q{k}", CHART_CTX) for k in range(1, 5)]
    return VectorField(CHART_CTX, tuple(comps))


def chart_constraint() -> ScalarField:
    """The bilinear constraint transported to the chart variables."""
    return ScalarField(CHART_CTX, parse("Q1*V4 - Q4*V1 + Q2*V3 - Q3*V2", CHART_CTX))


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


def shell_residual(
    point, energy_value: float, params: KeplerParams = KeplerParams()
) -> float:
    """|V^2 / 2 + |E| Q^2 - g| at a chart point: zero exactly on the shell."""
    depth = _require_bound(energy_value)
    p = np.asarray(point, dtype=float)
    q2 = float(np.dot(p[:4], p[:4]))
    w2 = float(np.dot(p[4:], p[4:]))
    return abs(0.5 * w2 + depth * q2 - params.g)


def mean_motion(energy_value: float, params: KeplerParams = KeplerParams()) -> float:
    """Physical orbital frequency 2 sqrt(2|E|^3) / g at negative energy."""
    depth = _require_bound(energy_value)
    return 2.0 * math.sqrt(2.0 * depth**3) / params.g


def half_mean_motion(
    energy_value: float, params: KeplerParams = KeplerParams()
) -> float:
    """Half the physical frequency: the rate at which the unfolded angle turns."""
    return 0.5 * mean_motion(energy_value, params)


# ------------------------------------------------------- direct 3d side


def kepler3d_field(params: KeplerParams = KeplerParams()) -> VectorField:
    """Plain inverse-square field x'' = -g x / |x|^3 for cross-checks."""
    r3 = "(x1^2 + x2^2 + x3^2)^1.5"
    comps = [parse(f"u{k}", THREE_CTX) for k in range(1, 4)]
    comps += [parse(f"-{params.g!r} * x{k} / {r3}", THREE_CTX) for k in range(1, 4)]
    return VectorField(THREE_CTX, tuple(comps))


def project_state(state) -> np.ndarray:
    """Push an unfolded tangent state (y, v) down to a 3d state (x, u)."""
    state = np.asarray(state, dtype=float)
    x, u = ks_tangent(state[:4], state[4:])
    return np.concatenate([x, u])


def project_trajectory(trajectory) -> np.ndarray:
    """Project every stored state of an unfolded trajectory, shape (m, 6)."""
    return np.array([project_state(s) for s in trajectory.states])


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
