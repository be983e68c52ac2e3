"""Isotropic oscillators with an energy-dependent clock.

Composing the oscillator energy with a monotone profile f and multiplying
the field by f'(energy) gives a new second-order system whose angular
frequency on each energy level is exactly f'(level): the profile reshapes
the spectrum without touching the orbits.  Because the energy is conserved,
the slope factor rides along every orbit as a constant, so the chart force
over the base q (the field's derivative of each chart velocity) is
-f'(E)^2 Q, and the contraction of the rescaled field with the canonical
two-form is the exact differential of f(E).  A deformation offers its
profile f and its slope f' as trees, and f' at one level as a number: the
field needs only f', and f enters through :func:`deformed_hamiltonian`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import (
    Expression,
    VariableContext,
    differentiate,
    evaluate,
    parse,
    qv_context,
    sub,
    substitute,
)
from .fields import Box, ScalarField, VectorField, _entries, canonical_symplectic, max_abs_on
from .geometry import interior_twoform

__all__ = [
    "XI_CTX",
    "OscillatorSystem",
    "make_oscillator",
    "Deformation",
    "linear_deformation",
    "power_deformation",
    "kepler_matching_deformation",
    "deformed_field",
    "deformed_hamiltonian",
    "shell_state",
    "symplectic_residual",
]

XI_CTX = VariableContext.of("xi")


@dataclass(frozen=True)
class OscillatorSystem:
    """Unit-frequency isotropic oscillator in n degrees of freedom."""

    n: int
    ctx: VariableContext
    field: VectorField
    lagrangian: ScalarField
    energy: ScalarField

    def domain(self) -> Box:
        # the exclusion ball of radius 0.5 keeps energies at or above 1/8
        return Box.cube(self.ctx, 2.0, exclude_radius=0.5)

    def base_names(self) -> tuple[str, ...]:
        return self.ctx.names[: self.n]


def make_oscillator(n: int) -> OscillatorSystem:
    if n < 1:
        raise ValueError("need at least one degree of freedom")
    ctx = qv_context(n)
    comps = [parse(f"v{k}", ctx) for k in range(1, n + 1)]
    comps += [parse(f"-q{k}", ctx) for k in range(1, n + 1)]
    kinetic = " + ".join(f"v{k}^2" for k in range(1, n + 1))
    potential = " + ".join(f"q{k}^2" for k in range(1, n + 1))
    return OscillatorSystem(
        n=n,
        ctx=ctx,
        field=VectorField(ctx, tuple(comps)),
        lagrangian=ScalarField(ctx, parse(f"(({kinetic}) - ({potential})) / 2", ctx)),
        energy=ScalarField(ctx, parse(f"(({kinetic}) + ({potential})) / 2", ctx)),
    )


@dataclass(frozen=True)
class Deformation:
    """A smooth profile f(xi) applied to the oscillator energy.

    ``profile`` is given as a tree or as text over xi, and kept as a tree.
    ``slope`` is the tree f'(xi), and ``slope_at`` its value at one level:
    the level's frequency.
    """

    name: str
    profile: Expression

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", _entries(XI_CTX, self.profile, ()))

    @cached_property
    def slope(self) -> Expression:
        return differentiate(self.profile, "xi")

    def slope_at(self, xi: float) -> float:
        return evaluate(self.slope, {"xi": float(xi)})


def linear_deformation(k: float) -> Deformation:
    """Constant rescaling of the spectrum: every level beats at frequency k."""
    if k <= 0:
        raise ValueError("slope must be positive")
    return Deformation(f"linear-{k:g}", f"{float(k)!r} * xi")


def power_deformation(exponent: float) -> Deformation:
    """Profile xi^p / p, whose level frequency is xi^(p-1)."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    p = float(exponent)
    return Deformation(f"power-{exponent:g}", f"xi^{p!r} / {p!r}")


def kepler_matching_deformation(g: float) -> Deformation:
    """Profile (2 xi)^(5/2) / (10 g): level frequency sqrt(2 xi^3) / g.

    With this profile the oscillator level at (g^2 |E|)^(1/3) beats at
    sqrt(2|E|), the shell frequency of the unfolded Kepler chart at
    energy E, which is what makes frequency-true motion matching possible.
    """
    if not 0 < 10.0 * g < math.inf:  # the profile's text holds 10 g
        raise ValueError(f"coupling g must be positive, with 10 g finite; got {g!r}")
    return Deformation(f"kepler-match-g{g:g}", f"(2 * xi)^2.5 / ({float(10.0 * g)!r})")


def _slope_on(system: OscillatorSystem, deformation: Deformation) -> Expression:
    return substitute(deformation.slope, {"xi": system.energy.expr})


def deformed_field(
    system: OscillatorSystem, deformation: Deformation
) -> VectorField:
    """The oscillator field times f'(energy): frequency f'(c) on level c."""
    return system.field.scaled(_slope_on(system, deformation))


def deformed_hamiltonian(
    system: OscillatorSystem, deformation: Deformation
) -> ScalarField:
    """f composed with the energy: the function the rescaled field contracts to."""
    return ScalarField(
        system.ctx, substitute(deformation.profile, {"xi": system.energy.expr})
    )


def shell_state(system: OscillatorSystem, level: float) -> np.ndarray:
    """A state on the energy level: first coordinate sqrt(2c), at rest."""
    if level <= 0:
        raise ValueError("energy level must be positive")
    state = np.zeros(system.ctx.dim)
    state[0] = math.sqrt(2.0 * level)
    return state


def symplectic_residual(
    system: OscillatorSystem,
    deformation: Deformation,
    points: np.ndarray,
) -> float:
    """Max |i_(rescaled field) omega - d(f(energy))| over the points.

    The left side contracts the canonical two-form with the rescaled field;
    the right side is the plain differential of the deformed Hamiltonian.
    Exact agreement is what makes f(energy) the Hamiltonian of the rescaled
    dynamics.
    """
    omega = canonical_symplectic(system.ctx)
    lhs = interior_twoform(omega, deformed_field(system, deformation))
    rhs = deformed_hamiltonian(system, deformation).gradient()
    residuals = [sub(a, b) for a, b in zip(lhs.components, rhs.components)]
    return max_abs_on(residuals, system.ctx, points)

