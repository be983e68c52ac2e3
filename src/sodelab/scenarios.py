"""The worked-example library: named fields, factors, bases, and domains.

Everything the test battery and the command line exercise by name is a
row of one table, ``(kind, name, builder)``: ``"construction"`` cases (with
the bases that succeed and the fields that must be rejected),
``"rescaling"`` pairs of a field and a conformal factor, and ``"flat"``
canonical contexts.  The table's order is the public order of every
listing.  A lookup calls only the named row's builder, afresh on every call:
no scenario or field is cached, so two lookups give distinct scenario and
field objects, though their equal trees are the same interned nodes (see
:mod:`sodelab.expr`).  Listing names builds nothing.  Each scenario owns its
sampling box so callers never have to guess a safe domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import foscillator as fo
from . import kepler as kp
from .bundle import TangentStructure, build
from .errors import FunctionalDependenceError
from .expr import VariableContext, qv_context
from .fields import Box, ScalarField, VectorField

__all__ = [
    "SodeScenario",
    "ConformalScenario",
    "sode_scenarios",
    "buildable_scenarios",
    "rejection_scenarios",
    "conformal_scenarios",
    "get_sode_scenario",
    "get_conformal_scenario",
    "scenario_names",
    "lookup",
    "build_scenario",
    "structure_library",
    "canonical_contexts",
]

_X4 = VariableContext.of("x1", "x2", "x3", "x4")
_X2 = VariableContext.of("x1", "x2")
_X1 = VariableContext.of("x")

_AM_FACTOR_SRC = "1 + (x1*x4 - x2*x3)^2"


@dataclass(frozen=True, eq=False)
class SodeScenario:
    """A construction case: a field, a candidate base, and a sampling box."""

    name: str
    field: VectorField
    base: tuple[str, ...]
    box: Box
    expect_error: type | None = None

    @property
    def ctx(self) -> VariableContext:
        """The field's context."""
        return self.field.ctx


@dataclass(frozen=True, eq=False)
class ConformalScenario:
    """A rescaling case: a field, a certified-sign factor, and its domain."""

    name: str
    field: VectorField
    factor: ScalarField
    box: Box
    conserved: ScalarField | None = None
    orbit_state: tuple[float, ...] | None = None

    @property
    def ctx(self) -> VariableContext:
        """The field's context."""
        return self.field.ctx


def _double_rotation() -> VectorField:
    return VectorField.of(_X4, "x2", "-x1", "x4", "-x3")


def _oscillator_case(n: int) -> SodeScenario:
    system = fo.make_oscillator(n)
    return SodeScenario(
        name=f"oscillator-{n}",
        field=system.field,
        base=system.base_names(),
        box=system.domain(),
    )


def _double_rotation_case(pair: str) -> SodeScenario:
    return SodeScenario(
        name=f"double-rotation-{pair}",
        field=_double_rotation(),
        base=tuple(f"x{c}" for c in pair),
        box=Box.cube(_X4, 2.0, exclude_radius=0.5),
    )


def _free_particle_case(name: str, base: str) -> SodeScenario:
    return SodeScenario(
        name=name,
        field=VectorField.of(_X2, "x2", "0"),
        base=(base,),
        box=Box.cube(_X2, 2.0),
    )


def _conformal_am_case() -> SodeScenario:
    return SodeScenario(
        name="conformal-am",
        field=_double_rotation().scaled(_AM_FACTOR_SRC),
        base=("x1", "x3"),
        box=Box.cube(_X4, 1.2, exclude_radius=0.4),
    )


def _kepler_case() -> SodeScenario:
    return SodeScenario(
        name="kepler-chart",
        field=kp.rescaled_field(),
        base=("y0", "y1", "y2", "y3"),
        box=kp.unfolded_domain(),
    )


def _foscillator_case(deformation: fo.Deformation) -> SodeScenario:
    system = fo.make_oscillator(2)
    return SodeScenario(
        name=f"fosc-{deformation.name}",
        field=fo.deformed_field(system, deformation),
        base=system.base_names(),
        box=system.domain(),
    )


def _rotation_case(name: str, ctx: VariableContext) -> SodeScenario:
    """The plane rotation over base (x1, x2), padded with zeros to ``ctx``."""
    return SodeScenario(
        name=name,
        field=VectorField.of(ctx, "x2", "-x1", *("0",) * (ctx.dim - 2)),
        base=("x1", "x2"),
        box=Box.cube(ctx, 2.0, exclude_radius=0.3),
        expect_error=FunctionalDependenceError,
    )


def _oscillator_clock(name: str, factor: str) -> ConformalScenario:
    osc = fo.make_oscillator(1)
    return ConformalScenario(
        name=name,
        field=osc.field,
        factor=ScalarField(osc.ctx, factor),
        box=Box.cube(osc.ctx, 2.0),
        conserved=osc.energy,
        orbit_state=(1.0, 0.0),
    )


def _am_clock() -> ConformalScenario:
    return ConformalScenario(
        name="am-clock",
        field=_double_rotation(),
        factor=ScalarField(_X4, _AM_FACTOR_SRC),
        box=Box.cube(_X4, 1.2, exclude_radius=0.4),
        conserved=ScalarField(_X4, _AM_FACTOR_SRC),
        orbit_state=(1.0, 0.0, 0.3, 0.2),
    )


def _kepler_clock() -> ConformalScenario:
    params = kp.KeplerParams()
    return ConformalScenario(
        name="kepler-clock",
        field=kp.unfolded_field(params),
        factor=kp.conformal_factor(),
        box=kp.unfolded_domain(),
        conserved=kp.energy(params),
        orbit_state=tuple(kp.unfolded_circular_state(-0.5)),
    )


def _blowup_damping() -> ConformalScenario:
    return ConformalScenario(
        name="blowup-damping",
        field=VectorField.of(_X1, "x^2"),
        factor=ScalarField(_X1, "exp(-(x^4))"),
        box=Box.cube(_X1, 2.0),
        orbit_state=(1.0,),
    )


_TABLE = (
    # unit oscillator over its own configuration coordinates
    ("construction", "oscillator-1", partial(_oscillator_case, 1)),
    ("construction", "oscillator-2", partial(_oscillator_case, 2)),
    # two uncoupled unit rotations; every mixed pair is a base
    *(("construction", f"double-rotation-{pair}", partial(_double_rotation_case, pair))
      for pair in ("13", "14", "23", "24")),
    # drift field; rest states sit on the base, which is a warning
    ("construction", "free-particle", partial(
        _free_particle_case, "free-particle", "x1")),
    # same field under a bent base function; chart inverts by Newton
    ("construction", "free-particle-bent", partial(
        _free_particle_case, "free-particle-bent", "x1 + x2^2")),
    # rotation on an orbit-dependent clock; chart determinant is
    # (1 + ell^2)(1 + 3 ell^2) with ell the plane-mixing invariant
    ("construction", "conformal-am", _conformal_am_case),
    # unfolded gravitational field on the fast clock over the plain base
    ("construction", "kepler-chart", _kepler_case),
    # oscillators on an energy-dependent clock, rebuilt over q
    ("construction", "fosc-linear-2", lambda: _foscillator_case(fo.linear_deformation(2.0))),
    ("construction", "fosc-power-2", lambda: _foscillator_case(fo.power_deformation(2.0))),
    ("construction", "fosc-kepler-match-g1",
     lambda: _foscillator_case(fo.kepler_matching_deformation(1.0))),
    # two base functions on a two-dimensional ambient space
    ("construction", "rotation-2d", partial(_rotation_case, "rotation-2d", _X2)),
    # same rotation padded into four dimensions: the velocity functions
    # repeat the base functions, so the chart rank collapses
    ("construction", "rotation-4d-lift", partial(_rotation_case, "rotation-4d-lift", _X4)),
    # constant clock factor: period divides by the constant
    ("rescaling", "uniform-speedup", partial(_oscillator_clock, "uniform-speedup", "2")),
    # state-dependent clock: same orbits, reshaped time
    ("rescaling", "state-speedup", partial(
        _oscillator_clock, "state-speedup", "2 + q1^2 / 4")),
    # factor built from the plane-mixing invariant: constant on every orbit
    # yet not constant on space
    ("rescaling", "am-clock", _am_clock),
    # the slow-to-fast clock change of the unfolded problem
    ("rescaling", "kepler-clock", _kepler_clock),
    # finite-time escape stretched to completeness by the damping
    ("rescaling", "blowup-damping", _blowup_damping),
    # the flat tangent spaces of one and two degrees of freedom
    ("flat", "flat-2", partial(qv_context, 1)),
    ("flat", "flat-4", partial(qv_context, 2)),
)


def scenario_names(kind: str) -> tuple[str, ...]:
    """The names of one kind's rows, in table order; builds nothing."""
    return tuple(name for k, name, _ in _TABLE if k == kind)


def _build(kind: str, name: str):
    for k, n, builder in _TABLE:
        if (k, n) == (kind, name):
            return builder()
    raise KeyError(f"no {kind} scenario {name!r}; known: {', '.join(scenario_names(kind))}")


def get_sode_scenario(name: str) -> SodeScenario:
    return _build("construction", name)


def get_conformal_scenario(name: str) -> ConformalScenario:
    return _build("rescaling", name)


def lookup(kind: str, name: str):
    """A fresh build of the ``kind`` row ``name``; construction and rescaling
    names go through the two getters above, read at call time."""
    if kind == "construction":
        return get_sode_scenario(name)
    if kind == "rescaling":
        return get_conformal_scenario(name)
    return _build(kind, name)


def sode_scenarios() -> tuple[SodeScenario, ...]:
    return tuple(build() for kind, _, build in _TABLE if kind == "construction")


def buildable_scenarios() -> tuple[SodeScenario, ...]:
    return tuple(s for s in sode_scenarios() if s.expect_error is None)


def rejection_scenarios() -> tuple[SodeScenario, ...]:
    return tuple(s for s in sode_scenarios() if s.expect_error is not None)


def conformal_scenarios() -> tuple[ConformalScenario, ...]:
    return tuple(build() for kind, _, build in _TABLE if kind == "rescaling")


def build_scenario(
    scenario: SodeScenario, *, seed: int = 0, n_random: int = 500
) -> TangentStructure:
    """Run the chart construction for a scenario (raises for rejection cases)."""
    return build(scenario.field, scenario.base, scenario.box, seed=seed, n_random=n_random)


def structure_library() -> tuple[tuple[str, TangentStructure], ...]:
    """Every buildable scenario, built; the pool for whole-library checks."""
    return tuple((s.name, build_scenario(s)) for s in buildable_scenarios())


def canonical_contexts() -> tuple[tuple[str, VariableContext], ...]:
    """The flat tangent spaces of one and two degrees of freedom."""
    return tuple((name, build()) for kind, name, build in _TABLE if kind == "flat")
