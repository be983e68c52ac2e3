"""The worked-example library: named fields, factors, bases, and domains.

Everything the test battery and the command line exercise by name lives
here: second-order construction cases (with the bases that succeed and the
fields that must be rejected), conformal rescaling pairs, and the canonical
flat cases.  Each scenario owns its sampling box so callers never have to
guess a safe domain.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ctx: VariableContext
    field: VectorField
    base: tuple[str, ...]
    box: Box
    expect_error: type | None = None
    notes: str = ""


@dataclass(frozen=True, eq=False)
class ConformalScenario:
    """A rescaling case: a field, a certified-sign factor, and its domain."""

    name: str
    ctx: VariableContext
    field: VectorField
    factor: ScalarField
    box: Box
    conserved: ScalarField | None = None
    orbit_state: tuple[float, ...] | None = None
    notes: str = ""


def _double_rotation() -> VectorField:
    return VectorField.of(_X4, "x2", "-x1", "x4", "-x3")


def _oscillator_case(n: int) -> SodeScenario:
    system = fo.make_oscillator(n)
    return SodeScenario(
        name=f"oscillator-{n}",
        ctx=system.ctx,
        field=system.field,
        base=system.base_names(),
        box=system.domain(),
        notes="unit oscillator over its own configuration coordinates",
    )


def _double_rotation_cases() -> list[SodeScenario]:
    cases = []
    box = Box.cube(_X4, 2.0, exclude_radius=0.5)
    for pair in ("13", "14", "23", "24"):
        base = tuple(f"x{c}" for c in pair)
        cases.append(
            SodeScenario(
                name=f"double-rotation-{pair}",
                ctx=_X4,
                field=_double_rotation(),
                base=base,
                box=box,
                notes="two uncoupled unit rotations; every mixed pair is a base",
            )
        )
    return cases


def _free_particle_cases() -> list[SodeScenario]:
    field = VectorField.of(_X2, "x2", "0")
    box = Box.cube(_X2, 2.0)
    return [
        SodeScenario(
            name="free-particle",
            ctx=_X2,
            field=field,
            base=("x1",),
            box=box,
            notes="drift field; rest states sit on the base, which is a warning",
        ),
        SodeScenario(
            name="free-particle-bent",
            ctx=_X2,
            field=field,
            base=("x1 + x2^2",),
            box=box,
            notes="same field under a bent base function; chart inverts by Newton",
        ),
    ]


def _conformal_am_case() -> SodeScenario:
    return SodeScenario(
        name="conformal-am",
        ctx=_X4,
        field=_double_rotation().scaled(_AM_FACTOR_SRC),
        base=("x1", "x3"),
        box=Box.cube(_X4, 1.2, exclude_radius=0.4),
        notes="rotation on an orbit-dependent clock; chart determinant is "
        "(1 + ell^2)(1 + 3 ell^2) with ell the plane-mixing invariant",
    )


def _kepler_case() -> SodeScenario:
    params = kp.KeplerParams()
    box = kp.unfolded_domain()
    return SodeScenario(
        name="kepler-chart",
        ctx=kp.KS_CTX,
        field=kp.rescaled_field(params, box),
        base=("y0", "y1", "y2", "y3"),
        box=box,
        notes="unfolded gravitational field on the fast clock over the plain base",
    )


def _foscillator_cases() -> list[SodeScenario]:
    system = fo.make_oscillator(2)
    box = system.domain()
    cases = []
    for deformation in (
        fo.linear_deformation(2.0),
        fo.power_deformation(2.0),
        fo.kepler_matching_deformation(1.0),
    ):
        cases.append(
            SodeScenario(
                name=f"fosc-{deformation.name}",
                ctx=system.ctx,
                field=fo.deformed_field(system, deformation),
                base=system.base_names(),
                box=box,
                notes="oscillator on an energy-dependent clock, rebuilt over q",
            )
        )
    return cases


def _rejection_cases() -> list[SodeScenario]:
    return [
        SodeScenario(
            name="rotation-2d",
            ctx=_X2,
            field=VectorField.of(_X2, "x2", "-x1"),
            base=("x1", "x2"),
            box=Box.cube(_X2, 2.0, exclude_radius=0.3),
            expect_error=FunctionalDependenceError,
            notes="two base functions on a two-dimensional ambient space",
        ),
        SodeScenario(
            name="rotation-4d-lift",
            ctx=_X4,
            field=VectorField.of(_X4, "x2", "-x1", "0", "0"),
            base=("x1", "x2"),
            box=Box.cube(_X4, 2.0, exclude_radius=0.3),
            expect_error=FunctionalDependenceError,
            notes="same rotation padded into four dimensions: the velocity "
            "functions repeat the base functions, so the chart rank collapses",
        ),
    ]


def sode_scenarios() -> tuple[SodeScenario, ...]:
    cases = [
        _oscillator_case(1),
        _oscillator_case(2),
        *_double_rotation_cases(),
        *_free_particle_cases(),
        _conformal_am_case(),
        _kepler_case(),
        *_foscillator_cases(),
        *_rejection_cases(),
    ]
    return tuple(cases)


def buildable_scenarios() -> tuple[SodeScenario, ...]:
    return tuple(s for s in sode_scenarios() if s.expect_error is None)


def rejection_scenarios() -> tuple[SodeScenario, ...]:
    return tuple(s for s in sode_scenarios() if s.expect_error is not None)


def conformal_scenarios() -> tuple[ConformalScenario, ...]:
    osc = fo.make_oscillator(1)
    params = kp.KeplerParams()
    return (
        ConformalScenario(
            name="uniform-speedup",
            ctx=osc.ctx,
            field=osc.field,
            factor=ScalarField(osc.ctx, "2"),
            box=Box.cube(osc.ctx, 2.0),
            conserved=osc.energy,
            orbit_state=(1.0, 0.0),
            notes="constant clock factor: period divides by the constant",
        ),
        ConformalScenario(
            name="state-speedup",
            ctx=osc.ctx,
            field=osc.field,
            factor=ScalarField(osc.ctx, "2 + q1^2 / 4"),
            box=Box.cube(osc.ctx, 2.0),
            conserved=osc.energy,
            orbit_state=(1.0, 0.0),
            notes="state-dependent clock: same orbits, reshaped time",
        ),
        ConformalScenario(
            name="am-clock",
            ctx=_X4,
            field=_double_rotation(),
            factor=ScalarField(_X4, _AM_FACTOR_SRC),
            box=Box.cube(_X4, 1.2, exclude_radius=0.4),
            conserved=ScalarField(_X4, _AM_FACTOR_SRC),
            orbit_state=(1.0, 0.0, 0.3, 0.2),
            notes="factor built from the plane-mixing invariant: constant on "
            "every orbit yet not constant on space",
        ),
        ConformalScenario(
            name="kepler-clock",
            ctx=kp.KS_CTX,
            field=kp.unfolded_field(params),
            factor=kp.conformal_factor(),
            box=kp.unfolded_domain(),
            conserved=kp.energy(params),
            orbit_state=tuple(kp.unfolded_circular_state(-0.5)),
            notes="the slow-to-fast clock change of the unfolded problem",
        ),
        ConformalScenario(
            name="blowup-damping",
            ctx=_X1,
            field=VectorField.of(_X1, "x^2"),
            factor=ScalarField(_X1, "exp(-(x^4))"),
            box=Box.cube(_X1, 2.0),
            conserved=None,
            orbit_state=(1.0,),
            notes="finite-time escape stretched to completeness by the damping",
        ),
    )


def _lookup(library, kind: str, name: str):
    """The scenario called ``name`` from one build of ``library``."""
    by_name = {s.name: s for s in library}
    if name not in by_name:
        raise KeyError(f"no {kind} scenario {name!r}; known: {', '.join(by_name)}")
    return by_name[name]


def get_sode_scenario(name: str) -> SodeScenario:
    return _lookup(sode_scenarios(), "construction", name)


def get_conformal_scenario(name: str) -> ConformalScenario:
    return _lookup(conformal_scenarios(), "rescaling", name)


def build_scenario(scenario: SodeScenario, **kwargs) -> TangentStructure:
    """Run the chart construction for a scenario (raises for rejection cases)."""
    return build(scenario.field, scenario.base, scenario.box, **kwargs)


def structure_library(**kwargs) -> tuple[tuple[str, TangentStructure], ...]:
    """Every buildable scenario, built; the pool for whole-library checks."""
    return tuple(
        (s.name, build_scenario(s, **kwargs)) for s in buildable_scenarios()
    )


def canonical_contexts() -> tuple[tuple[str, VariableContext], ...]:
    """The flat tangent spaces of one and two degrees of freedom."""
    return (
        ("flat-2", qv_context(1)),
        ("flat-4", qv_context(2)),
    )
