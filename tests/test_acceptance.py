"""The acceptance gate: ten end-to-end claims, one test each.

Every test funnels its verdict through the ``criterion`` fixture so the
terminal summary ends with a scoreboard line per criterion.  Tolerances
are pinned here and nowhere loosened; a criterion that cannot be met
fails loudly rather than quietly shifting a threshold.
"""

import math

import numpy as np
import pytest

from sodelab import conformal as cf
from sodelab import foscillator as fo
from sodelab import kepler as kp
from sodelab import motions as mo
from sodelab import scenarios as sc
from sodelab.bundle import structure_sode_residual
from sodelab.dynamics import conserved_drift, estimate_period, integrate
from sodelab.errors import FunctionalDependenceError, SodelabError
from sodelab.fields import (
    Box,
    OneFormField,
    ScalarField,
    VectorField,
    canonical_tangent_structure,
    evaluate_on,
    max_abs_on,
)
from sodelab.expr import parse, qv_context
from sodelab.geometry import lagrange_residual, verify_tangent_structure

ENERGIES = (-0.5, -1.0, -2.0)

AXIOMS = (
    "S_squared_zero",
    "delta_in_image_S",
    "lie_delta_S_plus_S",
    "nijenhuis_torsion",
)


@pytest.fixture(scope="module")
def library():
    return tuple(sc.structure_library())


@pytest.fixture(scope="module")
def kepler_records():
    return mo.extract_kepler_motions(ENERGIES)


@pytest.fixture(scope="module")
def oscillator_records():
    system = fo.make_oscillator(2)
    deformation = fo.kepler_matching_deformation(1.0)
    levels = mo.matched_oscillator_grid(ENERGIES)
    return mo.extract_oscillator_motions(system, deformation, levels)


@pytest.fixture(scope="module")
def system2():
    return fo.make_oscillator(2)


def test_criterion_01_axiom_suite(criterion, library):
    worst = 0.0
    count = 0

    for n in (1, 2):
        ctx = qv_context(n)
        s, delta = canonical_tangent_structure(ctx)
        report = verify_tangent_structure(
            s,
            delta,
            Box.cube(ctx, 2.0),
            field=fo.make_oscillator(n).field,
            n_random=500,
            tol=1e-8,
        )
        for name in AXIOMS + ("sode_condition",):
            worst = max(worst, report.check(name).max_residual)
        count += 1

    for name, structure in library:
        s, delta = canonical_tangent_structure(structure.chart_ctx)
        report = verify_tangent_structure(
            s,
            delta,
            Box.cube(structure.chart_ctx, 1.5),
            n_random=500,
            tol=1e-8,
        )
        for axiom in AXIOMS:
            worst = max(worst, report.check(axiom).max_residual)
        points = structure.domain.sample(seed=0, n_random=500, grid_points=3)
        worst = max(worst, structure_sode_residual(structure, points))
        count += 1

    criterion(
        1,
        "tangent-structure axiom suite",
        worst < 1e-8,
        f"max residual {worst:.2e} over {count} structures",
    )


def test_criterion_02_square_map_identities(criterion):
    rng = np.random.default_rng(11)
    ys = rng.uniform(-2.0, 2.0, (10_000, 4))
    tpi = kp.tangent_map()
    states = np.hstack([ys, np.zeros_like(ys)])
    positions = evaluate_on(tpi.components[:3], tpi.src, states)
    norm_gap = 0.0
    for y, x in zip(ys, positions):
        norm_gap = max(norm_gap, abs(float(np.linalg.norm(x)) - float(y @ y)))

    kernel_gap = 0.0
    away = ys[np.linalg.norm(ys, axis=1) > 0.3][:1000]
    away_states = np.hstack([away, np.zeros_like(away)])
    jacobians = evaluate_on([row[:4] for row in tpi.jacobian[:3]], tpi.src, away_states)
    fibers = evaluate_on(
        kp.constraint_field().gradient().components[4:], tpi.src, away_states
    )
    for jac, fiber in zip(jacobians, fibers):
        kernel_gap = max(kernel_gap, float(np.max(np.abs(jac @ fiber))))
        _, sing, vt = np.linalg.svd(jac)
        if sing[2] < 1e-6:
            kernel_gap = math.inf
            continue
        unit = fiber / np.linalg.norm(fiber)
        kernel_gap = max(kernel_gap, abs(1.0 - abs(float(vt[3] @ unit))))

    ell = kp.constraint_field()
    drift = 0.0
    eccentric = np.array([1.0, 0.1, 0.0, 0.0, 0.0, 0.25, 0.2, -0.02])
    for state in (kp.unfolded_circular_state(-0.5), eccentric):
        period = 2.0 * math.pi / kp.mean_motion(float(kp.energy()(state)))
        traj = integrate(
            kp.unfolded_field().ode_rhs, state, period, rtol=1e-10, atol=1e-12
        )
        drift = max(drift, conserved_drift(ell, traj))

    passed = norm_gap < 1e-12 and kernel_gap < 1e-10 and drift < 1e-8
    criterion(
        2,
        "square-map identities",
        passed,
        f"norm {norm_gap:.2e}, kernel {kernel_gap:.2e}, drift {drift:.2e}",
    )


def test_criterion_03_shell_clock_law(criterion, kepler_records):
    worst = 0.0
    for record in kepler_records:
        measured = 2.0 * math.pi / record.frequency
        predicted = kp.shell_period(record.parameter)
        worst = max(worst, abs(measured - predicted) / predicted)
    criterion(
        3,
        "shell clock law",
        worst < 1e-3,
        f"max relative period error {worst:.2e} over E = {list(ENERGIES)}",
    )


def test_criterion_04_orbit_projection(criterion):
    eccentric = np.array([1.0, 0.1, 0.0, 0.0, 0.0, 0.25, 0.2, -0.02])
    tpi = kp.tangent_map()
    ell = kp.constraint_field()
    gap = 0.0
    for y0 in (kp.unfolded_circular_state(-0.5), eccentric):
        assert abs(float(ell(y0))) < 1e-14
        period = 2.0 * math.pi / kp.mean_motion(float(kp.energy()(y0)))
        upstairs = integrate(
            kp.unfolded_field().ode_rhs, y0, period, rtol=1e-10, atol=1e-12
        )
        x0 = tpi(y0)
        downstairs = integrate(
            kp.kepler3d_field().ode_rhs, x0, period, rtol=1e-10, atol=1e-12
        )
        times = np.linspace(0.0, period, 400)
        projected = evaluate_on(tpi.components[:3], tpi.src, upstairs.sample_many(times))
        reference = downstairs.sample_many(times)[:, :3]
        gap = max(gap, float(np.max(np.abs(projected - reference))))
    criterion(
        4,
        "orbit projection",
        gap < 1e-6,
        f"max position gap {gap:.2e} over one period, two seeds",
    )


def test_criterion_05_deformed_frequency_law(criterion, system2):
    trio = (
        (fo.linear_deformation(2.0), 0.9),
        (fo.power_deformation(2.0), 0.8),
        (fo.kepler_matching_deformation(1.0), 0.5),
    )
    worst = 0.0
    for deformation, level in trio:
        gamma = fo.deformed_field(system2, deformation)
        est = estimate_period(gamma.ode_rhs, fo.shell_state(system2, level))
        measured = 2.0 * math.pi / est.period
        predicted = deformation.slope_at(level)
        worst = max(worst, abs(measured - predicted) / abs(predicted))
    anchor = abs(fo.kepler_matching_deformation(1.0).slope_at(0.5) - 0.5)
    criterion(
        5,
        "deformed-oscillator frequency law",
        worst < 1e-3 and anchor < 1e-12,
        f"max relative error {worst:.2e}; matching slope at 1/2 off by {anchor:.1e}",
    )


def test_criterion_06_motion_matching(criterion, kepler_records, oscillator_records):
    try:
        matching = mo.match_motions(kepler_records, oscillator_records, tol=1e-3)
    except SodelabError as exc:
        criterion(6, "motion matching", False, str(exc))
        return
    labels_a = {p.record_a.label for p in matching.pairs}
    labels_b = {p.record_b.label for p in matching.pairs}
    bijective = (
        len(matching.pairs) == len(ENERGIES)
        and len(labels_a) == len(ENERGIES)
        and len(labels_b) == len(ENERGIES)
    )
    worst_pair = max(p.rel_mismatch for p in matching.pairs)

    closure_gap = 0.0
    shell_gap = 0.0
    for record in (*kepler_records, *oscillator_records):
        _, states, closure = mo.record_curve(record, 512)
        closure_gap = max(closure_gap, closure)
        if record.kind == "kepler":
            depth = abs(record.parameter)
            q2 = np.sum(states[:, :4] ** 2, axis=1)
            w2 = np.sum(states[:, 4:] ** 2, axis=1)
            shell_gap = max(
                shell_gap, float(np.max(np.abs(0.5 * w2 + depth * q2 - 1.0)))
            )

    passed = (
        bijective and worst_pair < 1e-3 and closure_gap < 1e-6 and shell_gap < 1e-8
    )
    criterion(
        6,
        "motion matching",
        passed,
        f"mismatch {worst_pair:.2e}, closure {closure_gap:.2e}, "
        f"shell {shell_gap:.2e}",
    )


def _probe_form(ctx):
    names = ctx.names
    return OneFormField(
        ctx,
        tuple(
            parse(f"{names[i]} * {names[(i + 1) % ctx.dim]} + 1", ctx)
            for i in range(ctx.dim)
        ),
    )


def _probe_field(ctx):
    names = ctx.names
    return VectorField(
        ctx,
        tuple(
            parse(f"{names[(i + 1) % ctx.dim]}^2 - {names[i]}", ctx)
            for i in range(ctx.dim)
        ),
    )


def test_criterion_07_time_rescaling_laws(criterion):
    uniform = sc.get_conformal_scenario("uniform-speedup")
    state = np.asarray(uniform.orbit_state, dtype=float)
    base = estimate_period(uniform.field.ode_rhs, state)
    fast = estimate_period(
        uniform.field.scaled(uniform.factor.expr).ode_rhs, state
    )
    scaling_err = abs(fast.period - base.period / 2.0) / (base.period / 2.0)

    identity_gap = 0.0
    for scenario in sc.conformal_scenarios():
        pts = scenario.box.sample(seed=5, n_random=200, grid_points=3)
        identity_gap = max(
            identity_gap,
            cf.oneform_rescaling_residual(
                scenario.field, scenario.factor, _probe_form(scenario.ctx), pts
            ),
            cf.bracket_rescaling_residual(
                scenario.field, scenario.factor, _probe_field(scenario.ctx), pts
            ),
        )

    bent = sc.get_conformal_scenario("state-speedup")
    s0 = np.asarray(bent.orbit_state, dtype=float)
    slow = integrate(bent.field.ode_rhs, s0, 2.0 * math.pi)
    rescaled = bent.field.scaled(bent.factor.expr)
    fast_period = estimate_period(rescaled.ode_rhs, s0).period
    quick = integrate(rescaled.ode_rhs, s0, fast_period)
    grid = np.linspace(0.0, 1.0, 2048)
    deviation = cf.polyline_deviation(
        slow.sample_many(grid * slow.final_time),
        quick.sample_many(grid * quick.final_time),
    )

    passed = scaling_err < 1e-3 and identity_gap < 1e-9 and deviation < 1e-5
    criterion(
        7,
        "time-rescaling laws",
        passed,
        f"period scaling {scaling_err:.2e}, identities {identity_gap:.2e}, "
        f"orbit deviation {deviation:.2e}",
    )


def test_criterion_08_completeness_regularizer(criterion):
    scenario = sc.get_conformal_scenario("blowup-damping")
    witness = ScalarField(scenario.ctx, parse("x", scenario.ctx))
    certificate = cf.regularize_complete(scenario.field, witness, scenario.box)
    bound_ok = certificate.bound_holds and certificate.grid_bound <= 1.0 + 1e-12

    raw = integrate(scenario.field.ode_rhs, [1.0], 2.0)
    bracket_ok = (
        raw.status == "blow_up"
        and raw.blow_up_bracket is not None
        and 0.99 < raw.blow_up_bracket[0] < raw.blow_up_bracket[1] < 1.01
    )

    damped = integrate(certificate.rescaled.ode_rhs, [1.0], 100.0)
    complete_ok = (
        damped.status == "completed"
        and math.isfinite(float(damped.final_state[0]))
        and abs(float(damped.final_state[0])) < 10.0
    )

    criterion(
        8,
        "completeness regularizer",
        bound_ok and bracket_ok and complete_ok,
        f"bound {certificate.grid_bound:.6f}, raw status {raw.status}, "
        f"damped t={damped.final_time:g}",
    )


def test_criterion_09_variational_consistency(criterion, system2):
    s, _ = canonical_tangent_structure(system2.ctx)
    residual_form = lagrange_residual(system2.lagrangian, system2.field, s)
    points = system2.domain().sample(seed=3, n_random=300, grid_points=3)
    lag_gap = max_abs_on(residual_form.components, system2.ctx, points)

    symp_gap = 0.0
    for deformation in (
        fo.linear_deformation(2.0),
        fo.power_deformation(2.0),
        fo.kepler_matching_deformation(1.0),
    ):
        symp_gap = max(
            symp_gap, fo.symplectic_residual(system2, deformation, points)
        )

    criterion(
        9,
        "variational consistency",
        lag_gap < 1e-9 and symp_gap < 1e-9,
        f"variational {lag_gap:.2e}, symplectic {symp_gap:.2e}",
    )


def test_criterion_10_dependent_base_rejection(criterion):
    rejections = sc.rejection_scenarios()
    dims = sorted(s.ctx.dim for s in rejections)
    outcomes = []
    for scenario in rejections:
        try:
            sc.build_scenario(scenario)
            outcomes.append(f"{scenario.name}: built")
        except FunctionalDependenceError:
            outcomes.append(f"{scenario.name}: rejected")
        except SodelabError as exc:
            outcomes.append(f"{scenario.name}: wrong error {type(exc).__name__}")
    passed = dims == [2, 4] and all(o.endswith("rejected") for o in outcomes)
    criterion(
        10,
        "dependent-base rejection",
        passed,
        "; ".join(outcomes) + f"; ambient dims {dims}",
    )
