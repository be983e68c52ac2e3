"""Motion extraction and frequency-true matching across systems.

A motion here is one periodic orbit together with its measured clock: the
initial state, the period and its run, and the frequency observables that
label it.  Kepler shells and deformed oscillator levels both reduce to such
records, and a matching pairs the two families off by measured frequency.
The grid builder chooses oscillator levels so the Kepler-matching profile
reproduces each shell frequency exactly; matching by raw energy labels is
kept as an alternative mode, and fails loudly when the clocks disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import kepler as kp
from .dynamics import Trajectory, estimate_period, write_csv
from .errors import CardinalityMismatchError, FrequencyMismatchError
from .fields import VectorField
from .foscillator import Deformation, OscillatorSystem, deformed_field, shell_state

__all__ = [
    "MotionRecord",
    "MatchedPair",
    "MotionMatching",
    "extract_kepler_motions",
    "extract_oscillator_motions",
    "matched_oscillator_grid",
    "match_motions",
    "record_curve",
    "figure_rows",
    "write_figure_csv",
]


@dataclass(frozen=True, eq=False)
class MotionRecord:
    """One periodic orbit with its measured period, period run and frequency labels."""

    label: str
    kind: str  # "kepler" | "oscillator"
    parameter: float  # shell energy or oscillator level
    state: np.ndarray
    n: int  # base dimension: |Q| uses state[:n], |V| the rest
    period: float
    trajectory: Trajectory  # covers [0, T]; the figure curves sample it
    observables: dict[str, float] = dataclass_field(default_factory=dict)

    @property
    def frequency(self) -> float:
        return self.observables["measured"]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "parameter": self.parameter,
            "period": self.period,
            "observables": dict(sorted(self.observables.items())),
        }


def _measure(
    field: VectorField, state: np.ndarray, labels: dict[str, float], **record
) -> MotionRecord:
    """The record of the orbit of ``field`` through ``state`` and its period run.

    The measured frequency 2 pi / period joins ``labels`` as the observable
    ``"measured"``; ``record`` holds the other :class:`MotionRecord` fields.
    """
    run = estimate_period(field.ode_rhs, state)
    observables = {"measured": float(2.0 * np.pi / run.period), **labels}
    return MotionRecord(state=state, period=run.period, trajectory=run.trajectory,
                        observables=observables, **record)


def extract_kepler_motions(
    energies,
    params: kp.KeplerParams = kp.KeplerParams(),
    *,
    radius_scale: float = 0.8,
) -> tuple[MotionRecord, ...]:
    """Measure one chart-side shell orbit per negative energy.

    ``radius_scale`` < 1 starts inside the equipartition radius, so the
    curves genuinely oscillate; the measured frequency is radius-independent
    on the shell.
    """
    if not 0 < radius_scale < 1.4142135623730951:
        raise ValueError("radius_scale must sit in (0, sqrt(2))")
    field = kp.chart_field(params)
    records = []
    for e in map(float, energies):
        radius = radius_scale * np.sqrt(params.g / (2.0 * abs(e)))
        labels = {
            "shell": kp.shell_frequency(e),
            "mean_motion": kp.mean_motion(e, params),
            "half_mean_motion": kp.half_mean_motion(e, params),
        }
        records.append(
            _measure(field, kp.shell_state(e, float(radius), params), labels,
                     label=f"kepler-E{e:g}", kind="kepler", parameter=e, n=4)
        )
    return tuple(records)


def extract_oscillator_motions(
    system: OscillatorSystem,
    deformation: Deformation,
    levels,
) -> tuple[MotionRecord, ...]:
    """Measure one deformed-oscillator orbit per energy level."""
    gamma = deformed_field(system, deformation)
    return tuple(
        _measure(gamma, shell_state(system, c), {"assigned": deformation.slope_at(c)},
                 label=f"osc-{deformation.name}-c{c:g}", kind="oscillator",
                 parameter=c, n=system.n)
        for c in map(float, levels)
    )


def matched_oscillator_grid(
    energies, g: float = 1.0, mode: str = "frequency"
) -> tuple[float, ...]:
    """Oscillator levels for a Kepler energy grid.

    ``frequency`` mode solves slope(level) = shell frequency for the
    Kepler-matching profile, giving level = (g^2 |E|)^(1/3), so measured
    clocks agree.  ``energy`` mode copies |E| directly; the labels then
    match but the clocks generally do not.
    """
    if g <= 0:
        raise ValueError("coupling g must be positive")
    if mode not in ("frequency", "energy"):
        raise ValueError(f"unknown grid mode {mode!r}")
    levels = []
    for e in energies:
        depth = -float(e)
        if depth <= 0:
            raise ValueError(f"energy {e} is not negative")
        levels.append(float((g * g * depth) ** (1.0 / 3.0)) if mode == "frequency" else depth)
    return tuple(levels)


@dataclass(frozen=True, eq=False)
class MatchedPair:
    record_a: MotionRecord
    record_b: MotionRecord
    rel_mismatch: float

    def to_json(self) -> dict:
        return {
            "label_A": self.record_a.label,
            "label_B": self.record_b.label,
            "omega_A": self.record_a.frequency,
            "omega_B": self.record_b.frequency,
            "rel_mismatch": self.rel_mismatch,
        }


@dataclass(frozen=True, eq=False)
class MotionMatching:
    pairs: tuple[MatchedPair, ...]
    tolerance: float

    def to_json(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "pairs": [p.to_json() for p in self.pairs],
        }


def match_motions(records_a, records_b, *, tol: float) -> MotionMatching:
    """Pair two motion families bijectively by measured frequency.

    Both families are sorted by frequency and paired in order; a cardinality
    gap or a pair whose relative frequency mismatch exceeds ``tol`` raises.
    """
    a = list(records_a)
    b = list(records_b)
    if len(a) != len(b):
        raise CardinalityMismatchError(
            f"cannot match {len(a)} motions against {len(b)}"
        )
    a.sort(key=lambda r: r.frequency)
    b.sort(key=lambda r: r.frequency)
    pairs = [
        MatchedPair(ra, rb, float(abs(ra.frequency - rb.frequency)
                                  / max(ra.frequency, rb.frequency)))
        for ra, rb in zip(a, b)
    ]
    worst = max(pairs, key=lambda p: p.rel_mismatch, default=None)  # the first on ties
    if worst is not None and worst.rel_mismatch > tol:
        raise FrequencyMismatchError(
            f"pair {worst.record_a.label} ~ {worst.record_b.label} "
            f"misses by {worst.rel_mismatch:.3e} (tol {tol:g})"
        )
    return MotionMatching(tuple(pairs), tol)


def record_curve(record: MotionRecord, samples_per_period: int):
    """Sample one period of a motion uniformly from its period run.

    Returns (times, states, closure): closure is the gap |x(T) - x(0)| in
    the max norm, x(T) read from the run's dense output: the periodicity
    certificate for the emitted curve.  ``samples_per_period`` is 0 (no
    rows, closure still measured) or at least 2: one sample would be a
    curve of only its start point, so 1 raises ``ValueError``.
    """
    if samples_per_period != 0 and samples_per_period < 2:
        raise ValueError(f"samples_per_period must be 0 or >= 2, not {samples_per_period}")
    times = np.linspace(0.0, record.period, samples_per_period)
    # one dense read: the curve's rows, then x(T) for the closure
    rows = record.trajectory.sample_many(np.append(times, record.period))
    closure = float(np.max(np.abs(rows[-1] - record.state)))
    return times, rows[:-1], closure


def figure_rows(records, samples_per_period: int):
    """Columns t, |Q|, |V|, label over every record, plus closure residuals."""
    t, base, fiber, labels, closures = [], [], [], [], {}
    for rec in records:
        times, states, closures[rec.label] = record_curve(rec, samples_per_period)
        t.append(times)
        base.append(np.linalg.norm(states[:, : rec.n], axis=1))
        fiber.append(np.linalg.norm(states[:, rec.n :], axis=1))
        labels += [rec.label] * len(times)
    numbers = [np.concatenate([np.empty(0), *col]) for col in (t, base, fiber)]
    return [*numbers, labels], closures


def write_figure_csv(path, records, samples_per_period: int) -> dict:
    """One flat CSV with columns t, absQ, absV, label; returns closures."""
    columns, closures = figure_rows(records, samples_per_period)
    write_csv(path, ["t", "absQ", "absV", "label"], columns)
    return closures

