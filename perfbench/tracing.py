"""Per-layer tracing of sodelab from outside the program.

The tracer wraps public functions of the ``sodelab`` modules inside the
benchmark's own process; nothing under ``src/`` is edited.  A function
imported into several modules (``from .dynamics import integrate``) is
replaced under every name it is bound to, so calls are seen wherever they
come from.

Two kinds of boundary are recorded:

* spans -- name, start, end, parent span and op id, kept in memory and
  written out once the run ends.  A span's self time is its duration minus
  the time covered by its child spans and by the counters below it;
* counters -- the hottest boundaries (the RHS call, ``Trajectory.sample``,
  ``PointMap.jacobian_at``, compiled batch calls, box sampling) add a call
  count and summed time instead of one span per call.

A call made while a span of the same name is open records no span of its
own (recursion, or one function of a layer calling another), so a layer's
time is never counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Span stack, finished spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.active = False
        self.op_id: int | None = None
        # finished spans: (name, start, end, self_s, parent index, op id)
        self.spans: list[tuple] = []
        # open frames: [span index, name, start, child time, parent index]
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)  # reserved so children can name their parent
        frame = [index, name, _clock(), 0.0, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        self._stack.pop()
        index, name, start, child, parent = frame
        duration = end - start
        self.spans[index] = (name, start, end, duration - child, parent, self.op_id)
        if self._stack:
            self._stack[-1][3] += duration

    def parent_name(self) -> str | None:
        return self._stack[-2][1] if len(self._stack) >= 2 else None

    def span(self, name: str, fn, *, on_result=None):
        """Wrap ``fn`` so each outermost call while tracing records a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._open[name]:
                return fn(*args, **kwargs)
            tracer._open[name] += 1
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result)
                return result
            finally:
                tracer._exit(frame)
                tracer._open[name] -= 1

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span named ``bench.op``."""
        self.op_id = op_id
        frame = self._enter("bench.op")
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            self.op_id = None

    # ---------------------------------------------------------- counters

    def add(self, name: str, seconds: float) -> None:
        """Count one call of a counter boundary; its time is the open span's child time."""
        counts = self.counts
        counts[name + ".n"] += 1
        counts[name + ".s"] += seconds
        if self._stack:
            top = self._stack[-1]
            top[3] += seconds
            if name == "fields.rhs" and top[1] == "dynamics.integrate":
                counts["dynamics.integrate.fev"] += 1

    def counted(self, name: str, fn, *, size=None):
        """Wrap ``fn`` as a counter: call count, summed time, optional size."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.add(name, _clock() - start)
            if size is not None:
                tracer.counts[name + ".points"] += size(args, result)
            return result

        return wrapper

    # --------------------------------------------------------- patching

    def replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, fn, wrapper) -> None:
        """Rebind every ``sodelab.*`` module attribute that is ``fn``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "sodelab" or mod_name.startswith("sodelab.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------ report

    def span_totals(self) -> dict[str, dict[str, float]]:
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"n": 0, "s": 0.0, "self_s": 0.0}
        )
        for name, start, end, self_s, _parent, _op in self.spans:
            entry = totals[name]
            entry["n"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
        return totals

    def write(self, path, header: dict) -> None:
        """One JSON line of run metadata, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "counters": dict(self.counts)}) + "\n")
            for name, start, end, self_s, parent, op in self.spans:
                fh.write(
                    json.dumps([name, start, end, self_s, parent, op]) + "\n"
                )


# ---------------------------------------------------------------- layers

# (span name, module, the public functions it wraps)
_SPANS = (
    ("expr.compile", "sodelab.expr", ("compile_scalar",)),
    ("expr.differentiate", "sodelab.expr", ("differentiate",)),
    ("bundle.build", "sodelab.bundle", ("build",)),
    ("bundle.sode_residual", "sodelab.bundle", ("structure_sode_residual",)),
    ("geometry.verify", "sodelab.geometry", ("verify_tangent_structure",)),
    (
        "geometry.lie",
        "sodelab.geometry",
        ("lie_scalar", "lie_bracket", "lie_oneform", "lie_tensor11"),
    ),
    (
        "conformal.certify",
        "sodelab.conformal",
        (
            "rescale",
            "oneform_rescaling_residual",
            "bracket_rescaling_residual",
            "shared_constants_residual",
            "regularize_complete",
        ),
    ),
    (
        "kepler.fields",
        "sodelab.kepler",
        (
            "unfolded_field",
            "rescaled_field",
            "chart_field",
            "kepler3d_field",
            "shell_field",
            "energy",
            "chart_energy",
            "conformal_factor",
            "lagrangian",
        ),
    ),
    (
        "foscillator.fields",
        "sodelab.foscillator",
        ("make_oscillator", "deformed_field", "deformed_hamiltonian"),
    ),
    (
        "motions.extract",
        "sodelab.motions",
        ("extract_kepler_motions", "extract_oscillator_motions"),
    ),
    ("motions.figure", "sodelab.motions", ("write_figure_csv",)),
    (
        "scenarios.lookup",
        "sodelab.scenarios",
        ("get_sode_scenario", "get_conformal_scenario"),
    ),
    ("cli.main", "sodelab.cli", ("main",)),
)


def _on_integrate(tracer: Tracer, traj) -> None:
    counts = tracer.counts
    counts["dynamics.steps.accepted"] += traj.accepted
    counts["dynamics.steps.rejected"] += traj.rejected
    if traj.status != "completed":
        counts["dynamics.status.not_completed"] += 1
    if tracer.parent_name() == "dynamics.period":
        counts["dynamics.period.t_integrated"] += float(traj.times[-1] - traj.times[0])


def _on_period(tracer: Tracer, estimate) -> None:
    tracer.counts["dynamics.period.useful_t"] += 2.0 * estimate.period


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported ``sodelab`` modules."""
    import sodelab.bundle as bundle
    import sodelab.cli  # noqa: F401  (its imports are rebound below)
    import sodelab.dynamics as dynamics
    import sodelab.fields as fields

    for name, module, functions in _SPANS:
        mod = sys.modules[module]
        for fn_name in functions:
            fn = getattr(mod, fn_name)
            tracer.replace_everywhere(fn, tracer.span(name, fn))

    tracer.replace_everywhere(
        dynamics.integrate,
        tracer.span("dynamics.integrate", dynamics.integrate, on_result=_on_integrate),
    )
    tracer.replace_everywhere(
        dynamics.estimate_period,
        tracer.span("dynamics.period", dynamics.estimate_period, on_result=_on_period),
    )

    vectorized_scalar = fields.vectorized_scalar

    def traced_vectorized(e, ctx):
        return tracer.counted(
            "fields.batch",
            vectorized_scalar(e, ctx),
            size=lambda args, result: len(args[0]),
        )

    tracer.replace_everywhere(
        vectorized_scalar,
        tracer.span("fields.vectorize", functools.wraps(vectorized_scalar)(traced_vectorized)),
    )

    # methods: the hot ones are counters, the chart inverse is a span
    tracer.replace(
        dynamics.Trajectory, "sample",
        tracer.counted("dynamics.sample", dynamics.Trajectory.sample),
    )
    tracer.replace(
        fields.PointMap, "jacobian_at",
        tracer.counted("fields.jacobian_at", fields.PointMap.jacobian_at),
    )
    tracer.replace(
        fields.Box, "sample",
        tracer.counted("fields.box", fields.Box.sample,
                       size=lambda args, result: len(result)),
    )
    tracer.replace(
        bundle.TangentStructure, "inverse",
        tracer.span("bundle.inverse", bundle.TangentStructure.inverse),
    )

    # VectorField.ode_rhs is a cached property returning the RHS callable;
    # the replacement wraps each callable it hands out as a counter
    original = fields.VectorField.__dict__["ode_rhs"]

    def ode_rhs(self):
        return tracer.counted("fields.rhs", original.func(self))

    prop = functools.cached_property(ode_rhs)
    prop.__set_name__(fields.VectorField, "ode_rhs")
    tracer.replace(fields.VectorField, "ode_rhs", prop)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, by name, from spans and counters."""
    spans = tracer.span_totals()
    c = tracer.counts

    def sp(name, key):
        return float(spans[name][key]) if name in spans else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    rhs_n = c["fields.rhs.n"]
    integrate_self = sp("dynamics.integrate", "self_s")
    return {
        "expr.compile.n": sp("expr.compile", "n"),
        "expr.compile.s": sp("expr.compile", "s"),
        "expr.differentiate.s": sp("expr.differentiate", "s"),
        "fields.vectorize.n": sp("fields.vectorize", "n"),
        "fields.vectorize.s": sp("fields.vectorize", "s"),
        "fields.batch.points": c["fields.batch.points"],
        "fields.batch.s": c["fields.batch.s"],
        "fields.rhs.n": rhs_n,
        "fields.rhs.s": c["fields.rhs.s"],
        "fields.rhs.us_per_call": ratio(c["fields.rhs.s"], rhs_n, 1e6),
        "fields.jacobian_at.n": c["fields.jacobian_at.n"],
        "fields.jacobian_at.s": c["fields.jacobian_at.s"],
        "fields.box.points": c["fields.box.points"],
        "dynamics.integrate.n": sp("dynamics.integrate", "n"),
        "dynamics.integrate.self_s": integrate_self,
        "dynamics.integrate.self_us_per_fev": ratio(
            integrate_self, c["dynamics.integrate.fev"], 1e6
        ),
        "dynamics.steps.accepted": c["dynamics.steps.accepted"],
        "dynamics.steps.rejected": c["dynamics.steps.rejected"],
        "dynamics.status.not_completed": c["dynamics.status.not_completed"],
        "dynamics.period.n": sp("dynamics.period", "n"),
        "dynamics.period.s": sp("dynamics.period", "s"),
        "dynamics.period.t_integrated": c["dynamics.period.t_integrated"],
        "dynamics.period.useful_ratio": ratio(
            c["dynamics.period.useful_t"], c["dynamics.period.t_integrated"]
        ),
        "dynamics.sample.n": c["dynamics.sample.n"],
        "dynamics.sample.s": c["dynamics.sample.s"],
        "bundle.build.n": sp("bundle.build", "n"),
        "bundle.build.self_s": sp("bundle.build", "self_s"),
        "bundle.inverse.n": sp("bundle.inverse", "n"),
        "bundle.inverse.s": sp("bundle.inverse", "s"),
        "bundle.sode_residual.s": sp("bundle.sode_residual", "s"),
        "geometry.verify.n": sp("geometry.verify", "n"),
        "geometry.verify.self_s": sp("geometry.verify", "self_s"),
        "geometry.lie.s": sp("geometry.lie", "s"),
        "conformal.certify.n": sp("conformal.certify", "n"),
        "conformal.certify.s": sp("conformal.certify", "s"),
        "kepler.fields.s": sp("kepler.fields", "s"),
        "foscillator.fields.s": sp("foscillator.fields", "s"),
        "motions.extract.s": sp("motions.extract", "s"),
        "motions.figure.s": sp("motions.figure", "s"),
        "scenarios.lookup.n": sp("scenarios.lookup", "n"),
        "scenarios.lookup.s": sp("scenarios.lookup", "s"),
        "cli.main.self_s": sp("cli.main", "self_s"),
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("us_per_call", "us_per_fev")):
        return "us"
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("t_integrated"):
        return "model_time"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
