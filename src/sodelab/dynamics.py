"""Adaptive explicit integration, dense output, and period detection.

The integrator is the Dormand-Prince embedded 5(4) pair with FSAL, a PI
step-size controller, and cubic Hermite interpolation between accepted steps.
It only runs forward in time; backward flows are handled upstream by negating
the field.  Finite-time escape is reported, not raised: a trajectory whose
norm passes the blow-up threshold (or whose step size underflows) comes back
with ``status == "blow_up"`` and a time bracket around the failure, keeping
the last finite sample.  An optional ``stop`` hook sees the nodes after each
accepted step and can end the run early (``status == "stopped"``); period
detection uses it to stop at the second return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationDomainError, NotPeriodicError

__all__ = [
    "Trajectory",
    "integrate",
    "PeriodEstimate",
    "estimate_period",
    "conserved_drift",
    "write_csv",
]

# Dormand-Prince 5(4) tableau; row 7 equals the 5th-order weights (FSAL)
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_B = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0])
# difference between the 5th- and 4th-order weights
_E = np.array(
    [
        71.0 / 57600.0,
        0.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for a 5th-order advancing method
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _safe_rhs(f: Callable, t: float, y: np.ndarray, dim: int) -> np.ndarray:
    try:
        out = np.asarray(f(t, y), dtype=float)
    except EvaluationDomainError:
        return np.full(dim, np.nan)
    if out.shape != (dim,):
        raise ValueError(f"field returned shape {out.shape}, expected ({dim},)")
    return out


def _initial_step(
    rhs, t0: float, y0: np.ndarray, f0: np.ndarray, t_end: float, rtol: float, atol: float
) -> float:
    span = t_end - t0
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    if np.all(np.isfinite(f1)):
        d2 = _rms((f1 - f0) / scale) / h0
    else:
        d2 = math.inf
    dm = max(d1, d2)
    if not math.isfinite(dm):
        h1 = h0 * 1e-3
    elif dm <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / dm) ** 0.2
    return min(100.0 * h0, h1, span)


@dataclass
class Trajectory:
    """Accepted integration nodes plus derivatives for dense evaluation."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    status: str  # "completed" | "stopped" | "blow_up" | "step_limit"
    accepted: int
    rejected: int
    blow_up_bracket: tuple[float, float] | None = None
    # RHS evaluations: the initial value, the initial-step probe, 6 per attempted step
    nfev: int = 0

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, t: float) -> np.ndarray:
        """Cubic Hermite value at time ``t`` within the covered range."""
        times = self.times
        if not times[0] - 1e-12 <= t <= times[-1] + 1e-12:  # nan included
            raise ValueError(
                f"t = {t} outside the covered range [{times[0]}, {times[-1]}]"
            )
        if t >= times[-1]:
            return self.states[-1].copy()
        if t <= times[0]:
            return self.states[0].copy()
        i = int(np.searchsorted(times, t, side="right")) - 1
        h = times[i + 1] - times[i]
        theta = (t - times[i]) / h
        t2 = theta * theta
        t3 = t2 * theta
        h00 = 2 * t3 - 3 * t2 + 1
        h10 = t3 - 2 * t2 + theta
        h01 = -2 * t3 + 3 * t2
        h11 = t3 - t2
        return (
            h00 * self.states[i]
            + h10 * h * self.derivs[i]
            + h01 * self.states[i + 1]
            + h11 * h * self.derivs[i + 1]
        )

    def sample_many(self, ts: Sequence[float]) -> np.ndarray:
        """:meth:`sample` at each of ``ts``, row by row, with the same bits."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        times = self.times
        outside = ~((ts >= times[0] - 1e-12) & (ts <= times[-1] + 1e-12))
        if np.any(outside):
            raise ValueError(
                f"t = {ts[outside][0]} outside the covered range "
                f"[{times[0]}, {times[-1]}]"
            )
        out = np.empty((len(ts), self.states.shape[1]))
        last = ts >= times[-1]
        first = ~last & (ts <= times[0])
        inner = ~(last | first)
        out[last] = self.states[-1]
        out[first] = self.states[0]
        t = ts[inner]
        i = np.searchsorted(times, t, side="right") - 1
        h = times[i + 1] - times[i]
        theta = (t - times[i]) / h
        t2 = theta * theta
        t3 = t2 * theta
        # the weights of :meth:`sample`, one column per row, in its order
        h00 = (2 * t3 - 3 * t2 + 1)[:, None]
        h10 = (t3 - 2 * t2 + theta)[:, None]
        h01 = (-2 * t3 + 3 * t2)[:, None]
        h11 = (t3 - t2)[:, None]
        h = h[:, None]
        out[inner] = (
            h00 * self.states[i]
            + h10 * h * self.derivs[i]
            + h01 * self.states[i + 1]
            + h11 * h * self.derivs[i + 1]
        )
        return out

    def write_csv(self, path, names: Sequence[str] | None = None) -> None:
        dim = self.states.shape[1]
        if names is None:
            names = [f"x{k + 1}" for k in range(dim)]
        if len(names) != dim:
            raise ValueError(f"need {dim} column names, got {len(names)}")
        write_csv(path, ["t", *names], np.column_stack([self.times, self.states]))


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header``, then one line per row (an array or a sequence of rows).

    Floats carry 17 significant digits, so they read back exactly; string
    cells such as labels are written as they are.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else f"{c:.17g}" for c in row]
            fh.write(",".join(cells) + "\n")


def integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0,
    t_end: float,
    *,
    t0: float = 0.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 200_000,
    blow_up_norm: float = 1e8,
    stop: Callable[[list, list, list], bool] | None = None,
) -> Trajectory:
    """Integrate dy/dt = f(t, y) from t0 forward to t_end.

    ``stop(times, states, derivs)``, if given, is called after each accepted
    step with the node lists so far (the new node last; read them, do not
    change them) and ends the run with status ``"stopped"`` when it returns
    true.
    """
    y = np.array(y0, dtype=float)
    dim = y.shape[0]
    if not t_end > t0:
        raise ValueError("integration runs forward: t_end must exceed t0")
    if not (np.all(np.isfinite(y)) and np.max(np.abs(y)) <= blow_up_norm):
        raise ValueError("initial state is not finite within the blow-up threshold")

    rhs = lambda t, state: _safe_rhs(f, t, state, dim)
    t = float(t0)
    f_now = rhs(t, y)
    if not np.all(np.isfinite(f_now)):
        raise ValueError("field is not finite at the initial state")

    times = [t]
    states = [y.copy()]
    derivs = [f_now.copy()]
    accepted = 0
    rejected = 0
    status = "step_limit"
    bracket: tuple[float, float] | None = None

    h = _initial_step(rhs, t, y, f_now, t_end, rtol, atol)
    nfev = 2
    h_floor = 1e-14 * max(1.0, abs(t_end))
    err_prev = 1.0
    k = np.empty((7, dim))

    for _ in range(max_steps):
        if t >= t_end:
            status = "completed"
            break
        if h < h_floor:
            status = "blow_up"
            bracket = (t, t + h)
            break
        h = min(h, t_end - t)

        nfev += 6
        k[0] = f_now
        for stage in range(1, 7):
            coeffs = _A[stage]
            increment = coeffs[0] * k[0]
            for j in range(1, stage):
                increment = increment + coeffs[j] * k[j]
            k[stage] = rhs(t + _C[stage] * h, y + h * increment)
        y_new = y + h * (_B @ k)
        err_vec = h * (_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(invalid="ignore", over="ignore"):
            err = _rms(err_vec / scale)
        if not math.isfinite(err):
            err = math.inf

        if err <= 1.0:
            t_new = t + h
            if not (np.all(np.isfinite(y_new)) and np.max(np.abs(y_new)) <= blow_up_norm):
                status = "blow_up"
                bracket = (t, t_new)
                break
            t = t_new
            y = y_new
            f_now = k[6].copy()  # FSAL: stage 7 sits at (t + h, y_new)
            times.append(t)
            states.append(y.copy())
            derivs.append(f_now.copy())
            accepted += 1
            if stop is not None and stop(times, states, derivs):
                status = "stopped"
                break
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-10)
            h *= factor
        else:
            rejected += 1
            if err == math.inf:
                factor = _MIN_FACTOR
            else:
                factor = max(_MIN_FACTOR, min(1.0, _SAFETY * err ** (-0.2)))
            h *= factor

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        derivs=np.array(derivs),
        status=status,
        accepted=accepted,
        rejected=rejected,
        blow_up_bracket=bracket,
        nfev=nfev,
    )


@dataclass
class PeriodEstimate:
    """A detected orbital period with its return accuracy."""

    period: float
    residual: float
    second_return: float

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "return_residual": self.residual,
            "second_return": self.second_return,
        }


def _refine_crossing(step: Trajectory, x0: np.ndarray, normal: np.ndarray) -> float:
    """Bisect the section crossing inside the one step ``step`` covers."""
    a = float(step.times[0])
    b = float(step.times[1])
    for _ in range(80):
        mid = 0.5 * (a + b)
        if float((step.sample(mid) - x0) @ normal) < 0.0:
            a = mid
        else:
            b = mid
        if b - a < 1e-15 * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


def estimate_period(
    f: Callable[[float, np.ndarray], np.ndarray],
    x0,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_max: float = 1000.0,
    ball_radius: float | None = None,
    return_tol: float = 1e-4,
    consistency_tol: float = 5e-3,
) -> PeriodEstimate:
    """Detect the period of the orbit through ``x0``.

    The return section is the hyperplane through ``x0`` normal to the initial
    velocity.  One integration up to ``t_max`` tests each accepted step for a
    negative-to-positive crossing, refines it by bisection on that step's
    cubic Hermite interpolant, and accepts it as a return only inside a ball
    around ``x0`` and within ``return_tol`` of the start; the run stops at the
    second return.  That return must lie at twice the first (to
    ``consistency_tol``) before a period is reported.
    """
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(f(0.0, x0), dtype=float)
    speed = float(np.linalg.norm(f0))
    if speed < 1e-12:
        raise NotPeriodicError("the starting point is an equilibrium")
    normal = f0 / speed
    if ball_radius is None:
        ball_radius = 0.25 * (1.0 + float(np.linalg.norm(x0)))

    returns: list[tuple[float, float]] = []

    def second_return(times: list, states: list, derivs: list) -> bool:
        g_old = float((states[-2] - x0) @ normal)
        g_new = float((states[-1] - x0) @ normal)
        if not g_old < 0.0 <= g_new:
            return False
        step = Trajectory(
            times=np.array(times[-2:]),
            states=np.array(states[-2:]),
            derivs=np.array(derivs[-2:]),
            status="completed",
            accepted=1,
            rejected=0,
        )
        t_star = _refine_crossing(step, x0, normal)
        residual = float(np.linalg.norm(step.sample(t_star) - x0))
        if residual > ball_radius or residual > return_tol:
            return False  # crosses the section away from the start
        if returns and t_star <= returns[-1][0] + 1e-9:
            return False
        returns.append((t_star, residual))
        return len(returns) == 2

    traj = integrate(f, x0, t_max, rtol=rtol, atol=atol, stop=second_return)
    if traj.status not in ("completed", "stopped"):
        raise NotPeriodicError(
            f"integration stopped with status '{traj.status}' at t = {traj.final_time}"
        )
    if not returns:
        raise NotPeriodicError(f"no return to the start within t = {t_max}")
    if len(returns) < 2:
        raise NotPeriodicError(
            "found a single return but no second pass to confirm the period"
        )
    first, residual = returns[0]
    second, _ = returns[1]
    if abs(second / 2.0 - first) > consistency_tol * first:
        raise NotPeriodicError(
            f"returns at t = {first:.6g} and t = {second:.6g} do not agree on a period"
        )
    return PeriodEstimate(period=first, residual=residual, second_return=second)


def conserved_drift(quantity: Callable[[np.ndarray], float], traj: Trajectory) -> float:
    """Largest absolute drift of ``quantity`` along the accepted nodes."""
    reference = float(quantity(traj.states[0]))
    worst = 0.0
    for row in traj.states:
        worst = max(worst, abs(float(quantity(row)) - reference))
    return worst
