"""Adaptive explicit integration, dense output, and period detection.

The integrator is DOP853, the 8th-order Dormand-Prince pair of Hairer,
Norsett & Wanner (Solving ODEs I, II.5-II.6): 12 stages per attempt with the
last one reused as the next first (FSAL), the combined 5th/3rd-order error
estimate, and a step-size exponent of 1/8.  Each accepted step stores its own
7th-order interpolant (3 extra stages), which serves :meth:`Trajectory.sample`,
:meth:`Trajectory.sample_many` and the crossing search of period detection.
It only runs forward in time; backward flows are handled upstream by negating
the field.  Failures are reported, not raised, each with a time bracket and
the last finite sample kept: a state whose max norm passes ``_BLOW_UP_NORM``
or turns non-finite gives ``status == "blow_up"``, a step shrunk below its
floor gives ``"step_underflow"``, and a spent step budget ``"step_limit"``
(``Trajectory.min_step`` then shows how small the steps got).  Despite its
name, ``Trajectory.blow_up_bracket`` holds the failure bracket of both
``"blow_up"`` and ``"step_underflow"``.  An optional
``stop`` hook sees the nodes after each accepted step and can end the run
early (``status == "stopped"``); period detection uses it to stop at the
second return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6).  Stage s is
# f(t + C[s] h, y + h A[s, :s] @ K[:s]); row 12 is the 8th-order solution and its
# stage the derivative there (FSAL); rows 13-15 are the extra dense-output stages.
_C = np.array(
    [
        0.0,
        0.526001519587677318785587544488e-01,
        0.789002279381515978178381316732e-01,
        0.118350341907227396726757197510,
        0.281649658092772603273242802490,
        0.333333333333333333333333333333,
        0.25,
        0.307692307692307692307692307692,
        0.651282051282051282051282051282,
        0.6,
        0.857142857142857142857142857142,
        1.0,
        1.0,
        0.1,
        0.2,
        0.777777777777777777777777777778,
    ]
)
_A = np.zeros((16, 16))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, :2] = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
_A[3, [0, 2]] = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
_A[4, [0, 2, 3]] = (
    2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
)
_A[5, [0, 3, 4]] = (
    3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
)
_A[6, [0, 3, 4, 5]] = (
    3.7109375e-2,
    1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2,
    -1.7578125e-2,
)
_A[7, [0, 3, 4, 5, 6]] = (
    3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
)
_A[8, [0, 3, 4, 5, 6, 7]] = (
    6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1,
)
_A[9, [0, 3, 4, 5, 6, 7, 8]] = (
    4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
)
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (
    -9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209,
    1.09143734899672957818500254654,
    -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1,
    2.49360555267965238987089396762,
    -3.0467644718982195003823669022,
)
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
)
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = (
    5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = (
    5.61675022830479523392909219681e-2,
    2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3,
    -8.298e-3,
)
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = (
    3.18346481635021405060768473261e-2,
    2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1,
)
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = (
    -4.28896301583791923408573538692e-1,
    -4.69762141536116384314449447206,
    7.68342119606259904184240953878,
    4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1,
    -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149,
    -9.15095847217987001081870187138,
)
# stage rows without their zero upper triangle, sliced once
_ROWS = tuple(_A[s, :s] for s in range(16))
# error weights on stages 0-11: E5 against the 5th-order solution, E3 against
# the 3rd-order one; they combine as err5^2 / sqrt(err5^2 + 0.01 err3^2)
_E3 = _A[12, :12].copy()
_E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
# the last four dense-output coefficients are h * _D @ K over all 16 stages
_D = np.zeros((4, 16))
_D[:, [0, *range(5, 16)]] = (
    (
        -0.84289382761090128651353491142e1,
        0.56671495351937776962531783590,
        -0.30689499459498916912797304727e1,
        0.23846676565120698287728149680e1,
        0.21170345824450282767155149946e1,
        -0.87139158377797299206789907490,
        0.22404374302607882758541771650e1,
        0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1,
        0.18148505520854727256656404962e2,
        -0.91946323924783554000451984436e1,
        -0.44360363875948939664310572000e1,
    ),
    (
        0.10427508642579134603413151009e2,
        0.24228349177525818288430175319e3,
        0.16520045171727028198505394887e3,
        -0.37454675472269020279518312152e3,
        -0.22113666853125306036270938578e2,
        0.77334326684722638389603898808e1,
        -0.30674084731089398182061213626e2,
        -0.93321305264302278729567221706e1,
        0.15697238121770843886131091075e2,
        -0.31139403219565177677282850411e2,
        -0.93529243588444783865713862664e1,
        0.35816841486394083752465898540e2,
    ),
    (
        0.19985053242002433820987653617e2,
        -0.38703730874935176555105901742e3,
        -0.18917813819516756882830838328e3,
        0.52780815920542364900561016686e3,
        -0.11573902539959630126141871134e2,
        0.68812326946963000169666922661e1,
        -0.10006050966910838403183860980e1,
        0.77771377980534432092869265740,
        -0.27782057523535084065932004339e1,
        -0.60196695231264120758267380846e2,
        0.84320405506677161018159903784e2,
        0.11992291136182789328035130030e2,
    ),
    (
        -0.25693933462703749003312586129e2,
        -0.15418974869023643374053993627e3,
        -0.23152937917604549567536039109e3,
        0.35763911791061412378285349910e3,
        0.93405324183624310003907691704e2,
        -0.37458323136451633156875139351e2,
        0.10409964950896230045147246184e3,
        0.29840293426660503123344363579e2,
        -0.43533456590011143754432175058e2,
        0.96324553959188282948394950600e2,
        -0.39177261675615439165231486172e2,
        -0.14972683625798562581422125276e3,
    ),
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# the step-size exponent: the error estimate is of order 7, so err ~ h^8
_EXPONENT = -1.0 / 8.0
_BLOW_UP_NORM = 1e8

# period detection: a section crossing counts as a return within _RETURN_TOL
# of the start, and the second return must fall at twice the first to a
# relative _CONSISTENCY_TOL
_RETURN_TOL = 1e-4
_CONSISTENCY_TOL = 5e-3


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
        h1 = (0.01 / dm) ** -_EXPONENT
    return min(100.0 * h0, h1, span)


def _interpolate(y_old, dense: np.ndarray, i, x):
    """The dense output y_old + x(F0 + (1-x)(F1 + x(F2 + ... (1-x)(F5 + x F6)))).

    F0..F6 are ``dense[i]``: of one step, with ``i`` an index and ``x`` a
    scalar, or of many, with ``i`` an index array and ``x`` a column of
    fractions.  Both take the same operations in the same order, so rows
    agree bit for bit.
    """
    u = 1.0 - x
    acc = dense[i, 6] * x
    for k, w in ((5, u), (4, x), (3, u), (2, x), (1, u), (0, x)):
        acc = (dense[i, k] + acc) * w
    return y_old + acc


@dataclass
class Trajectory:
    """Accepted integration nodes plus each step's dense-output coefficients."""

    times: np.ndarray
    states: np.ndarray
    dense: np.ndarray  # (steps, 7, dim): the interpolant of each accepted step
    status: str  # "completed" | "stopped" | "blow_up" | "step_underflow" | "step_limit"
    accepted: int
    rejected: int
    # the failure bracket of "blow_up" and of "step_underflow" alike; the name
    # predates the split and is kept for readers of integrate.json
    blow_up_bracket: tuple[float, float] | None = None
    # RHS evaluations: the initial value, the initial-step probe, 12 per
    # attempted step and 3 more per accepted step for its dense output
    nfev: int = 0
    min_step: float = math.inf  # the smallest accepted step

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, t: float) -> np.ndarray:
        """Dense-output value at time ``t`` within the covered range."""
        return self.sample_many([t])[0]

    def sample_many(self, ts: Sequence[float]) -> np.ndarray:
        """Dense-output values at each of ``ts``, one row per time.

        A time up to 1e-12 outside the covered range gives the end state on
        that side; further out, or nan, raises ValueError.
        """
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
        x = (t - times[i]) / (times[i + 1] - times[i])
        out[inner] = _interpolate(self.states[i], self.dense, i, x[:, None])
        return out


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
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 200_000,
    stop: Callable[[list, list, list], bool] | None = None,
) -> Trajectory:
    """Integrate dy/dt = f(t, y) from t = 0 forward to t_end.

    ``stop(times, states, dense)``, if given, is called after each accepted
    step with the node lists and the per-step dense-output coefficients so
    far (the new step last; read them, do not change them) and ends the run
    with status ``"stopped"`` when it returns true.
    """
    y = np.array(y0, dtype=float)
    dim = y.shape[0]
    if not t_end > 0.0:
        raise ValueError("integration runs forward: t_end must be positive")
    if not (np.all(np.isfinite(y)) and np.max(np.abs(y)) <= _BLOW_UP_NORM):
        raise ValueError("initial state is not finite within the blow-up threshold")

    rhs = lambda t, state: _safe_rhs(f, t, state, dim)
    t = 0.0
    k = np.empty((16, dim))  # the stages; row 0 is the derivative at (t, y)
    k[0] = rhs(t, y)
    if not np.all(np.isfinite(k[0])):
        raise ValueError("field is not finite at the initial state")

    times = [t]
    states = [y]
    dense: list[np.ndarray] = []
    accepted = 0
    rejected = 0
    status = "step_limit"
    bracket: tuple[float, float] | None = None
    min_step = math.inf

    h = _initial_step(rhs, t, y, k[0], t_end, rtol, atol)
    nfev = 2
    h_floor = 1e-14 * max(1.0, abs(t_end))
    retry = False  # the last attempt was rejected: do not grow the step

    for _ in range(max_steps):
        if t >= t_end:
            status = "completed"
            break
        # the floor applies to a step the controller shrank, not to one that
        # only reaches t_end
        if h < h_floor and h < t_end - t:
            status = "step_underflow"
            bracket = (t, t + h)
            break
        h = min(h, t_end - t)

        nfev += 12
        for s in range(1, 13):
            y_stage = y + h * (_ROWS[s] @ k[:s])
            k[s] = rhs(t + _C[s] * h, y_stage)
        y_new = y_stage  # stage 12 sits at (t + h, y_new)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        with np.errstate(invalid="ignore", over="ignore"):
            err5 = (_E5 @ k[:12]) / scale
            err3 = (_E3 @ k[:12]) / scale
            n5 = float(err5 @ err5)
            n3 = float(err3 @ err3)
        err = 0.0 if n5 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * dim)
        if not (math.isfinite(err) and math.isfinite(n3)):
            err = math.inf

        if err <= 1.0:
            t_new = t + h
            if not (np.all(np.isfinite(y_new)) and np.max(np.abs(y_new)) <= _BLOW_UP_NORM):
                status = "blow_up"
                bracket = (t, t_new)
                break
            nfev += 3
            for s in range(13, 16):
                k[s] = rhs(t + _C[s] * h, y + h * (_ROWS[s] @ k[:s]))
            coeffs = np.empty((7, dim))
            coeffs[0] = y_new - y
            coeffs[1] = h * k[0] - coeffs[0]
            coeffs[2] = 2.0 * coeffs[0] - h * (k[12] + k[0])
            coeffs[3:] = h * (_D @ k)
            k[0] = k[12]
            t = t_new
            y = y_new
            times.append(t)
            states.append(y)
            dense.append(coeffs)
            accepted += 1
            min_step = min(min_step, h)
            if stop is not None and stop(times, states, dense):
                status = "stopped"
                break
            factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**_EXPONENT
            h *= min(1.0 if retry else _MAX_FACTOR, factor)
            retry = False
        else:
            rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)  # inf ** -1/8 is 0
            retry = True

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        dense=np.array(dense).reshape(-1, 7, dim),
        status=status,
        accepted=accepted,
        rejected=rejected,
        blow_up_bracket=bracket,
        nfev=nfev,
        min_step=min_step,
    )


@dataclass
class PeriodEstimate:
    """A detected period, its return accuracy, and the run up to the second return."""

    period: float
    residual: float
    second_return: float
    trajectory: Trajectory = field(repr=False, compare=False)  # not in to_json

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "return_residual": self.residual,
            "second_return": self.second_return,
        }


def _refine_crossing(
    times: list, states: list, dense: list, x0: np.ndarray, normal: np.ndarray
) -> tuple[float, np.ndarray]:
    """Bisect the section crossing inside the last step; return it and the state there.

    The step's own interpolant is read as :meth:`Trajectory.sample` reads it.
    """
    t0, t1 = times[-2], times[-1]
    y_old, coeffs = states[-2], dense[-1][None]

    def at(t: float) -> np.ndarray:
        return _interpolate(y_old, coeffs, 0, (t - t0) / (t1 - t0))

    a, b = t0, t1
    for _ in range(80):
        mid = 0.5 * (a + b)
        if float((at(mid) - x0) @ normal) < 0.0:
            a = mid
        else:
            b = mid
        if b - a < 1e-15 * max(1.0, abs(b)):
            break
    t_star = 0.5 * (a + b)
    return t_star, at(t_star)


def estimate_period(
    f: Callable[[float, np.ndarray], np.ndarray],
    x0,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_max: float = 1000.0,
) -> PeriodEstimate:
    """Detect the period of the orbit through ``x0``.

    The return section is the hyperplane through ``x0`` normal to the initial
    velocity.  One integration up to ``t_max`` tests each accepted step for a
    negative-to-positive crossing, refines it by bisection on that step's
    dense-output interpolant, and accepts it as a return only within
    ``_RETURN_TOL`` (1e-4) of the start; the run stops at the second return.
    That return must lie at twice the first (to a relative
    ``_CONSISTENCY_TOL``, 5e-3) before a period is reported.
    """
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(f(0.0, x0), dtype=float)
    speed = float(np.linalg.norm(f0))
    if speed < 1e-12:
        raise NotPeriodicError("the starting point is an equilibrium")
    normal = f0 / speed

    returns: list[tuple[float, float]] = []

    def second_return(times: list, states: list, dense: list) -> bool:
        g_old = float((states[-2] - x0) @ normal)
        g_new = float((states[-1] - x0) @ normal)
        if not g_old < 0.0 <= g_new:
            return False
        t_star, state = _refine_crossing(times, states, dense, x0, normal)
        residual = float(np.linalg.norm(state - x0))
        if residual > _RETURN_TOL:
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
    (first, residual), (second, _) = returns
    if abs(second / 2.0 - first) > _CONSISTENCY_TOL * first:
        raise NotPeriodicError(
            f"returns at t = {first:.6g} and t = {second:.6g} do not agree on a period"
        )
    return PeriodEstimate(first, residual, second, traj)


def conserved_drift(quantity: Callable[[np.ndarray], float], traj: Trajectory) -> float:
    """Largest absolute drift of ``quantity`` along the accepted nodes."""
    reference = float(quantity(traj.states[0]))
    worst = 0.0
    for row in traj.states:
        worst = max(worst, abs(float(quantity(row)) - reference))
    return worst
