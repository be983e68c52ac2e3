"""Adaptive explicit integration, dense output, and period detection.

The integrator is DOP853, the 8th-order Dormand-Prince pair of Hairer,
Norsett & Wanner (Solving ODEs I, II.5-II.6): 12 stages per attempt with the
last one reused as the next first (FSAL), the combined 5th/3rd-order error
estimate, and a step-size exponent of 1/8.  Each accepted step keeps what its
7th-order interpolant (3 extra stages) is built from, and the interpolant is
built on its first read only, as the reference code builds dense output on
request: by :meth:`Trajectory.sample` and :meth:`Trajectory.sample_many`, or
by period detection, which bisects the projection of just the steps where
its section is crossed.

The step itself is generated code, one kernel per state dimension, emitted
from the coefficient tables on the first integration of that dimension and
cached: one function takes a whole attempt (the 12 stages and the error
norm) and another the dense output of an accepted step, both in scalar
locals with the zero table entries left out.  Every sum runs in a fixed
order with no BLAS call inside a step, so a run's bits do not depend on the
CPU or its BLAS build.  Each stage calls a stage function ``(t, y1, ..., yn)
-> tuple``: for ``VectorField.ode_rhs`` (recognised by its type) the one
generated function of the field's entries, which its point calls also run
and which shares common subexpressions, and for any other ``f(t, y)`` a
small adapter that hands ``f`` the state as an array.
An :class:`~sodelab.errors.EvaluationDomainError` raised by the field, once
its checked scalar fallback has run, fails the whole attempt at any of its 12
stages, the FSAL one too: its error is infinite and the step is rejected.
One raised while an interpolant is built makes all of its coefficients NaN:
a sample at a node time still reads that node's exact state, and period
detection refuses a crossing step so built by name.

It only runs forward in time; backward flows are handled upstream by negating
the field.  Failures are reported, not raised, each with a time bracket and
the last finite sample kept: a state whose max norm passes ``_BLOW_UP_NORM``
or turns non-finite gives ``status == "blow_up"``, a step that rejections
shrank below its floor gives ``"step_underflow"``, and a spent step budget
``"step_limit"`` (``Trajectory.min_step`` then shows how small the steps
got).  Despite its name, ``Trajectory.blow_up_bracket`` holds the failure
bracket of both ``"blow_up"`` and ``"step_underflow"``.  An optional
``stop`` hook sees the nodes after each accepted step, with a callable that
builds the newest step's interpolant, and can end the run early (``status ==
"stopped"``); period detection uses it to stop at the first return.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationDomainError, NotPeriodicError
from .fields import FieldRhs

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
_MAX_STEPS = 200_000  # step attempts, accepted or rejected, in one run

# period detection: a section crossing is a return where it lies within
# _RETURN_TOLS run tolerances, atol + rtol * max|x0_i|, of the start.  That
# distance is the run's global error at the return: at most 1.8 tolerances
# after one lap for every start the library and the tests measure, 4.7 after
# the 100 laps of a 1 : 1.01 frequency pair.  The near miss of a 1 : 1 + delta
# pair started at (1, 1, 0, 0) crosses 4.4 delta from the start after its
# first lap, so it is refused for every delta above about 5e-9.
_RETURN_TOLS = 100.0


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _stage_function(f: Callable, dim: int) -> Callable[..., Sequence[float]]:
    """The function ``(t, y1, ..., yn) -> derivative`` the kernel calls for ``f``.

    ``VectorField.ode_rhs`` gives its field's generated function.  Any other
    ``f(t, y)`` is adapted: it gets the state as a fresh array, and its value
    must have shape ``(dim,)``.  The type decides, not an attribute, since a
    ``functools.wraps`` wrapper copies attributes and must still be called.
    """
    if type(f) is FieldRhs:
        return f.stage_fn

    def stage(t, *y):
        out = np.asarray(f(t, np.array(y)), dtype=float)
        if out.shape != (dim,):
            raise ValueError(f"field returned shape {out.shape}, expected ({dim},)")
        return out.tolist()

    return stage


def _derivative(stage: Callable, t: float, y: Sequence[float]) -> tuple:
    """``stage(t, *y)``, or NaN throughout where the field has a domain error."""
    try:
        return tuple(stage(t, *y))
    except EvaluationDomainError:
        return (math.nan,) * len(y)


def _terms(weights: np.ndarray, i: int) -> str:
    """``w0 * k0_i + w3 * k3_i + ...`` over the nonzero weights, in stage order."""
    return " + ".join(
        f"{w!r} * k{s}_{i}" for s, w in enumerate(weights.tolist()) if w != 0.0
    )


def _names(prefix: str, dim: int) -> str:
    """``prefix_0, ..., prefix_{dim-1},``: a tuple's items, or unpacking targets."""
    return "".join(f"{prefix}_{i}, " for i in range(dim))


def _stage_lines(rows: range, dim: int) -> list[str]:
    """Lines computing ``k{s}_i``, stage s of the field at t + C[s] h, for ``rows``."""
    return [
        f"{_names(f'k{s}', dim)}= f(t + {float(_C[s])!r} * h, "
        + "".join(f"y_{i} + h * ({_terms(_A[s, :s], i)}), " for i in range(dim))
        + ")"
        for s in rows
    ]


@functools.lru_cache(maxsize=None)
def _kernel(dim: int) -> tuple[Callable, Callable]:
    """The generated ``(attempt, dense)`` pair of DOP853 for states of ``dim`` floats.

    ``attempt(f, t, h, y, k0, atol, rtol)`` takes one step of size ``h`` from
    ``(t, y)`` with ``k0 = f(t, *y)``: its 12 stages, then the error norm.  It
    returns ``(err, y_new, k12, ks)`` with ``err = inf`` where the norm is not
    finite; ``k12`` is the derivative at ``y_new`` and ``ks`` the other
    stages the dense output reads.  ``dense(f, t, h, y, y_new, k12, ks)``
    adds the 3 dense-output stages of an accepted step and returns its 7
    interpolant coefficients as one flat tuple, row after row.  A domain
    error at any stage fails the whole call, as the generated field functions
    fail: ``attempt`` returns ``(inf, None, None, None)``, so the step is
    rejected, and ``dense`` returns 7 * ``dim`` NaN.  Every sum runs in
    stage order and skips zero table entries, so a step's bits depend
    neither on BLAS nor on the CPU.
    """
    rng = range(dim)
    kept = "".join(_names(f"k{s}", dim) for s in (0, *range(5, 12)))
    attempt = [
        f"{_names('y', dim)}= y",
        f"{_names('k0', dim)}= k0",
        *_stage_lines(range(1, 12), dim),
        *(f"yn_{i} = y_{i} + h * ({_terms(_A[12, :12], i)})" for i in rng),
        f"{_names('k12', dim)}= f(t + h, {_names('yn', dim)})",
        "n5 = n3 = 0.0",
    ]
    for i in rng:
        attempt += [
            f"a = abs(y_{i})",
            f"b = abs(yn_{i})",
            "scale = atol + rtol * (a if a > b else b)",  # nan in yn wins
            f"e = ({_terms(_E5, i)}) / scale",  # scale >= atol > 0, or nan
            "n5 += e * e",
            f"e = ({_terms(_E3, i)}) / scale",
            "n3 += e * e",
        ]
    attempt += [
        f"err = 0.0 if n5 == 0.0 else h * n5 / sqrt((n5 + 0.01 * n3) * {dim})",
        "if not (isfinite(err) and isfinite(n3)):",
        "    err = inf",
        f"return err, ({_names('yn', dim)}), ({_names('k12', dim)}), ({kept})",
    ]
    rows = [
        [f"d_{i}" for i in rng],
        [f"h * k0_{i} - d_{i}" for i in rng],
        [f"2.0 * d_{i} - h * (k12_{i} + k0_{i})" for i in rng],
        *([f"h * ({_terms(_D[r], i)})" for i in rng] for r in range(4)),
    ]
    dense = [
        f"{_names('y', dim)}= y",
        f"{_names('yn', dim)}= yn",
        f"{_names('k12', dim)}= k12",
        f"{kept}= ks",
        *_stage_lines(range(13, 16), dim),
        *(f"d_{i} = yn_{i} - y_{i}" for i in rng),
        f"return ({''.join(f'{c}, ' for row in rows for c in row)})",
    ]
    namespace = {
        "__builtins__": {},
        "EvaluationDomainError": EvaluationDomainError,
        "abs": abs,
        "inf": math.inf,
        "isfinite": math.isfinite,
        "nan": math.nan,
        "sqrt": math.sqrt,
    }
    # each body under one guard, the shape of a generated field function
    source = "".join(
        f"def {signature}:\n    try:\n" + "".join(f"        {line}\n" for line in body)
        + f"    except EvaluationDomainError:\n        return {failed}\n"
        for signature, body, failed in (
            ("attempt(f, t, h, y, k0, atol, rtol)", attempt, "inf, None, None, None"),
            ("dense(f, t, h, y, yn, k12, ks)", dense, f"(nan,) * {7 * dim}"),
        )
    )
    exec(compile(source, f"<dop853-kernel-{dim}>", "exec"), namespace)
    return namespace["attempt"], namespace["dense"]


@np.errstate(over="ignore")  # a subnormal atol overflows the scaled norms to inf
def _initial_step(
    stage, t0: float, y0: np.ndarray, f0: np.ndarray, t_end: float, rtol: float, atol: float
) -> float:
    span = t_end - t0
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 0.01 * d0 / d1 if 1e-5 <= min(d0, d1) and max(d0, d1) < math.inf else 1e-6
    h0 = min(h0, span)
    f1 = np.array(_derivative(stage, t0 + h0, (y0 + h0 * f0).tolist()))
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


def _interpolate(y_old, row, x):
    """The dense output y_old + x(F0 + (1-x)(F1 + x(F2 + ... (1-x)(F5 + x F6)))).

    Fk is ``row(k)``: of one step, a state row or, projected on a normal, a
    float, with ``x`` a float; or of many, a ``(times, dim)`` block gathered
    from the steps' coefficients when the sum reaches it, with ``x`` a column
    of fractions.  The sum runs in place on the first product, so a read of
    many makes no temporary besides the gathered blocks.  All take the same
    operations in the same order, so their values agree bit for bit.
    :meth:`Trajectory.sample_many` reads a node time as the node's state
    instead, exact even where the interpolant of the step there is NaN.
    """
    u = 1.0 - x
    acc = row(6) * x
    for k, w in ((5, u), (4, x), (3, u), (2, x), (1, u), (0, x)):
        acc += row(k)
        acc *= w
    acc += y_old
    return acc


def _interpolant(steps: list, j: int) -> tuple:
    """Step ``j``'s 7 interpolant rows as one flat tuple, row after row.

    ``steps[j]`` holds the step's builder, the dense kernel bound to its
    stage record, until the first read; that read calls it (3 RHS calls) and
    keeps the coefficients in its place.
    """
    step = steps[j]
    if callable(step):
        step = steps[j] = step()
    return step


@dataclass
class Trajectory:
    """Accepted integration nodes; each step's interpolant is built on first read."""

    times: np.ndarray
    states: np.ndarray
    status: str  # "completed" | "stopped" | "blow_up" | "step_underflow" | "step_limit"
    accepted: int
    rejected: int
    # the failure bracket of "blow_up" and of "step_underflow" alike; the name
    # predates the split and is kept for readers of integrate.json
    blow_up_bracket: tuple[float, float] | None = None
    min_step: float = math.inf  # the smallest accepted step
    # RHS evaluations of the run before any interpolant: the initial value,
    # the initial-step probe and 12 per attempted step
    _step_fev: int = 0
    # per accepted step, its interpolant's builder until the first read, then
    # the interpolant (see _interpolant)
    _steps: list = field(default_factory=list, repr=False, compare=False)

    @property
    def nfev(self) -> int:
        """RHS evaluations so far: the run's, plus 3 per interpolant built.

        It grows when a read builds an interpolant, during the run (the
        ``stop`` hook) or after it.
        """
        built = sum(not callable(step) for step in self._steps)
        return self._step_fev + 3 * built

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

        A node time reads that node's state exactly, and a time up to 1e-12
        outside the covered range the end state on that side; further out,
        or nan, raises ValueError.  Every other time reads the interpolant of
        the step it falls in, which is built on that first read.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        times, states = self.times, self.states
        outside = ~((ts >= times[0] - 1e-12) & (ts <= times[-1] + 1e-12))
        if np.any(outside):
            raise ValueError(
                f"t = {ts[outside][0]} outside the covered range "
                f"[{times[0]}, {times[-1]}]"
            )
        i = np.searchsorted(times, ts, side="right") - 1
        np.clip(i, 0, len(times) - 1, out=i)
        node = (ts <= times[0]) | (ts >= times[-1]) | (ts == times.take(i))
        out = states.take(i, axis=0)
        inner = np.flatnonzero(~node)
        t, i = ts.take(inner), i.take(inner)
        start = times.take(i)
        x = (t - start) / (times.take(i + 1) - start)
        # build each step the times fall in once, in one pass
        read, row = np.unique(i, return_inverse=True)
        table = np.array([_interpolant(self._steps, j) for j in read.tolist()])
        coeffs = table.reshape(len(read), 7, states.shape[1]).transpose(1, 0, 2)
        out[inner] = _interpolate(
            states.take(i, axis=0), lambda k: coeffs[k].take(row, axis=0), x[:, None]
        )
        return out


# CSV numbers.  A cell is written as C's "%.17g" writes it, and a vectorised
# kernel renders each block of about _CSV_BLOCK cells.  It scales |v| by one
# exact power of ten, 10^(16 - x) for the decimal exponent x, into a
# longdouble s, whose integer nearest is the 17-digit significand d.  One
# rounding moves s by at most eps/2 of itself, so a fraction of s further than
# eps * d from 1/2 settles d (10^p is exact in a longdouble for p <= 27, so
# 1e-11 <= |v| < 1e17 is laid out); a cell nearer a tie, outside that range or
# not finite is left blank and written by "%.17g" % v alone.  Where the
# longdouble is only a double, eps sends every nonzero cell there.  The digits
# are laid out in a 48-byte cell:
#   slot 0       the separator, "," or "\n" (set by the caller)
#   slots 1-3    "-" for a negative v, then "0." ahead of a fixed-notation
#                number below 1
#   slots 4-23   0 0 0 d0 d1 .. d16: the integer digits, or for a number below
#                1 its leading zeros and all its digits
#   slot 27      "."
#   slots 28-43  d1 .. d16: the fraction digits
#   slots 44-47  "e-XX", or "e+17" after a carry
# and a per-layout mask keeps the slots that %g shows: fixed notation for
# -4 <= x < 17, else the exponent form; trailing zeros and a bare point
# dropped.  The zero bytes left are squeezed out.  The kernel keeps to the
# numpy loops the rest of the program runs (int64 and double arithmetic,
# comparisons, take) besides the longdouble ones: each loop run for the first
# time pages in code of its own.
_CSV_BLOCK = 4096
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
_CSV_POW10 = np.cumprod(np.r_[np.longdouble(1), np.full(27, np.longdouble(10))])  # exact
# 10^x as doubles for x = -11 .. 17, to place |v| between two of them
_CSV_P10 = np.r_[1.0 / _CSV_POW10[11:0:-1].astype(np.float64), _CSV_POW10[:18].astype(np.float64)]
# the exponent words "e-11" .. "e-05" and "e+17"; -4 <= x <= 16 is written without
_CSV_EXP = np.frombuffer(b"e-11e-10e-09e-08e-07e-06e-05" + b"\xff" * 84 + b"e+17", np.uint32)


def _csv_groups() -> tuple[np.ndarray, np.ndarray]:
    """Per 4-digit group 0000 .. 9999: its characters as one uint32, and per
    place g = 0 .. 3 (d1-d4, d5-d8, d9-d12, d13-d16) the significant digits
    of d through its last nonzero digit (1, d0 alone, for a zero group)."""
    chars = np.frombuffer(b"0123456789", np.uint8)
    quad = np.empty((10, 10, 10, 10, 4), np.uint8)
    quad[..., 0] = chars[:, None, None, None]
    quad[..., 1] = chars[:, None, None]
    quad[..., 2] = chars[:, None]
    quad[..., 3] = chars
    place = 1 + 4 * np.arange(4).reshape(4, 1, 1, 1, 1)
    sig = np.ones((4, 10, 10, 10, 10), np.uint8)  # later digits overwrite earlier ones
    sig[:, 1:] = place + 1
    sig[:, :, 1:] = place + 2
    sig[:, :, :, 1:] = place + 3
    sig[:, :, :, :, 1:] = place + 4
    return quad.view(np.uint32).ravel(), sig.reshape(4, -1)


_CSV_QUAD, _CSV_SIG = _csv_groups()


def _csv_layouts() -> np.ndarray:
    """Masks of the 48-byte cell, per (sign, class, significant digits k):
    class x + 4 for fixed notation (-4 <= x <= 16), 21 for the exponent form.

    A mask byte is the character its slot always shows, 0xFF where the cell
    shows its own byte (a digit or the exponent), or 0 where the slot is left
    out; the cell is the bytewise minimum of the two.
    """
    sign = np.arange(2)[:, None, None, None]
    x = np.arange(-4, 18)[:, None, None]  # 17 stands for the exponent form
    k = np.arange(1, 18)[:, None]
    slot = np.arange(48)
    e_form = x == 17
    below_one = x < 0
    last_int = np.where(e_form | below_one, 0, x)  # the digit before the point
    i = slot - 7  # the digit in slots 4-23 (-3 .. -1: leading zeros)
    j = slot - 27  # the digit in slots 28-43
    shown = np.zeros((2, len(x), 17, 48), bool)
    shown |= (slot == 1) & (sign == 1)
    shown |= ((slot == 2) | (slot == 3)) & below_one
    digits = np.where(below_one, (i > x) & (i < k), (i >= 0) & (i <= last_int))
    shown |= (slot >= 4) & (slot < 24) & digits
    shown |= (slot == 27) & ~below_one & (k > last_int + 1)
    shown |= (j >= 1) & (j <= 16) & ~below_one & (j > last_int) & (j < k)
    shown |= (slot >= 44) & e_form
    char = np.full(48, 0xFF, np.uint8)
    char[1:4] = np.frombuffer(b"-0.", np.uint8)
    char[27] = ord(".")
    return np.where(shown, char, np.uint8(0)).reshape(-1, 48)


_CSV_LAYOUT = _csv_layouts()
_CSV_CLASS = np.r_[np.full(7, 21), np.arange(21), 21] * 17  # per x = -11 .. 17


def _csv_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 48-byte cells of the floats ``v``, and the indices of blank ones.

    A blank cell holds a 1 after its separator slot and nothing else.
    """
    a = np.abs(v)  # clears the sign bit only, so even a signalling NaN raises nothing
    bits = a.view(np.int64)
    e = (bits >> 52) - 1023  # a normal |v| is in [2^e, 2^(e+1)); 1024 if not finite
    x = (e * 78913) >> 18  # floor(e log10 2): x, or one below it
    x += a >= _CSV_P10.take(x + 12, mode="clip")
    laid = (x >= -11) & (x <= 16) & (e < 1024)
    x = np.where(laid, x, 0)
    s = np.where(laid, a, 0.0).astype(np.longdouble) * _CSV_POW10[16 - x]
    t = s.astype(np.int64)
    f = (s - t).astype(np.float64)
    d = t + (f > 0.5)
    # t >= 10^16 also proves x: s below 10^16 may belong to x - 1
    ok = (np.abs(f - 0.5) > d * _LONGDOUBLE_EPS) & (
        ((t >= 10**16) & (d <= 10**17)) | (bits == 0)
    )
    carry = d == 10**17
    d[carry] = 10**16
    x[carry] += 1
    # floor division by a power of ten, as a double product (exact below 2^53)
    high = (d * 1e-8).astype(np.int64)
    low = d - high * 10**8
    high += low >= 10**8
    high -= low < 0
    low = d - high * 10**8
    d0 = (high * 1e-8).astype(np.int64)
    mid = high - d0 * 10**8
    g1, g3 = (mid * 1e-4).astype(np.int64), (low * 1e-4).astype(np.int64)
    groups = (g1, mid - g1 * 10**4, g3, low - g3 * 10**4)
    k = np.max([_CSV_SIG[g][group] for g, group in enumerate(groups)], axis=0)
    xo = x + 11
    content = np.empty((len(v), 12), np.uint32)
    content[:, 0] = content[:, 6] = 0xFFFF_FFFF
    content[:, 1] = _CSV_QUAD[d0]
    for g, group in enumerate(groups):
        content[:, 2 + g] = content[:, 7 + g] = _CSV_QUAD[group]
    content[:, 11] = _CSV_EXP[xo]
    lid = (v.view(np.int64) < 0) * (22 * 17) + _CSV_CLASS[xo] + k - 1
    cells = _CSV_LAYOUT.take(lid, axis=0)
    np.minimum(cells, content.view(np.uint8), out=cells)
    blank = np.flatnonzero(~ok)
    cells[blank] = 0
    cells[blank, 1] = 1
    return cells, blank


def _csv_rows(columns: list, r0: int, r1: int) -> bytes:
    """Rows r0 .. r1 - 1 of ``columns`` as CSV bytes, each row after a newline."""
    width = len(columns)
    values = np.empty((r1 - r0, width))
    for i, col in enumerate(columns):
        values[:, i] = np.nan if isinstance(col, list) else col[r0:r1]  # text: blank
    flat = values.ravel()
    cells, blank = _csv_cells(flat)
    cells[:, 0] = ord(",")
    cells[::width, 0] = ord("\n")
    rows, cols = np.unravel_index(blank, (r1 - r0, width))
    fills = [
        columns[c][r0 + r].encode() if isinstance(columns[c], list) else b"%.17g" % v
        for r, c, v in zip(rows.tolist(), cols.tolist(), flat[blank].tolist())
    ]
    parts = cells[cells > 0].tobytes().split(b"\x01")
    text = [b""] * (2 * len(parts) - 1)
    text[::2] = parts
    text[1::2] = fills
    return b"".join(text)


def write_csv(path, header: Sequence[str], columns) -> None:
    """Write ``header``, then one line per row of ``columns``.

    A column is a sequence of ``str``, written as they are, or of numbers (a
    float array, or anything ``np.asarray`` makes one).  Every number is
    written as C's ``%.17g`` writes it: 17 significant digits with trailing
    zeros and a bare point dropped, ``inf``, ``-inf`` or ``nan`` where it is
    not finite, so each float reads back exactly.  A vectorised kernel
    renders the numbers in blocks and passes each cell it cannot round with
    certainty to ``"%.17g" % v``, CPython's dtoa, one cell at a time.  The
    columns must share one length.
    """
    cols = [
        list(c) if len(c) and isinstance(c[0], str) else np.asarray(c, dtype=float)
        for c in columns
    ]
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValueError(f"columns of lengths {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    step = max(1, _CSV_BLOCK // max(1, len(cols)))
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode())
        for r0 in range(0, rows, step):
            fh.write(_csv_rows(cols, r0, min(r0 + step, rows)))
        fh.write(b"\n")


def integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0,
    t_end: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    stop: Callable[[list, list, Callable[[], tuple]], bool] | None = None,
) -> Trajectory:
    """Integrate dy/dt = f(t, y) from t = 0 forward to t_end.

    ``stop(times, states, interpolant)``, if given, is called after each
    accepted step with the node lists so far (states as tuples of floats;
    read them, do not change them) and a callable of no arguments.  That
    callable returns the new step's dense-output coefficients as one flat
    tuple of 7 rows of ``dim``.  It builds them on its first call, at the
    cost of 3 RHS calls, and the returned ``Trajectory`` reuses them; a hook
    that never calls it leaves the step unbuilt until a sample reads it.
    The hook ends the run with status ``"stopped"`` when it returns true.
    A run that has not reached ``t_end`` after ``_MAX_STEPS`` (200,000) step
    attempts, accepted or rejected, ends with status ``"step_limit"``.  A
    ``t_end``, ``rtol`` or ``atol`` that is not finite and positive raises
    ValueError.
    """
    y_arr = np.array(y0, dtype=float)
    dim = y_arr.shape[0]
    if not (0.0 < t_end < math.inf and 0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError("t_end, rtol and atol must be finite and positive")
    if not (np.all(np.isfinite(y_arr)) and np.max(np.abs(y_arr)) <= _BLOW_UP_NORM):
        raise ValueError("initial state is not finite within the blow-up threshold")

    stage = _stage_function(f, dim)
    attempt, dense_step = _kernel(dim)
    t = 0.0
    y = tuple(y_arr.tolist())
    k0 = _derivative(stage, t, y)
    if not all(map(math.isfinite, k0)):
        raise ValueError("field is not finite at the initial state")

    times = [t]
    states = [y]
    steps: list = []  # per accepted step, as Trajectory._steps holds them
    accepted = 0
    rejected = 0
    status = "step_limit"
    bracket: tuple[float, float] | None = None
    min_step = math.inf

    h = _initial_step(stage, t, y_arr, np.array(k0), t_end, rtol, atol)
    nfev = 2
    h_floor = 1e-14 * max(1.0, abs(t_end))
    retry = False  # the last attempt was rejected: do not grow the step

    for _ in range(_MAX_STEPS):
        if t >= t_end:
            status = "completed"
            break
        # the floor applies to a step the controller shrank after a rejection,
        # not to a small first guess or to a step that only reaches t_end
        if retry and h < h_floor and h < t_end - t:
            status = "step_underflow"
            bracket = (t, t + h)
            break
        h = min(h, t_end - t)

        nfev += 12
        err, y_new, k_new, ks = attempt(stage, t, h, y, k0, atol, rtol)
        if err <= 1.0:
            t_new = t + h
            if not all(-_BLOW_UP_NORM <= v <= _BLOW_UP_NORM for v in y_new):
                status = "blow_up"
                bracket = (t, t_new)
                break
            # the step's own h: times[i + 1] - times[i] may differ from it
            # in the last bit
            steps.append(functools.partial(dense_step, stage, t, h, y, y_new, k_new, ks))
            k0 = k_new
            t = t_new
            y = y_new
            times.append(t)
            states.append(y)
            accepted += 1
            min_step = min(min_step, h)
            if stop is not None and stop(
                times, states, functools.partial(_interpolant, steps, accepted - 1)
            ):
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
        status=status,
        accepted=accepted,
        rejected=rejected,
        blow_up_bracket=bracket,
        min_step=min_step,
        _step_fev=nfev,
        _steps=steps,
    )


@dataclass
class PeriodEstimate:
    """A detected period, its return residual, and the run up to that return."""

    period: float
    residual: float
    trajectory: Trajectory = field(repr=False, compare=False)  # not in to_json

    def to_json(self) -> dict:
        return {"period": self.period, "return_residual": self.residual}


def estimate_period(
    f: Callable[[float, np.ndarray], np.ndarray],
    x0,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_max: float = 1000.0,
) -> PeriodEstimate:
    """Detect the period of the orbit through ``x0`` as the time of its first return.

    The return section is the hyperplane through ``x0`` normal to the initial
    velocity.  One integration up to ``t_max`` tests the section value
    g = (y - x0) . n, a plain float per node, for a negative-to-positive
    change; only such a step's interpolant is built and projected on the
    normal, and the crossing is bisected on that polynomial in plain floats.
    The crossing at t* is a return, and ends the run, where |x(t*) - x0| is
    at most ``_RETURN_TOLS`` (100) times ``atol + rtol * s``, s = max |x0_i|;
    the run takes ``atol`` down to ``rtol * s`` where that is smaller (a
    start where it underflows to 0 raises ValueError), so its accuracy and
    the test scale with the orbit.  A start is an equilibrium only where the
    field is exactly zero.  A crossing step whose projected interpolant or
    state at t* is not finite (a domain error while its interpolant was
    built) ends the run with NotPeriodicError naming the step's time bracket.
    """
    x0 = np.asarray(x0, dtype=float)
    f0 = np.array(_derivative(_stage_function(f, len(x0)), 0.0, x0.tolist()))
    speed = math.hypot(*f0.tolist())  # scaled by its largest entry: no underflow
    if speed == 0.0:
        raise NotPeriodicError("the starting point is an equilibrium")
    normal = f0 / speed
    pairs = tuple(zip(x0.tolist(), normal.tolist()))
    scale = float(np.max(np.abs(x0), initial=0.0))
    if scale > 0.0:
        if 0.0 < rtol and rtol * scale == 0.0:
            raise ValueError(f"the start's scale {scale!r} underflows rtol * scale to 0")
        atol = min(atol, rtol * scale)
    bound = _RETURN_TOLS * (atol + rtol * scale)

    found: tuple[float, float] | None = None  # the return's time and residual
    g_new = 0.0  # x0 lies on the section

    def first_return(times: list, states: list, interpolant: Callable) -> bool:
        nonlocal g_new, found
        g_old = g_new
        g_new = sum((y - c) * n for y, (c, n) in zip(states[-1], pairs))
        if not g_old < 0.0 <= g_new:
            return False
        a, b = t0, t1 = times[-2], times[-1]
        coeffs = np.reshape(interpolant(), (7, -1))
        projected = (coeffs @ normal).tolist()
        for _ in range(80):
            mid = 0.5 * (a + b)
            if _interpolate(g_old, projected.__getitem__, (mid - t0) / (t1 - t0)) < 0.0:
                a = mid
            else:
                b = mid
            if b - a < 1e-15 * max(1.0, abs(b)):
                break
        t_star = 0.5 * (a + b)
        state = _interpolate(
            np.array(states[-2]), coeffs.__getitem__, (t_star - t0) / (t1 - t0)
        )
        residual = math.hypot(*(state - x0).tolist())
        if not (math.isfinite(residual) and all(map(math.isfinite, projected))):
            # refusing it would report a later lap as the period
            raise NotPeriodicError(
                f"the interpolant of the crossing step [{t0}, {t1}] is not finite"
            )
        if residual > bound:
            return False  # crosses the section away from the start
        found = (t_star, residual)
        return True

    traj = integrate(f, x0, t_max, rtol=rtol, atol=atol, stop=first_return)
    if found is not None:
        return PeriodEstimate(*found, traj)
    if traj.status != "completed":
        raise NotPeriodicError(
            f"integration stopped with status '{traj.status}' at t = {traj.final_time}"
        )
    raise NotPeriodicError(f"no return to the start within t = {t_max}")


def conserved_drift(quantity: Callable[[np.ndarray], float], traj: Trajectory) -> float:
    """Largest absolute drift of ``quantity`` along the accepted nodes."""
    reference = float(quantity(traj.states[0]))
    worst = 0.0
    for row in traj.states:
        worst = max(worst, abs(float(quantity(row)) - reference))
    return worst
