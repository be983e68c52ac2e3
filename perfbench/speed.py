"""The machine's speed, measured with a fixed calibration loop.

The benchmark may share a few vCPUs of a host with other tenants, and then
the speed of those vCPUs drifts, for every process alike: on a 2-vCPU VM the
same ``verify --scenario double-rotation-13`` took 0.74 s of CPU in one run
and 0.36 s in a run two minutes later.  That drift is no property of
sodelab, but it moves raw op times far more than the bounds in
``BENCHMARK.json`` allow.

So the run samples the machine's speed with short chunks of a fixed loop,
which never changes and calls no sodelab code: an interval timer interrupts
the process every ``INTERVAL_S`` seconds, and the signal handler runs one
chunk.  The samples fall evenly in time, inside ops as well as between them,
and their time is taken out of the op that they interrupted.  (A profiling
timer, which counts CPU time instead, is no use: while one is armed, Linux
6.18 was seen to advance the process CPU clock only at ticks.)  The speed
during an op is read from the samples taken within ``WINDOW_S`` wall seconds
of it, and

    factor = REFERENCE_CHUNK_S / (mean CPU time of those chunks)

scales the op's CPU time to what it would be at the reference speed.  A
change to sodelab moves the scaled times exactly as it moves the raw ones;
only the machine's drift is divided out.

The loop is a small explicit Runge-Kutta integration on 8-vectors with a
Python-level right-hand side, the same mix of interpreter and small-array
numpy work that sodelab's integrator does.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# CPU seconds of one chunk at the reference speed: about the median chunk
# time on a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4
REFERENCE_CHUNK_S = 2.0e-3
# seconds between samples, and the wall seconds around an op whose
# samples give the speed during it
INTERVAL_S = 0.05
WINDOW_S = 0.25
_STEPS = 100
# untimed steps first, so the timed ones find their code and data in cache
# whatever the interrupted op had been doing
_WARM_STEPS = 10
_H = 0.01
_A = np.eye(8) * 0.01 + np.diag(np.full(7, 0.002), 1)
_Y0 = np.linspace(0.1, 0.8, 8)


def _rhs(y: np.ndarray) -> np.ndarray:
    return _A @ y - 0.001 * y * y


def _chunk(steps: int) -> np.ndarray:
    y = _Y0
    for _ in range(steps):
        k1 = _rhs(y)
        k2 = _rhs(y + _H / 2 * k1)
        k3 = _rhs(y + _H / 2 * k2)
        k4 = _rhs(y + _H * k3)
        y = y + _H / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class SpeedProbe:
    """Speed samples: wall time at each chunk's middle, and its CPU seconds.

    ``spent_s`` and ``spent_wall_s`` are the CPU and wall time of all
    sampling so far, chunk and bookkeeping; a caller subtracts their growth
    from what it measured.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cpu: list[float] = []
        self.spent_s = 0.0
        self.spent_wall_s = 0.0

    def sample(self) -> None:
        enter = time.process_time()
        wall = time.perf_counter()
        _chunk(_WARM_STEPS)
        start = time.process_time()
        _chunk(_STEPS)
        self.cpu.append(time.process_time() - start)
        self.at.append(0.5 * (wall + time.perf_counter()))
        self.spent_s += time.process_time() - enter
        self.spent_wall_s += time.perf_counter() - wall

    def calibrate(self, cpu_s: float) -> None:
        """Sample back to back for at least ``cpu_s`` CPU seconds."""
        stop = self.spent_s + cpu_s
        self.sample()
        while self.spent_s < stop:
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def chunk_s(self) -> float:
        """Mean CPU seconds of a chunk over every sample."""
        return float(np.mean(self.cpu))

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Multiplier to the reference speed for CPU time spent in [start, end].

        Uses the samples within ``WINDOW_S`` of that wall-clock interval, or
        every sample when there is none there or no interval is given.
        """
        if start is not None:
            at = np.asarray(self.at)
            near = (at >= start - WINDOW_S) & (at <= end + WINDOW_S)
            if near.any():
                return REFERENCE_CHUNK_S / float(np.mean(np.asarray(self.cpu)[near]))
        return REFERENCE_CHUNK_S / self.chunk_s()
