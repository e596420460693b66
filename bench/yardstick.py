"""A fixed calibration task that measures how fast the host runs right now.

On a shared machine the speed available to one process drifts by tens of
per cent from one minute to the next, and the program's timings drift with
it.  While the untraced passes run, a timer interrupts the program about
once per ``INTERVAL_S`` and runs this task, which does not touch
``shpulse``.  The benchmark reports each end-to-end timing scaled to a host
that runs the task in ``REFERENCE_S`` seconds:

    normalized = measured * REFERENCE_S / mean(task times of the run)

The mean, not the median: a pass's time adds up the host's slowness over
the pass, and so does the mean of samples spread evenly over it.  The task
has the program's two kinds of work: an adaptive ODE solve whose
right-hand side is a small Python/numpy function of a cosine series (as in
the plane transport) and a dense nonsymmetric eigensolve (as in the
eigenvalue count).  Its inputs are fixed, so its cost depends on the host
alone, and a change to the program moves the normalized timings exactly as
it moves the measured ones.  Timings are read with ``clock()``, which
leaves out the time the task took.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_S = 0.12  # nominal task time; normalized timings are in these seconds
INTERVAL_S = 1.0  # program time between two runs of the task

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4))
_A = _A - _A.T
_K = 0.05 * np.arange(1, 201)  # a 200-mode cosine series, as a pulse's potential
_C = _rng.standard_normal(200) / np.arange(1, 201) ** 2
_M = _rng.standard_normal((250, 250))

# Wall time the task has taken in this process.  Module state on purpose:
# the timer interrupts whatever code runs, so every timing in the process
# must leave the task out, and they all read it through ``clock()``.
_spent = 0.0


def clock() -> float:
    """``time.perf_counter()`` without the time spent in the task."""
    return time.perf_counter() - _spent


def _task() -> None:
    def rhs(t, y):
        Y = y.reshape(4, 2)
        return (_A @ Y + (_C @ np.cos(_K * t)) * Y).ravel()

    solve_ivp(rhs, (0.0, 10.0), np.eye(4)[:, :2].ravel(), method="RK45",
              rtol=1e-10, atol=1e-10)
    np.linalg.eigvals(_M)


class Yardstick:
    """Runs the task on a timer and keeps its times."""

    def __init__(self) -> None:
        _task()  # first-call set-up, not timed
        self.samples: list[float] = []

    def _interrupt(self, signum, frame) -> None:
        global _spent
        start = time.perf_counter()
        _task()
        end = time.perf_counter()
        self.samples.append(end - start)
        _spent += end - start
        # one-shot timer, re-armed after the task: a slow task cannot pile up
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextmanager
    def running(self):
        """Run the task about once per ``INTERVAL_S`` inside the block."""
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:  # a block shorter than one interval
            self._interrupt(signal.SIGALRM, None)
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self) -> float:
        """Factor from this host's seconds to nominal seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
