"""Machine-speed probe, for times that do not swing with the host's speed.

The speed of the machine this benchmark was built on changes in phases: a
fixed loop takes up to 1.8 times as long in a slow phase, and a phase lasts
from seconds to minutes.  Wall time moves with it, and so does CPU time.
The phases differ between the two cores, so the probe has to run on the
core that runs the batch, inside the measured process.

While a batch runs, a timer signal runs a short fixed reference loop every
``INTERVAL_S`` and records how long it took.  The loop is interpreter
bytecode over a tuple of small integers: it allocates nothing and touches a
few kilobytes, and it runs once untimed before the timed run, so its time
does not depend on what the batch left in the caches or the allocator.  A
cold loop, or one with numpy calls, runs slower while the batch does
memory-heavy work (``probe_check.py`` measures this), and would cancel part
of a change in the code under test.

A stretch of wall time between two samples is scaled by ``NOMINAL_S /
duration`` of the sample that closes it, after a running median over
``SMOOTH_WINDOW`` samples takes out the noise of single samples.  The
result is the time the stretch would have taken on a machine where the
reference loop takes ``NOMINAL_S``: a *nominal* time.  The probe costs
about 1% of the batch, in raw and nominal time alike.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

NOMINAL_S = 100e-6  # one reference loop at nominal speed
INTERVAL_S = 0.02
SMOOTH_WINDOW = 9  # samples, about 0.2 s; phases last seconds or more
SETUP_SAMPLES = 15

_STEPS = tuple(range(200)) * 16  # small ints: the loop allocates nothing


def _steps() -> int:
    t = 0
    for k in _STEPS:
        t ^= k
    return t


def reference_loop() -> float:
    """Seconds one fixed run of the reference loop takes right now."""
    _steps()  # the untimed run brings the loop into the caches
    start = time.perf_counter()
    _steps()
    return time.perf_counter() - start


def nominal_factor() -> float:
    """Nominal seconds per wall second now, from a short burst of samples."""
    return NOMINAL_S / statistics.median(reference_loop() for _ in range(SETUP_SAMPLES))


class SpeedProbe:
    """Samples the reference loop on a timer while it is entered."""

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.durations: List[float] = []
        self.smoothed: List[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        took = reference_loop()
        self.ends.append(time.perf_counter())
        self.durations.append(took)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self.smooth()

    def smooth(self) -> None:
        """Running median of the sample durations, centred on each sample."""
        half = SMOOTH_WINDOW // 2
        d = self.durations
        self.smoothed = [statistics.median(d[max(0, i - half):i + half + 1])
                         for i in range(len(d))]

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds for the wall interval [start, end] (perf_counter)."""
        i = bisect.bisect_left(self.ends, start)
        total, t = 0.0, start
        while t < end:
            j = min(i, len(self.ends) - 1)
            stop = min(self.ends[i], end) if i < len(self.ends) else end
            total += (stop - t) * NOMINAL_S / self.smoothed[j]
            t, i = stop, i + 1
        return total
