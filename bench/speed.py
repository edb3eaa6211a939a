"""The host's speed, sampled while the measured work runs.

The benchmark's host is shared: the speed of the whole machine drifts by
a fifth and more over minutes, in stretches of seconds, and user time
equals wall time, so the process is not descheduled but runs slower.  A
sweep is a single sample of 15 to 25 s, so a run cannot average that
drift away.  A fixed pure-Python loop slows down with the host mostly
in the same way as the library does, and nothing in it depends on
topolab, so a change to the library moves it only through the caches
they share.

``Probe`` times that loop every ``INTERVAL_S`` of wall time, on a
SIGALRM, in the measuring process itself: the samples come from the same
core and the same seconds as the work.  ``Probe.clock`` is
``perf_counter`` less the probes' own time, so the probes add nothing to
a measured time.  ``scale`` turns a time into seconds on a host of
reference speed, one on which the loop takes ``REFERENCE_S`` (near its
time on 2 vCPUs of the Intel Xeon host of the baseline; only ratios
between runs matter).  Every reported time and rate is scaled; run.py
prints the raw wall times and the factors beside the metrics.

On that host, over ten seeds per workload, the sweep times spread by 9%
to 18% raw and by 2.5% to 6.5% scaled.  The mean of the loop times
tracks the work better than their median (5% against 7% on a test
sweep).  The loop is small and misses changes of speed that only the
workload's larger working set feels; README.md has the figures.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 350e-6
INTERVAL_S = 0.01


def loop() -> int:
    """The fixed work: integer bit operations and small-dict updates, the
    mix of topolab's inner loops."""
    d: dict[int, int] = {}
    s = 0
    for i in range(400):
        m = (i * 2654435761) & 1023
        s += bin(m).count("1")
        d[m] = d.get(m, 0) | i
    return s


def time_loop() -> float:
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def sample(count: int) -> float:
    """Mean time of ``count`` loops run back to back."""
    return statistics.fmean(time_loop() for _ in range(count))


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while one loop took ``probe_s``, on a host of
    reference speed."""
    return seconds * REFERENCE_S / probe_s


class Probe:
    """Loop times sampled on a timer while it runs (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        dt = time_loop()
        self.samples.append(dt)
        self.spent += dt

    def clock(self) -> float:
        """A monotonic clock that stands still while a probe runs."""
        return time.perf_counter() - self.spent

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
