"""Host-speed calibration: wall times rescaled to one fixed host speed.

The shared host this benchmark runs on changes speed in spells from under
a second to minutes long: the same request, or the same pure-Python loop,
takes up to about 1.8 times as long in a slow spell, and one 30 s run can
fall anywhere from wholly fast to wholly slow.  The run-to-run spread that
causes is larger than any bound worth setting, and it is the host's, not
the program's.

So the timed loop also times a small fixed piece of stdlib ``fractions``
arithmetic (the kind of work that dominates divfilt's profile, but none of
divfilt's code) about every :data:`EVERY_S` seconds, between requests.
Each request's wall time is divided by the host's slowdown around it: the
median time of the calibrations within :data:`WINDOW_S` of the request and
of the last one before and the first one after it, over :data:`NOMINAL_S`.
Only calibrations this close to a request track the spells: with a 0.5 s
window the 90th percentile of ``envelope-batch`` spread three times as
much from run to run.  The result reads as seconds on this host in its
fast state; the raw wall times are printed next to it.  A change to
divfilt leaves the calibration's cost alone, so it changes the scaled time
as it would change the wall time on a steady host.

The same calibration serves requests in fresh processes (``cli-cold``)
and the set-up measurements.  Starting an interpreter slows less in a slow
spell than this arithmetic does, but timing a bare interpreter start as the
calibration tracked ``cli-cold`` no better and took a third of the run.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Seconds one calibration takes on a 2-vCPU host with Python 3.11.7 in its
# fast state: the median of a quiet minute.
NOMINAL_S = 1.04e-3
# Calibrate when this much time has passed since the last calibration ...
EVERY_S = 0.008
# ... once per EVERY_S elapsed, but at most this many times in a row.
BURST = 5
# A span is scaled by the calibrations this close to its start or end, and
# by the nearest one on either side.
WINDOW_S = 0.02


def calibration_work() -> Fraction:
    """About 1 ms of the arithmetic that dominates divfilt's profile."""
    x, y = Fraction(1, 3), Fraction(2, 7)
    for i in range(150):
        x = (x * y + Fraction(i, 13)) / (y + 1)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
    return x


class HostClock:
    """Calibration samples of one run, and the slowdown they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each calibration, increasing
        self.costs: list[float] = []  # its duration in seconds
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_work()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.costs.append(end - start)
        self._last = end

    def calibrate(self) -> None:
        """Sample once per EVERY_S since the last sample, up to BURST times."""
        due = (time.perf_counter() - self._last) / EVERY_S
        for _ in range(min(BURST, int(due))):
            self.sample()

    def slowdowns(self) -> list[float]:
        return [cost / NOMINAL_S for cost in self.costs]

    def slowdown(self, start: float, end: float) -> float:
        """Median calibration cost near [start, end] over NOMINAL_S."""
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_right(self.times, end)
        lo = max(0, min(bisect.bisect_left(self.times, start - WINDOW_S), before - 1))
        hi = max(bisect.bisect_right(self.times, end + WINDOW_S), after + 1)
        return statistics.median(self.costs[lo:hi]) / NOMINAL_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken on the host at nominal speed."""
        return (end - start) / self.slowdown(start, end)
