"""Calibrate measured times against the CPU speed the measuring thread saw.

On a shared machine the speed of one CPU drifts by a quarter or more over
a few seconds, as other tenants come and go.  A speed measured on another
CPU does not follow it.  So :class:`SpeedProbe` samples the speed in the
measuring thread itself: a SIGALRM timer interrupts the thread every
INTERVAL seconds and times PROBE_WORK, a fixed piece of exact-arithmetic
work that does not call the library.

``calibrated(start, end)`` takes a wall-clock window, subtracts the probe
time spent inside it, and scales the rest by NOMINAL over the median probe
time in and next to the window.  The result is in seconds on a CPU on
which PROBE_WORK takes NOMINAL seconds.

Run as a script, ``probe.py MODULE`` imports MODULE in a fresh interpreter
and prints the calibrated and raw seconds the import took, as JSON.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import json
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.025
NOMINAL = 0.0005
NEIGHBOURS = 2  # samples taken on each side of a window, for short windows
IMPORT_PROBES = 5  # probe runs before and after a timed import


def probe_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 16):
        for j in range(1, 5):
            acc += Fraction(i, 97) * Fraction(j, 101) + Fraction(1, i + j)
    return acc


class SpeedProbe:
    """Context manager that samples the thread's speed while it is entered."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        # The probe measures the CPU, not the interpreter's state: a trace or
        # profile hook, or a garbage collection of the library's objects,
        # must not slow it, or calibration would divide that cost out.
        trace, profile = sys.gettrace(), sys.getprofile()
        collecting = gc.isenabled()
        sys.settrace(None)
        sys.setprofile(None)
        gc.disable()
        start = perf_counter()
        probe_work()
        took = perf_counter() - start
        if collecting:
            gc.enable()
        sys.setprofile(profile)
        sys.settrace(trace)
        self.at.append(start)
        self.took.append(took)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(NEIGHBOURS):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own(self, start: float, end: float) -> float:
        """Seconds of the window not spent in the probe."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return end - start - sum(self.took[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """NOMINAL over the median probe time in and next to the window."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return NOMINAL / statistics.median(self.took[max(0, lo - NEIGHBOURS) : hi + NEIGHBOURS])

    def calibrated(self, start: float, end: float) -> tuple[float, float]:
        """(calibrated seconds, raw seconds) of the window without probe time."""
        raw = self.own(start, end)
        return raw * self.scale(start, end), raw


def calibrated_import(name: str) -> tuple[float, float]:
    """(calibrated, raw) seconds to import ``name``, scaled by the probe
    runs made just before and after it in this thread."""
    took = []
    for _ in range(IMPORT_PROBES):
        start = perf_counter()
        probe_work()
        took.append(perf_counter() - start)
    start = perf_counter()
    importlib.import_module(name)
    raw = perf_counter() - start
    for _ in range(IMPORT_PROBES):
        start = perf_counter()
        probe_work()
        took.append(perf_counter() - start)
    return raw * NOMINAL / statistics.median(took), raw


if __name__ == "__main__":
    print(json.dumps(calibrated_import(sys.argv[1])))
