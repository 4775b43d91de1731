"""Times at reference speed, so that the neighbours' load does not move them.

On a shared 2-core Xeon (Python 3.11) the speed of pure-Python work
changes by up to 70 % within seconds: a fixed kernel took 4.3 ms for ten
seconds, then 7.5 ms for five, then 5.3 ms.  The spread of raw wall
times over runs of one workload was 10-45 %, more than a change worth
measuring.

SpeedSampler times a fixed reference kernel every INTERVAL seconds, on
SIGALRM, in the benchmark's own thread, so each sample sees the core at
the moment the op it interrupts runs.  An interval's time at reference
speed is its wall time, minus what the samples inside it took, times
REFERENCE_S over the mean sample time around it.  The kernel is integer
arithmetic on a few local variables: it has no finrel in it and touches
almost no memory, so neither a change to finrel nor the cache state the
program leaves behind moves the samples.  It tracks the core's speed,
not contention for memory.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

INTERVAL = 0.05  # seconds between samples while an op runs
WINDOW = 0.25  # samples this far before and after an interval also count
REFERENCE_S = 0.0019  # the kernel's median time inside benchmark runs there


def reference() -> int:
    """Fixed interpreter work: a linear congruential generator."""
    x = 1
    for _ in range(12000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


class SpeedSampler:
    def __init__(self):
        self.at: list[float] = []  # start of each sample, increasing
        self.cost: list[float] = []  # its duration
        reference()  # the first call pays for warming up

    def sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()  # a collection here would time the program's heap
        try:
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append(start)
        self.cost.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _range(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)

    def scaled(self, start: float, end: float, around: tuple[float, float] | None = None) -> float:
        """Seconds from start to end at reference speed; the speed is
        taken from the samples around `around` (default: the interval)."""
        lo, hi = self._range(start, end)
        net = end - start - sum(self.cost[lo:hi])
        ws, we = around or (start, end)
        lo, hi = self._range(ws - WINDOW, we + WINDOW)
        if lo == hi:  # no sample near it: take the nearest
            lo = max(0, min(lo, len(self.at) - 1))
            hi = lo + 1
        return net * REFERENCE_S * (hi - lo) / sum(self.cost[lo:hi])
