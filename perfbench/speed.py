"""Machine-speed calibration, so times are reported in reference seconds.

On a shared host the speed of one core can drift by a factor of two within
seconds (a busy hyperthread sibling or a neighbour), which would show as a
change in lexdist.  A fixed pure-Python kernel, the same work every time,
is therefore timed before and after each timed block and, through a timer
signal, every INTERVAL_S while the block runs.  A block's time in
reference seconds is its wall time, less the kernel runs, times the mean
of REFERENCE_S / kernel time over those samples: the time the block would
have taken at the speed where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.25
# kernel time on the reference machine when its core runs at full speed
# (see README.md), so reference seconds are close to wall seconds there
REFERENCE_S = 0.0085


def kernel() -> float:
    """Seconds taken by the fixed calibration work: tuple, dict and set traffic.

    The cyclic garbage collector is off meanwhile: its passes walk every
    live object, so the kernel's time would otherwise grow with the heap
    the measured code leaves behind.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(15000):
            key = (i % 97, i % 89, i % 83)
            table[key] = table.get(key, 0) + i
            acc += sum(key) * (i & 7)
        seen = set()
        for key in table:
            seen.add(key[::-1])
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def speed_factor(samples) -> float:
    """Reference seconds per wall second, from kernel times."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class SpeedMeter:
    """Samples the kernel around and, by SIGALRM, during a timed block.

    With inside=False the block is only bracketed, for traced rounds,
    whose spans a kernel run inside a traced call would disturb.
    """

    def __init__(self, inside=True):
        self.inside = inside
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    def measure(self, fn):
        """Run fn(); return (wall seconds less kernel runs, reference seconds)."""
        self.samples = [kernel()]
        if self.inside:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            fn()
        finally:
            wall = time.perf_counter() - start
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.samples[1:])
        self.samples.append(kernel())
        return wall, wall * speed_factor(self.samples)
