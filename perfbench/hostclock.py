"""Host time scaled to a fixed host speed.

The benchmark runs on a few cores of a shared host. For interpreter-bound
code that host's speed swings by up to 1.7x, within a second and over
minutes, and CPU time swings with it. A run's median would then depend on
how much of the run fell in slow stretches.

``HostSpeed`` samples the host's speed all through a measurement: every
``PERIOD_S`` a SIGALRM handler, in this process's main thread, times one
fixed calibration loop. ``HostClock`` times code in stretches between marks,
with the calibration loops taken out, and scales each stretch by
``REFERENCE_S`` over the median loop time of the samples taken during it and
in the ``WINDOW_S`` before it. A stretch that ran while the host was slow
thus counts as long as it would have taken at the reference speed. The raw
host seconds are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import signal
import statistics
import time

import numpy as np

# Time of one calibration loop at full speed on the reference host: a
# 2-vCPU x86-64 VM, Python 3.11.7, numpy 2.4.6 (the fastest loop seen there).
REFERENCE_S = 0.0020
PERIOD_S = 0.05  # one calibration loop per this much host time
WINDOW_S = 0.25  # samples this long before a stretch count for it too
MIN_SAMPLES = 5  # a stretch is scaled by at least this many samples

class _Ledger:
    def __init__(self):
        self.energy = 0.0


# A 50 x 50 grid of cell centres (2 m apart) and 40 guard positions.
_GRID_X = np.repeat(np.arange(50) * 2.0 + 1.0, 50)
_GRID_Y = np.tile(np.arange(50) * 2.0 + 1.0, 50)
_GUARD_X = np.arange(40) * 3.1 % 100.0
_GUARD_Y = np.arange(40) * 7.3 % 100.0


def _loop(rng: np.random.Generator) -> int:
    """A fixed mix of what the simulator spends its time on, half of it
    interpreted and half in numpy. First a heap of (time, id) tuples, dict
    counters, attribute updates, float math and single draws from a Philox
    generator; then the grid-to-guard distance test of a coverage sample."""
    heap: list = []
    table: dict = {}
    ledger = _Ledger()
    total = 0.0
    for i in range(1000):
        heapq.heappush(heap, ((i * 7919) % 1009 + 0.5, i))
        key = i % 61
        table[key] = table.get(key, 0) + 1
        ledger.energy += math.exp(-(i % 97) / 50.0)
        if i % 8 == 0:
            total += rng.random()
    while heap:
        total += heapq.heappop(heap)[0]
    covered = 0
    for lo in range(0, _GRID_X.size, 500):
        dx = _GRID_X[lo:lo + 500, None] - _GUARD_X[None, :]
        dy = _GRID_Y[lo:lo + 500, None] - _GUARD_Y[None, :]
        covered += int((dx * dx + dy * dy <= 324.0).any(axis=1).sum())
    return covered + int(total + ledger.energy) + len(table)


class HostSpeed:
    """Samples the calibration loop's time while the context is open."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at each sample's start
        self.took: list[float] = []  # the loop's time in each sample
        self.spent = 0.0  # host time taken by all samples so far
        self._rng = np.random.Generator(np.random.Philox(0))
        self._previous = None

    def __enter__(self) -> HostSpeed:
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum=None, _frame=None) -> None:
        """Time one loop. The garbage collector is off meanwhile, and the
        loop frees all it allocates, so the program's collections keep
        their pace."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _loop(self._rng)
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def stamp(self) -> tuple[float, float]:
        """(host time, host time without the samples) at this moment."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now, now - spent

    def loop_s(self, start: float, end: float) -> float:
        """Median loop time of the samples from ``WINDOW_S`` before
        ``start`` up to ``end``; at least the last ``MIN_SAMPLES``."""
        hi = bisect.bisect_right(self.at, end)
        lo = min(bisect.bisect_left(self.at, start - WINDOW_S),
                 max(hi - MIN_SAMPLES, 0))
        return statistics.median(self.took[lo:hi])


class HostClock:
    """Sums timed stretches, raw and scaled to the reference host speed.
    Without a ``HostSpeed`` the scaled sums are the raw ones."""

    def __init__(self, speed: HostSpeed | None):
        self.speed = speed
        self.raw_s = self.scaled_s = 0.0
        self.loop_s: list[float] = []  # median loop time of each stretch
        self._stamp: tuple[float, float] | None = None

    def start(self) -> None:
        """Zero the sums and open the first stretch."""
        self.raw_s = self.scaled_s = 0.0
        self._stamp = self._now()

    def _now(self) -> tuple[float, float]:
        if self.speed is None:
            now = time.perf_counter()
            return now, now
        return self.speed.stamp()

    def mark(self) -> tuple[float, float]:
        """Close the open stretch and open the next one. Returns the closed
        stretch's (raw, scaled) seconds; (0, 0) when none was open."""
        stamp = self._now()
        raw = scaled = 0.0
        if self._stamp is not None:
            loop_s = (REFERENCE_S if self.speed is None
                      else self.speed.loop_s(self._stamp[0], stamp[0]))
            raw = stamp[1] - self._stamp[1]
            scaled = raw * REFERENCE_S / loop_s
            self.raw_s += raw
            self.scaled_s += scaled
            self.loop_s.append(loop_s)
        self._stamp = stamp
        return raw, scaled
