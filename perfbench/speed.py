"""Machine-speed reference: every measured interval is scaled to one CPU speed.

The 2-vCPU virtual machine this benchmark was built on changes speed by
15-35% for seconds to minutes at a time, because other tenants share its
cores. Wall time and CPU time both change, and the two vCPUs drift
independently. Raw timings of the same code then differ by 6-27% (quartile
spread over five seeded runs) from one run to the next. So the process is
pinned to one CPU, and a fixed calibration routine is timed every ``period``
seconds: from a SIGALRM handler while ``ticking`` (so long calls are sampled
from inside), and otherwise between operations. An interval's length, minus
any calibration that ran inside it, is multiplied by ``REFERENCE_S`` over the
mean of the calibrations inside it and just around it.

The calibration mixes what rpca spends its time on: Python arithmetic, a walk
that indexes a numpy array one scalar at a time and appends to a list (like
the cycle walk), numpy calls on 16-element arrays, where dispatch cost
dominates (like a pca step or one small message), and shifts, ORs and table
gathers over 50,000 cells (like a CAF step over many blocks). It uses numpy
only, never rpca, so a change to rpca cannot move it.
"""
from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import time

import numpy as np

# Seconds the calibration takes at the reference speed: its 10th percentile
# over 2,000 runs on the 2-vCPU machine above. Only ratios to it matter.
REFERENCE_S = 0.0046


def pin_to_one_cpu() -> set[int]:
    """Keep this process (and children it starts) on one CPU; returns the old mask."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


class Speed:
    """Calibration samples over time, and intervals scaled by the ones around them."""

    def __init__(self, period: float = 0.1) -> None:
        rng = np.random.default_rng(12345)
        self._succ = rng.integers(0, 4096, size=4096)
        self._cells = rng.integers(0, 2, size=50_000, dtype=np.uint8)
        self._table = rng.integers(0, 2, size=8, dtype=np.uint8)
        self.period = period
        self.starts: list[float] = []  # perf_counter when each calibration began
        self.stamps: list[float] = []  # ... and when it ended
        self.samples: list[float] = []  # its duration
        self._ticking = self._busy = False

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(25_000):
            s += i * i % 7
        seen = np.zeros(4096, dtype=np.uint8)
        v, path = 0, []
        for _ in range(6_000):
            seen[v] = 1
            path.append(v)
            v = int(self._succ[v])
        z = self._cells[:16]
        for _ in range(300):
            e = np.concatenate([z[-1:], z, z[:1]])
            z = self._table[(e[:-2] << 2) | (e[1:-1] << 1) | e[2:]]
        a = self._cells
        for _ in range(4):
            idx = (a[:-2] << 2) | (a[1:-1] << 1) | a[2:]
            a = np.concatenate([self._table[idx], a[:2]])
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.stamps.append(t1)
        self.samples.append(t1 - t0)

    def sample(self) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._calibrate()
            finally:
                self._busy = False

    def maybe_sample(self) -> None:
        """Between operations: sample unless ticking or sampled within ``period``."""
        if not self._ticking and (not self.stamps
                                  or time.perf_counter() - self.stamps[-1] >= self.period):
            self.sample()

    @contextlib.contextmanager
    def ticking(self):
        """Sample every ``period`` seconds from a SIGALRM handler, even inside long calls."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._ticking = True
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._ticking = False

    @contextlib.contextmanager
    def between_calls(self):
        """Inside ``ticking``: for a run of short calls, sample between them instead.

        A calibration that lands inside a call of a fraction of a millisecond
        disturbs it more than the scaling corrects.
        """
        if not self._ticking:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._ticking = False
        try:
            yield
        finally:
            self._ticking = True
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def scaled(self, start: float, end: float) -> float:
        """Length of [start, end] at the reference speed, calibration time excluded."""
        first = max(bisect.bisect_right(self.stamps, start) - 1, 0)
        last = min(bisect.bisect_left(self.stamps, end), len(self.stamps) - 1)
        paused = sum(max(0.0, min(self.stamps[k], end) - max(self.starts[k], start))
                     for k in range(first, last + 1))
        around = self.samples[first : last + 1]
        return (end - start - paused) * REFERENCE_S / statistics.fmean(around)

    def total(self, intervals) -> float:
        return sum(self.scaled(a, b) for a, b in intervals)
