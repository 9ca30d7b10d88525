"""Machine-speed probe: converts measured time to time at a reference speed.

Other tenants of a shared machine slow this process down by up to 2x, in
bursts of a few seconds and in regimes lasting minutes, so the same round of
work can take 6 s or 10 s.  A fixed exact-rational kernel that calls nothing
from voacert is timed at op boundaries (at most every ``EVERY`` seconds).
Each stretch of time between two probes is rescaled by
``REFERENCE_PROBE_S / (median of the nearest probes)``: a time at the speed
at which the probe takes ``REFERENCE_PROBE_S``.  Probe time itself is never
counted.  A change to voacert cannot move the probe, so it moves the
rescaled times in full.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Probe time of the kernel on an undisturbed 2-CPU Xeon VM with CPython
# 3.11: the unit in which every reported time is expressed.
REFERENCE_PROBE_S = 0.0025
EVERY = 0.1

_MATRIX = [[Fraction((7 * i + j) % 11 - 5, j % 5 + 1) for j in range(10)]
           for i in range(10)]


def _kernel():
    cols = list(zip(*_MATRIX))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in cols] for row in _MATRIX]


class SpeedMeter:
    """Probe runs of one round, as (start, end) pairs in time order."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def probe(self):
        was_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not speed
        try:
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    def tick(self):
        """Probe at an op boundary when the last probe is EVERY s old."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY:
            self.probe()

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-speed length of [t0, t1], which holds no probe.

        The speed is the median of the two probes on either side, so one
        probe caught by a hiccup does not rescale the ops around it.
        """
        before = bisect.bisect_right(self.ends, t0) - 1
        near = range(max(0, before - 1), min(len(self.ends), before + 3))
        probe_s = statistics.median(self.ends[i] - self.starts[i]
                                    for i in near)
        return (t1 - t0) * REFERENCE_PROBE_S / probe_s

    def scaled_span(self, t0: float, t1: float) -> float:
        """Reference-speed length of [t0, t1] less the probes inside it."""
        edges = [t0]
        for start, end in zip(self.starts, self.ends):
            if t0 <= start and end <= t1:
                edges += [start, end]
        edges.append(t1)
        return sum(self.scaled(a, b) for a, b in zip(edges[::2], edges[1::2]))

    def probe_time(self, t0: float, t1: float) -> float:
        return sum(end - start for start, end in zip(self.starts, self.ends)
                   if t0 <= start and end <= t1)
