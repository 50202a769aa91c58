"""Calibrated time: wall time scaled by the machine's speed at that moment.

A shared machine changes speed by up to 1.9x over seconds to minutes, and
asx's time changes with it, so raw wall times of the same code spread by
20-40% between runs.  The benchmark therefore times a fixed calibration
kernel (stdlib ``Fraction`` arithmetic, the same kind of work asx does, and
no asx code) next to every operation, and reports

    calibrated time = wall time * REF_S / (kernel time near the operation)

that is, the time the operation would take on a machine where the kernel
takes REF_S.  Speed-ups in asx lower it; a change of machine speed does not.

``Sampler`` times the kernel on a timer of process CPU time (SIGVTALRM), so
that samples also fall inside long operations, and keeps the samples with
their start times.  ``speed(t0, t1)`` is the median kernel time of the
samples within ``WINDOW_S`` of the interval.  Time spent in the handler is
counted in ``spent`` so that callers can take it out of what they time.

A cold start is another kind of work: process creation, page faults, file
reads and unmarshalling, on whichever CPU the child lands.  A kernel timed
in the parent does not follow it, so a cold start of asx is scaled instead
by launches of ``REF_LAUNCH``, a fresh interpreter that imports the standard
modules asx imports, timed just before and just after it:

    calibrated cold start = wall time * REF_LAUNCH_S / (mean of the two references)
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 200e-6  # kernel time on the reference machine
REF_LAUNCH_S = 0.06  # time of a REF_LAUNCH on the reference machine
REF_LAUNCH = ("-c", "import argparse, dataclasses, enum, fractions, functools, itertools, json, math, re")
INTERVAL_S = 0.01  # CPU time between two samples
WINDOW_S = 0.5  # samples this close to an interval set its speed


def kernel() -> Fraction:
    """About 200 microseconds of Fraction arithmetic with growing denominators."""
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1)
    return s


class Sampler:
    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in the handler

    def sample(self, *_) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def speed(self, t0: float, t1: float) -> float:
        """Median kernel time within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return statistics.median(self.times[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        return REF_S / self.speed(t0, t1)
