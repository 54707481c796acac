"""Scaling timings to a fixed reference host speed.

The speed of a small shared VM drifts by up to 2x over seconds to minutes,
whatever runs inside it, and CPU time drifts with wall time.  A run cannot
average that away, so every timing the benchmark reports is scaled instead:
a fixed kernel that uses only the standard library (exact Fraction sums and
dict stores, the operations vermakit spends its time on) is timed between
short windows of ops, and each window's times are multiplied by

    REFERENCE_S / (mean of the kernel's time just before and just after it).

Ops that run in child processes are not tracked window by window (the
child need not run where the kernel runs); their times are all scaled by
REFERENCE_S over the median kernel time of the run.

The kernel takes REFERENCE_S on a host running at the reference speed (the
2-vCPU VM the bounds were set on, at its median speed), so scaled values keep
their units: seconds, or ms, at the reference speed.  The program under test
never runs inside the kernel, so a change to it cannot move the scale.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0016  # the kernel's time at the reference speed
WINDOW_S = 0.02  # ops between two kernel runs; the kernel costs ~7% of a run


def _kernel_once() -> int:
    table = {}
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i)
        table[(i, i % 5)] = total.numerator % 97
    return len(table)


def kernel_s() -> float:
    """Wall time of one kernel run, with the collector off so that the
    program's heap cannot lengthen it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel_once()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedScale:
    """Runs the kernel between windows of timed work and gives the factors
    that turn the windows' wall times into reference-speed times."""

    def __init__(self):
        _kernel_once()  # let the interpreter specialise the kernel first
        self.kernel_times = [kernel_s()]

    def next(self) -> float:
        """Run the kernel after a window and return the window's factor:
        REFERENCE_S over the mean of the kernel's time before and after it."""
        self.kernel_times.append(kernel_s())
        return 2 * REFERENCE_S / (self.kernel_times[-2] + self.kernel_times[-1])

    def run_factor(self) -> float:
        """One factor for a whole run: REFERENCE_S over the median kernel time."""
        return REFERENCE_S / median(self.kernel_times)
