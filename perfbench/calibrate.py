"""Machine-speed calibration for the in-process timings.

On a shared host the speed of the same Python code drifts by 10-70 %
over seconds to minutes as neighbours come and go, which swamps the
differences a benchmark exists to show.  The in-process workloads
therefore interleave a fixed pure-Python unit of work (dictionary,
tuple and list churn) with the measured operations, and scale each
measured time by ``REFERENCE_UNIT_S`` over the unit's time around it
(see :class:`Calibration`).  Timings then read as they would on a host
where the unit takes ``REFERENCE_UNIT_S``.  The unit uses nothing from
the program, so a change to the program cannot move it.  Runs print
the raw timings next to the scaled ones.
"""

import gc
import time

from common import median

#: Median time of :func:`unit` on the reference host (a 2-core x86-64
#: VM running CPython 3.11).
REFERENCE_UNIT_S = 0.0012
#: Measured work between two calibration units.
EVERY_S = 0.05


def unit():
    table = {}
    total = 0
    for i in range(4000):
        key = (i % 97, i % 13, i % 251)
        bucket = table.get(key)
        if bucket is None:
            table[key] = bucket = [i]
        else:
            bucket.append(i)
        total += len(bucket)
    return total


class Calibration:
    """Calibration units interleaved with measured work.

    A unit runs after every ``every_s`` seconds of measured work, so
    each measured time has a unit just before and just after it; the
    time is scaled by the mean of those two.  Drift is thus corrected
    where it happened, not by one factor for the whole run.
    """

    def __init__(self, every_s=EVERY_S):
        self.every_s = every_s
        self.samples = []
        #: per measured time, the index of the unit that follows it
        self._marks = []
        self._pending = 0.0

    def _sample(self):
        # with the collector off, and after an untimed warm-up run, the
        # unit's time depends neither on how large the program's heap
        # is nor on what the program left in the caches
        enabled = gc.isenabled()
        gc.disable()
        try:
            unit()
            started = time.perf_counter()
            unit()
            self.samples.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def after(self, work_s):
        """Call after each measured time of ``work_s`` seconds."""
        if not self.samples:
            self._sample()
        self._marks.append(len(self.samples))
        self._pending += work_s
        if self._pending >= self.every_s:
            self._pending = 0.0
            self._sample()

    def scaled(self, times):
        """``times`` (one per :meth:`after` call, in order) as they
        would read on the reference host."""
        if self._marks and self._marks[-1] == len(self.samples):
            self._sample()
        return [t * REFERENCE_UNIT_S * 2.0
                / (self.samples[mark - 1] + self.samples[mark])
                for t, mark in zip(times, self._marks)]

    def describe(self):
        return "calibration: %d units, median %.3f ms" % (
            len(self.samples), median(self.samples) * 1e3)
