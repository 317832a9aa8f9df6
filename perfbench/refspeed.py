"""
A fixed reference kernel, timed next to every measured stage.

The shared VMs this benchmark runs on change speed by up to 1.7x for
seconds to minutes at a time, and a whole 55 s run can fall in a slow
stretch. The benchmark therefore times this kernel, which never changes
and calls nothing of the program, right before and right after each
stage, and reports the stage at the reference speed:

    reported = measured * REF_S / mean(kernel before, kernel after)

A stage that does twice the work reads twice as long at any machine
speed; a slow stretch that slows the stage and the kernel alike cancels
out. The raw wall times are printed and recorded beside the scaled ones.

The kernel mixes what the program does: string-keyed dict updates and
float parsing (the label dicts and CSV fields) and numpy passes over a
100,000-element array. Garbage collection is held off while it runs, so
its time does not depend on how many objects the program holds.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# fixed; the kernel took 16-32 ms on the 2-vCPU Intel Xeon VM (Python
# 3.11, numpy 2.4) the benchmark was built on, so scaled times read close
# to wall times on such a machine
REF_S = 0.020
_ARRAY = np.random.default_rng(0).random(100_000)


def kernel():
    d = {}
    for i in range(12_000):
        key = f"SN{i % 997:06d}|12{i % 251:09d}"
        d[key] = d.get(key, 0.0) + float(repr(i * 0.5))
    x = _ARRAY
    for _ in range(4):
        x = np.sort(x * 1.0001)
    return len(d), float(x[0])


def reading(repeats=2):
    """Median seconds of `repeats` kernel calls, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Gauge:
    """Kernel readings around measured work, kept for the run's report."""

    def __init__(self):
        self.readings = []

    def around(self, run):
        """(run's result, scale): scale turns a time measured in run into reference time."""
        before = reading()
        result = run()
        after = reading()
        self.readings += [before, after]
        return result, 2 * REF_S / (before + after)
