"""A fixed reference computation that tracks how fast the host runs now.

On a shared host the same code can run up to twice as slowly in busy
phases that last from seconds to minutes, and CPU time slows down with
wall time, so neither is steady from one run to the next. The benchmark
therefore times this fixed computation between the steps of its passes
and rescales the run's mean pass time by the run's mean reference time
(raised to SLOWDOWN_POWER) to the host speed at which the computation
takes REFERENCE_S seconds.
The host's speed also changes within a second, so one timing says
little about the pass next to it; the means over a run agree.

The computation is the kind of work that dominates canto's passes: many
numpy calls on arrays of a few thousand elements (concatenate, sort,
diff, a reduction) glued by an interpreted loop. Timed next to canto's
passes on that host, it slowed down in busy phases by as much as they
did, which a plain interpreted loop or arithmetic on one large array did
not. It does not call canto, so a change to canto does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the computation's time when the host the benchmark was written on
# (a shared 2-vCPU VM, Python 3.11) is quiet; a rescaled time is in
# seconds at that speed.
REFERENCE_S = 0.025
# Busy phases slow canto's passes more than the computation: over sets of
# ten runs in quiet and in busy hours, the run-mean pass times of
# paper_run and capacity_trace grew as the 0.9th to 1.8th power of the
# run-mean reference time (log-log slope), 1.5 in the middle. Rescaling
# by that power kept both the spread within a set and the shift of the
# median between sets smallest.
SLOWDOWN_POWER = 1.5


_BASE = np.arange(3000, dtype=float)


def reference_once() -> float:
    """Seconds taken by one run of the fixed computation."""
    start = time.perf_counter()
    total = 0.0
    for i in range(500):
        merged = np.concatenate([_BASE, _BASE + (0.5 + i % 7 / 10)])
        merged.sort()
        gaps = np.diff(merged)
        total += float(np.sum(1.0 / (gaps + 1.0)))
    if not total > 0:
        raise AssertionError("reference computation went wrong")
    return time.perf_counter() - start


def at_reference_speed(seconds: float, reference_times: list[float],
                       power: float = SLOWDOWN_POWER) -> float:
    """`seconds` of work, timed while the computation took `reference_times`
    on average, rescaled to the speed at which it takes REFERENCE_S: the
    work is taken to slow down as the `power`-th power of the computation."""
    return seconds * (REFERENCE_S / statistics.mean(reference_times)) ** power
