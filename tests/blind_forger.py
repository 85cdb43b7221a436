"""A blind sender's forged frames, for the receiver tests."""

from dataclasses import replace

import numpy as np


def forge_blind(trace, can_id, period_us, seed=0, level_bits=8):
    """The trace with every frame of `can_id` but its first forged and tagged not
    genuine: sent the period (per counter step) after the forged frame before it,
    plus a uniform draw over the delay window, the best guess without the key.
    Payloads stay genuine; the frames are re-sorted by (time, priority)."""
    rows = np.flatnonzero(trace.id_index == trace.ids.index(can_id))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xADD))))
    times, genuine = trace.bus_ticks.copy(), trace.genuine.copy()
    counters = trace.counter[rows].tolist()
    for j in range(1, len(rows)):
        draw = float(rng.uniform(0, 1 << level_bits))
        times[rows[j]] = times[rows[j - 1]] + round(
            100 * (period_us * (counters[j] - counters[j - 1]) + draw))  # ticks of 10 ns
        genuine[rows[j]] = False
    by_priority = sorted(trace.ids)
    rank = np.array([by_priority.index(i) for i in trace.ids], dtype=np.int64)
    forged = replace(trace, bus_ticks=times, genuine=genuine)
    return forged.take(np.lexsort((rank[trace.id_index], times)))
