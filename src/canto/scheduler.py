"""Offset allocation for cyclic CAN traffic.

Given a vector of frame periods, each allocator chooses per-frame offsets
so that the theoretical transmission instants never coincide and the
spacing between consecutive instants on the shared bus is as even as
possible. Schedule quality is the mean reciprocal gap q (units 1/ms,
lower is better) together with the extreme inter-frame spaces.

Five strategies are provided:

* binary symmetric -- recursive bin splitting of the fastest period,
* randomized      -- best-of-N random permutations of an even grid,
* greedy          -- incremental q-minimizing assignment on the same grid,
* multi-layer greedy -- greedy with per-frame grids spanning each period,
* gcd             -- occupancy-matrix filling at a fixed minimum spacing.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Sequence, get_args

import numpy as np

from canto.frame_model import FrameSpec, period_tenths

# the one bound on input-sized arrays: instants, releases, matrix cells, histogram bins
MAX_INSTANTS = 1 << 24


class IncompleteScheduleError(ValueError):
    """Two frames share a theoretical timestamp (reciprocal gap is infinite)."""


class OversubscribedError(ValueError):
    """The requested spacing or evaluation budget cannot accommodate all frames."""


@dataclass(frozen=True)
class Schedule:
    """An allocation: frame specs with their offsets."""

    frames: tuple[FrameSpec, ...]


@dataclass(frozen=True)
class ScheduleQuality:
    q_per_ms: float
    min_ifs_us: float
    max_ifs_us: float
    complete: bool


def hyperperiod_tenths(periods_us: Sequence[float]) -> int:
    """Least common multiple of the periods in tenths of a us, as an int: no
    float holds the lcm of many long periods."""
    return math.lcm(*(period_tenths(p) for p in periods_us))


def _g15(number: int, divisor: int = 1) -> str:
    """number / divisor as '.15g' writes a float, also past the largest float."""
    from decimal import Decimal  # imported on these error paths only: it costs 0.4 MB
    return format(Decimal(number) / divisor, ".15g")


def _instants(pairs: Sequence[tuple[float, float]], lcm_tenths: int) -> np.ndarray:
    """All k*period + offset in one hyperperiod, ascending: lcm // period for each
    pair, whose offset lies in [0, period). Over MAX_INSTANTS are refused first."""
    counts = [lcm_tenths // period_tenths(period) for period, _ in pairs]
    if sum(counts) > MAX_INSTANTS:
        raise OversubscribedError(f"one hyperperiod holds {_g15(sum(counts))} instants, over "
                                  f"{MAX_INSTANTS}: the periods' lcm is {_g15(lcm_tenths, 10)} us")
    out = np.concatenate([np.empty(0), *(offset + period * np.arange(n, dtype=np.float64)
                                         for (period, offset), n in zip(pairs, counts))])
    out.sort()
    return out


def timestamps(schedule: Schedule) -> np.ndarray:
    """Sorted multiset of theoretical transmission instants in one hyperperiod."""
    return _instants([(f.period_us, f.offset_us) for f in schedule.frames],
                     hyperperiod_tenths([f.period_us for f in schedule.frames]))


def _q_cyclic(ts: np.ndarray, lcm_tenths: int) -> float:
    """Allocator-internal objective: q with the wrap-around gap included.

    Periodic schedules have no distinguished origin, so candidate offsets
    are ranked on the cyclic gap set; a collision yields infinity.
    """
    n = len(ts)
    gaps = np.empty(n)
    gaps[:-1] = np.diff(ts)
    gaps[-1] = lcm_tenths / 10 - ts[-1] + ts[0]
    if np.any(gaps <= 0):
        return math.inf
    return float(np.sum(1000.0 / gaps) / n)


def schedule_quality(schedule: Schedule) -> ScheduleQuality:
    """q and the extreme gaps over one hyperperiod. The schedule is complete
    iff no two instants coincide, so one instant per hyperperiod is complete,
    with q and both gaps 0."""
    ts = timestamps(schedule)
    gaps = np.diff(ts)
    if not np.all(gaps > 0):
        return ScheduleQuality(math.inf, 0.0, float(gaps.max()), False)
    if len(ts) < 2:
        return ScheduleQuality(0.0, 0.0, 0.0, True)
    return ScheduleQuality(float(np.sum(1000.0 / gaps) / len(ts)), float(gaps.min()),
                           float(gaps.max()), True)


def check_complete(schedule: Schedule) -> bool:
    """True iff no two theoretical instants in one hyperperiod coincide."""
    return schedule_quality(schedule).complete


def _sorted_order(periods_us: Sequence[float]) -> list[int]:
    return sorted(range(len(periods_us)), key=lambda i: (periods_us[i], i))


def allocate_binary_symmetric(periods_us: Sequence[float]) -> list[float]:
    """Recursive bin splitting over [0, w], w = fastest period.

    The first frame sits at 0; every splitting pass adds the midpoints of
    the existing bins (w/2, then w/4 and 3w/4, ...) until each period has
    an offset. Returns offsets aligned with the input order.
    """
    if not periods_us:
        raise ValueError("empty period vector")
    order = _sorted_order(periods_us)
    w = periods_us[order[0]]
    offsets = [0.0] * len(periods_us)
    remaining = list(order[1:])
    positions = [0.0, w]  # bin boundaries; w is a sentinel, not an offset
    while remaining:
        merged = [positions[0]]
        for i in range(1, len(positions)):
            if remaining:
                mid = (positions[i - 1] + positions[i]) / 2.0
                offsets[remaining.pop(0)] = mid
                merged.append(mid)
            merged.append(positions[i])
        positions = merged
    return offsets


def allocate_randomized(periods_us: Sequence[float], iterations: int = 100,
                        seed: int = 0) -> list[float]:
    """Best-of-N random assignment of the evenly spaced offset grid.

    The grid is {0, e, 2e, ...} with e = min(period)/n, permuted each
    iteration; the permutation with the lowest complete-schedule q wins.
    Deterministic for a fixed seed.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = len(periods_us)
    if n == 0:
        raise ValueError("empty period vector")
    e = min(periods_us) / n
    slots = np.arange(n, dtype=np.float64) * e
    lcm = hyperperiod_tenths(periods_us)
    rng = np.random.Generator(np.random.PCG64(seed))
    best_q = math.inf
    best: np.ndarray | None = None
    for _ in range(iterations):
        perm = rng.permutation(slots)
        q = _q_cyclic(_instants(list(zip(periods_us, perm)), lcm), lcm)
        if q < best_q:
            best_q, best = q, perm
    if best is None:
        raise IncompleteScheduleError("no random permutation was collision-free")
    return [float(x) for x in best]


def _greedy(periods_us: Sequence[float], candidates) -> list[float]:
    """Place the periods in ascending order, each at the offset among
    `candidates(period, placed)` with the lowest cyclic q, where `placed` holds
    the (period, offset) pairs so far; ties go to the earliest candidate."""
    lcm = hyperperiod_tenths(periods_us)
    offsets = [0.0] * len(periods_us)
    placed: list[tuple[float, float]] = []
    for idx in _sorted_order(periods_us):
        period = periods_us[idx]
        best_q, best_slot = math.inf, None
        for s in candidates(period, placed):
            q = _q_cyclic(_instants(placed + [(period, s)], lcm), lcm)
            if q < best_q - 1e-12:
                best_q, best_slot = q, s
        if best_slot is None:
            raise OversubscribedError(f"no collision-free offset for period {period}")
        offsets[idx] = best_slot
        placed.append((period, best_slot))
    return offsets


def allocate_greedy(periods_us: Sequence[float]) -> list[float]:
    """Greedy over the even grid {0, e, 2e, ...}, e = min(period)/n, each
    grid offset used at most once (all of them lie below every period)."""
    n = len(periods_us)
    if n == 0:
        raise ValueError("empty period vector")
    e = min(periods_us) / n
    slots = [i * e for i in range(n)]

    def unused(period, placed):
        taken = {o for _, o in placed}
        return [s for s in slots if s not in taken]

    return _greedy(periods_us, unused)


def _collides(p1_tenths: int, o1_tenths: int, p2_tenths: int, o2_tenths: int) -> bool:
    # k*p1 + o1 == m*p2 + o2 has a solution iff the offsets agree mod gcd.
    return (o1_tenths - o2_tenths) % math.gcd(p1_tenths, p2_tenths) == 0


def allocate_greedy_multilayer(periods_us: Sequence[float],
                               grid_step_us: float | None = None) -> list[float]:
    """Greedy allocation where a frame of period D may sit at any multiple
    of the grid step below D, so slow frames spread over their whole period.

    Grid points may be reused across frames whose periods keep them from
    ever colliding; candidate offsets that would collide are skipped.
    """
    n = len(periods_us)
    if n == 0:
        raise ValueError("empty period vector")
    if grid_step_us is None:
        # derived default, snapped down to the representable 0.1 us grid
        e_tenths = max(1, int(min(periods_us) * 10) // n)
    else:
        if not 0 < grid_step_us < math.inf:  # NaN fails too
            raise ValueError("grid step must be positive and finite")
        e_tenths = round(grid_step_us * 10)
        if e_tenths <= 0 or abs(e_tenths - grid_step_us * 10) > 1e-9:
            raise ValueError("grid step must sit on the 0.1 us grid")

    def candidates(period, placed):
        p = period_tenths(period)
        taken = [(period_tenths(p2), round(o2 * 10)) for p2, o2 in placed]
        return [k * e_tenths / 10.0 for k in range(p // e_tenths)
                if not any(_collides(p, k * e_tenths, *t) for t in taken)]

    return _greedy(periods_us, candidates)


def allocate_gcd(periods_us: Sequence[float], ifs_us: float = 500.0) -> list[float]:
    """Occupancy-matrix allocation at a fixed minimum inter-frame space.

    Offset rows are spaced ifs_us apart within the fastest period; columns
    are the hyperperiod's windows of G = gcd(periods). A frame of period D
    claims every (D/G)-th window of one row, starting at a free window;
    its offset is row*ifs_us + start_window*G.
    """
    if not 0 < ifs_us < math.inf:  # NaN fails too
        raise ValueError("minimum spacing must be positive and finite")
    if not periods_us:
        raise ValueError("empty period vector")
    ifs_tenths = round(ifs_us * 10)
    if ifs_tenths < 1:
        raise ValueError(f"minimum spacing {ifs_us:g} us rounds to 0 on the 0.1 us grid")
    ints = [period_tenths(p) for p in periods_us]
    g, lcm_v = math.gcd(*ints), math.lcm(*ints)
    ncols = lcm_v // g
    nrows = min(ints) // ifs_tenths
    if nrows < 1:
        raise OversubscribedError(f"spacing {ifs_us} us exceeds the fastest period")
    if nrows * ncols > MAX_INSTANTS:  # refused before a byte of the matrix is allocated
        raise OversubscribedError(
            f"occupancy matrix of {nrows} x {_g15(ncols)} cells exceeds {MAX_INSTANTS}: the "
            f"periods' lcm {_g15(lcm_v, 10)} us is {_g15(ncols)} times their gcd "
            f"{g / 10:.15g} us")
    free = np.ones((nrows, ncols), dtype=bool)
    row_tenths = np.rint(np.arange(nrows) * ifs_us * 10).astype(np.int64)
    offsets = [0.0] * len(periods_us)
    for idx, p_tenths in enumerate(ints):
        step = p_tenths // g
        # (row, start) fits when all its cells are free and its offset is below the period
        fits = free.reshape(nrows, -1, step).all(axis=1)
        fits &= np.arange(step) * g < p_tenths - row_tenths[:, None]
        first = int(np.argmax(fits))  # row-major, the order rows then starts were tried
        if not fits.flat[first]:
            usage = np.count_nonzero(~free) / free.size
            raise OversubscribedError(
                f"occupancy matrix exhausted at period {periods_us[idx]} us "
                f"(matrix {usage:.0%} full; reduce ifs_us or the frame count)")
        row, start = divmod(first, step)
        free[row, start::step] = False
        offsets[idx] = (int(row_tenths[row]) + start * g) / 10.0
    return offsets


ALLOCATORS = {
    "binary": allocate_binary_symmetric,
    "random": allocate_randomized,
    "greedy": allocate_greedy,
    "greedy-ml": allocate_greedy_multilayer,
    "gcd": allocate_gcd,
}
# each allocator's options, its parameters after the periods: name -> declared type
ALLOCATOR_OPTIONS = {name: {p.name: (get_args(p.annotation) or (p.annotation,))[0] for p in
                            [*inspect.signature(fn, eval_str=True).parameters.values()][1:]}
                     for name, fn in ALLOCATORS.items()}


def build_schedule(specs: Sequence[FrameSpec], algorithm: str, **options) -> Schedule:
    """Run one allocator over the specs' periods and attach the offsets. It takes
    the `options` ALLOCATOR_OPTIONS names for it; one no allocator takes is an error."""
    try:
        allocate = ALLOCATORS[algorithm]
    except KeyError:
        raise ValueError(f"unknown allocation algorithm {algorithm!r}") from None
    unknown = set(options).difference(*ALLOCATOR_OPTIONS.values())
    if unknown:
        raise ValueError(f"no allocator takes the options {sorted(unknown)}")
    offsets = allocate([f.period_us for f in specs],
                       **{k: v for k, v in options.items() if k in ALLOCATOR_OPTIONS[algorithm]})
    return Schedule(tuple(FrameSpec(f.id, f.period_us, off, f.payload_bits)
                          for f, off in zip(specs, offsets)))
