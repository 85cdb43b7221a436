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


class OversubscribedError(ValueError):
    """The requested spacing, evaluation budget or offsets cannot accommodate all frames."""


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


def _g15(number: int, divisor: int = 1) -> str:
    """number / divisor as '.15g' writes a float that holds it, also past the largest float."""
    from decimal import Context  # imported on these error paths only: it costs 0.4 MB
    value = Context(prec=15).divide(number, divisor)  # 15 digits, half to even: a float keeps them
    return format(float(value), ".15g") if value.adjusted() < 308 else f"{value.normalize():e}"


def _periods(periods_us) -> np.ndarray:
    """Periods in us as ticks of 10 ns, schedule time's one unit: int64 or, past it, Python ints."""
    p = [10 * period_tenths(x) for x in periods_us]
    return np.array(p, dtype=object if max(p, default=0) >> 63 else np.int64)


def _offsets(offsets_us, p: np.ndarray) -> np.ndarray:
    """Offsets in us as ticks below their periods p: rounded half up, floor(100*o + 0.5),
    which keeps whole-tick spacings, and wrapped, so one that rounds up to p is 0."""
    return np.array([math.floor(100 * o + 0.5) for o in offsets_us], dtype=p.dtype) % p


def _streams(schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's (period, offset) as two arrays of ticks."""
    p = _periods([f.period_us for f in schedule.frames])
    return p, _offsets([f.offset_us for f in schedule.frames], p)


def _steps(p: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """The periods' lcm L and k*p for each k below L // p, for each period p, in ticks: int64,
    or Python ints once L passes int64. Over MAX_INSTANTS in all are refused first."""
    lcm = math.lcm(*p.tolist())
    counts = [lcm // x for x in p.tolist()]
    if sum(counts) > MAX_INSTANTS:
        raise OversubscribedError(f"one hyperperiod holds {_g15(sum(counts))} instants, over "
                                  f"{MAX_INSTANTS}: the periods' lcm is {_g15(lcm, 100)} us")
    dtype = object if lcm >> 63 else np.int64
    return lcm, [x * np.arange(n, dtype=dtype) for x, n in zip(p.tolist(), counts)]


def _instants(steps: list[np.ndarray], offsets: list[int]) -> np.ndarray:
    """The instants of streams of `_steps` steps at offsets in ticks, ascending."""
    return np.sort(np.concatenate([np.empty(0, np.int64), *map(np.add, steps, offsets)]))


def timestamps(schedule: Schedule) -> np.ndarray:
    """Sorted multiset of theoretical transmission instants in one hyperperiod, in 10 ns ticks."""
    p, o = _streams(schedule)
    return _instants(_steps(p)[1], o.tolist())


def _q_cyclic(ts: np.ndarray, lcm: int) -> float:
    """Allocator-internal objective: q with the wrap-around gap included.

    Periodic schedules have no distinguished origin, so candidate offsets
    are ranked on the cyclic gaps of ts over lcm ticks; a collision yields infinity.
    """
    gaps = np.append(np.diff(ts), lcm - ts[-1] + ts[0]) / 100
    if np.any(gaps <= 0):
        return math.inf
    return float(np.sum(1000.0 / gaps) / len(ts))


def schedule_quality(schedule: Schedule) -> ScheduleQuality:
    """q and the extreme gaps over one hyperperiod. The schedule is complete
    iff no two instants coincide, so one instant per hyperperiod is complete,
    with q and both gaps 0."""
    gaps = np.diff(timestamps(schedule)) / 100  # in us
    if not np.all(gaps > 0):
        return ScheduleQuality(math.inf, 0.0, float(gaps.max()), False)
    if not gaps.size:
        return ScheduleQuality(0.0, 0.0, 0.0, True)
    return ScheduleQuality(float(np.sum(1000.0 / gaps) / (gaps.size + 1)), float(gaps.min()),
                           float(gaps.max()), True)


def check_complete(schedule: Schedule) -> bool:
    """True iff no two frames' streams k*p + o, as `_streams` takes them, ever meet:
    two meet iff their offsets agree modulo the gcd of their periods."""
    p, o = _streams(schedule)
    return not np.tril((o[:, None] - o) % np.gcd(p[:, None], p) == 0, -1).any()


def allocate_binary_symmetric(periods_us: Sequence[float]) -> list[float]:
    """Recursive bin splitting over [0, w], w = fastest period.

    The first frame sits at 0; every splitting pass adds the midpoints of
    the existing bins (w/2, then w/4 and 3w/4, ...) until each period has
    an offset. Returns offsets aligned with the input order.
    """
    if not periods_us:
        raise ValueError("empty period vector")
    order = np.argsort(periods_us, kind="stable").tolist()
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
    p = _periods(periods_us)
    lcm, steps = _steps(p)
    rng = np.random.Generator(np.random.PCG64(seed))
    best_q, best = math.inf, None
    for _ in range(iterations):
        perm = rng.permutation(slots)
        q = _q_cyclic(_instants(steps, _offsets(perm, p).tolist()), lcm)
        if q < best_q:
            best_q, best = q, perm
    if best is None:
        raise OversubscribedError("no random permutation was collision-free")
    return [float(x) for x in best]


def _greedy(periods_us: Sequence[float], candidates) -> list[float]:
    """Place the periods in ascending order, each at the offset among `candidates(p, taken)`
    (p its period in ticks as a 1-array, taken the offsets so far) that meets no placed
    stream and gives the lowest cyclic q; ties go to the earliest candidate."""
    p = _periods(periods_us)
    lcm, steps = _steps(p)
    offsets, taken, ts = [0.0] * len(p), [], _instants([], [])  # ts: the placed instants
    for idx in np.argsort(periods_us, kind="stable").tolist():  # ties in input order
        slots = np.asarray(candidates(p[idx:idx + 1], taken), dtype=np.float64)
        best_q, best = math.inf, None
        for s, t in zip(slots.tolist(), _offsets(slots, p[idx:idx + 1]).tolist()):
            merged = _instants([ts, steps[idx]], [0, t])
            q = _q_cyclic(merged, lcm)  # infinite where the candidate meets a placed stream
            if q < best_q - 1e-12:
                best_q, best = q, (s, merged)
        if best is None:
            raise OversubscribedError(f"no collision-free offset for period {periods_us[idx]}")
        offsets[idx], ts = best
        taken.append(offsets[idx])
    return offsets


def allocate_greedy(periods_us: Sequence[float]) -> list[float]:
    """Greedy over the even grid {0, e, 2e, ...}, e = min(period)/n, each
    grid offset used at most once (all of them lie below every period)."""
    n = len(periods_us)
    if n == 0:
        raise ValueError("empty period vector")
    e = min(periods_us) / n
    slots = [i * e for i in range(n)]

    def unused(p, taken):
        return [s for s in slots if s not in taken]

    return _greedy(periods_us, unused)


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

    def grid(p, taken):
        return np.arange(p[0] // (10 * e_tenths), dtype=p.dtype) * e_tenths / 10

    return _greedy(periods_us, grid)


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
