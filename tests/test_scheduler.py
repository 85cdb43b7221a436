"""Allocation algorithms against hand traces and brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canto import scheduler
from canto.frame_model import CanId, FrameSpec, period_tenths
from canto.scheduler import (OversubscribedError, Schedule, ScheduleQuality,
                             allocate_binary_symmetric, allocate_gcd, allocate_greedy,
                             allocate_greedy_multilayer, allocate_randomized, build_schedule,
                             check_complete, schedule_quality, timestamps)

MS = 1000.0
PAPER_VECTOR = [10 * MS] * 6 + [20 * MS] * 8 + [50 * MS] * 12 + [100 * MS] * 14


def make_schedule(periods, offsets):
    return Schedule(tuple(FrameSpec(CanId(0x100 + i), p, o)
                          for i, (p, o) in enumerate(zip(periods, offsets))))


def cyclic_q(ts, horizon):
    """The allocators' objective: mean reciprocal gap with the wrap gap."""
    gaps = np.append(np.diff(ts), horizon - ts[-1] + ts[0])
    if np.any(gaps <= 0):
        return math.inf
    return float(np.sum(1000.0 / gaps) / len(ts))


def brute_force_best_q(periods, slots, horizon):
    """Exhaustive search over slot permutations, each slot rounded half up to a
    10 ns tick as the scheduler takes it; returns (best q, worst q)."""
    qs = []
    for perm in itertools.permutations(math.floor(100 * s + 0.5) for s in slots):
        ts = np.sort(np.concatenate([o + round(100 * p) * np.arange(round(horizon / p))
                                     for p, o in zip(periods, perm)]))
        q = cyclic_q(ts / 100, horizon)
        if math.isfinite(q):
            qs.append(q)
    return min(qs), max(qs)


class TestHyperperiod:
    def test_lcm_on_the_tenth_grid(self):
        # 0.3 * 10 is not exactly 3: the hyperperiod is 30 ms, 3 * 10^6 ticks of 10 ns
        ts = timestamps(make_schedule([10 * MS, 0.3], [0.0, 0.0]))
        assert len(ts) == 3 + 100_000 and ts[-1] == 3_000_000 - 30

    @pytest.mark.parametrize("periods", [[10000.05, 20 * MS], [0.05], [0.0]])
    def test_off_grid_or_zero_period_rejected(self, periods):
        # a Schedule's FrameSpecs refuse these periods before any lcm is taken
        with pytest.raises(ValueError, match="period"):
            for p in periods:
                period_tenths(p)


class TestTimestamps:
    def test_single_entry(self):
        s = make_schedule([10 * MS], [0.0])
        assert list(timestamps(s)) == [0.0]  # one hyperperiod

    def test_two_entries_interleave(self):
        s = make_schedule([10 * MS, 10 * MS], [0.0, 5 * MS])
        assert list(timestamps(s)) == [0, 500_000]  # ticks of 10 ns

    def test_all_zero_offsets_coincide_forty_fold(self):
        s = make_schedule(PAPER_VECTOR, [0.0] * 40)
        ts = timestamps(s)
        assert np.count_nonzero(ts == 0.0) == 40
        assert len(ts) == 6 * 10 + 8 * 5 + 12 * 2 + 14 * 1

    def test_listed_up_to_the_budget(self, monkeypatch):
        s = make_schedule(PAPER_VECTOR, [0.0] * 40)  # 138 instants, as above
        monkeypatch.setattr(scheduler, "MAX_INSTANTS", 138)
        assert len(timestamps(s)) == 138
        monkeypatch.setattr(scheduler, "MAX_INSTANTS", 137)
        with pytest.raises(OversubscribedError,
                           match="138 instants, over 137: the periods' lcm is 100000 us"):
            timestamps(s)

    def test_long_hyperperiod_refused_before_listing(self):
        # an lcm of about 1.0e29 us: numpy refuses an arange that long without allocating
        s = make_schedule([10000.1, 10000.3, 10000.7, 10000.9, 10001.1, 10001.3], [0.0] * 6)
        with pytest.raises(OversubscribedError, match=r"lcm is 1\.00044007530628e\+29 us"):
            schedule_quality(s)


class TestQFactor:
    """q of schedules whose hyperperiod holds the given instants, in ms."""

    @staticmethod
    def quality(instants_ms, hyperperiod_ms):
        return schedule_quality(make_schedule([hyperperiod_ms * MS] * len(instants_ms),
                                              [t * MS for t in instants_ms]))

    def test_unit_gaps(self):
        assert self.quality([0.0, 1.0, 2.0, 3.0], 4.0).q_per_ms == pytest.approx(0.75)

    def test_two_ms_gaps(self):
        assert self.quality([0.0, 2.0, 4.0], 6.0).q_per_ms == pytest.approx(1 / 3)

    def test_coincident_rejected(self):
        assert not self.quality([0.0, 0.0, 1.0], 2.0).complete

    @given(a=st.floats(0.1, 4.9), b=st.floats(0.1, 4.9))
    def test_evening_a_gap_lowers_q(self, a, b):
        # three points spanning [0, 10]: q drops as the split point nears the middle
        # offsets round to 10 ns ticks, so a margin of two ticks keeps the order
        if abs(a - 5.0) < abs(b - 5.0) - 2e-5:
            q_even = self.quality([0.0, a, 10.0], 20.0).q_per_ms
            q_skew = self.quality([0.0, b, 10.0], 20.0).q_per_ms
            assert q_even < q_skew


class TestBinarySymmetric:
    def test_two_frames(self):
        assert allocate_binary_symmetric([10 * MS, 10 * MS]) == [0.0, 5 * MS]

    def test_four_frames_second_split(self):
        assert allocate_binary_symmetric([10 * MS] * 4) == [0.0, 5 * MS, 2.5 * MS, 7.5 * MS]

    def test_paper_vector_extremes(self):
        q = schedule_quality(make_schedule(PAPER_VECTOR, allocate_binary_symmetric(PAPER_VECTOR)))
        assert q.complete
        assert q.min_ifs_us == pytest.approx(156.25)
        assert q.max_ifs_us == pytest.approx(2500.0)


class TestGreedy:
    def test_two_equal_frames(self):
        assert allocate_greedy([10 * MS, 10 * MS]) == [0.0, 5 * MS]

    def test_matches_exhaustive_on_two(self):
        offs = allocate_greedy([10 * MS, 20 * MS])
        ts = timestamps(make_schedule([10 * MS, 20 * MS], offs))
        best, _ = brute_force_best_q([10 * MS, 20 * MS], [0.0, 5 * MS], 20 * MS)
        assert cyclic_q(ts / 100, 20 * MS) == pytest.approx(best)

    @pytest.mark.parametrize("periods", [
        [10 * MS, 10 * MS, 20 * MS],
        [10 * MS, 20 * MS, 20 * MS, 40 * MS],
        [10 * MS] * 5,
        [10 * MS, 10 * MS, 50 * MS, 50 * MS, 100 * MS],
    ])
    def test_sandwich_property(self, periods):
        # greedy lands between the exhaustive best and worst permutation
        n = len(periods)
        e = min(periods) / n
        slots = [i * e for i in range(n)]
        horizon = math.lcm(*map(period_tenths, periods)) / 10
        best, worst = brute_force_best_q(periods, slots, horizon)
        offs = allocate_greedy(periods)
        q = cyclic_q(timestamps(make_schedule(periods, offs)) / 100, horizon)
        assert best - 1e-9 <= q <= worst + 1e-9

    def test_paper_vector_extremes(self):
        q = schedule_quality(make_schedule(PAPER_VECTOR, allocate_greedy(PAPER_VECTOR)))
        assert q.complete
        assert q.min_ifs_us == pytest.approx(250.0)


class TestRandomized:
    def test_symmetric_two_frames(self):
        for seed in (0, 1, 99):
            offs = allocate_randomized([10 * MS, 10 * MS], 10, seed)
            assert sorted(offs) == [0.0, 5 * MS]

    def test_single_iteration_is_single_sample(self):
        offs = allocate_randomized([10 * MS, 10 * MS, 10 * MS], 1, seed=4)
        assert sorted(offs) == [0.0, 10 * MS / 3, 20 * MS / 3]

    def test_deterministic_per_seed(self):
        a = allocate_randomized(PAPER_VECTOR, 20, seed=3)
        b = allocate_randomized(PAPER_VECTOR, 20, seed=3)
        assert a == b

    def test_more_iterations_never_worse(self):
        q10 = schedule_quality(make_schedule(PAPER_VECTOR, allocate_randomized(PAPER_VECTOR, 10, 7))).q_per_ms
        q100 = schedule_quality(make_schedule(PAPER_VECTOR, allocate_randomized(PAPER_VECTOR, 100, 7))).q_per_ms
        assert q100 <= q10 + 1e-12

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            allocate_randomized([10 * MS], 0)

    def test_ten_thousand_iterations_reach_reference_bound(self):
        offs = allocate_randomized(PAPER_VECTOR, 10_000, seed=1)
        q = schedule_quality(make_schedule(PAPER_VECTOR, offs)).q_per_ms
        assert q <= 2.6


class TestGreedyMultilayer:
    def test_single_frame(self):
        assert allocate_greedy_multilayer([10 * MS]) == [0.0]

    def test_complete_with_reuse(self):
        periods = [10 * MS, 20 * MS, 20 * MS]
        offs = allocate_greedy_multilayer(periods, grid_step_us=5 * MS)
        s = make_schedule(periods, offs)
        assert check_complete(s)
        # enumeration oracle over the 20 ms hyperperiod
        ts = timestamps(s)
        assert len(set(ts.tolist())) == len(ts)

    def test_slow_frames_use_their_whole_period(self):
        offs = allocate_greedy_multilayer(PAPER_VECTOR, grid_step_us=250.0)
        assert max(offs) >= 10 * MS  # beyond the flat allocator's window
        q = schedule_quality(make_schedule(PAPER_VECTOR, offs))
        assert q.complete
        assert q.min_ifs_us == pytest.approx(500.0)

    def test_periods_past_int64(self):
        assert allocate_greedy_multilayer([1e18, 1e18]) == [0.0, 5e17]

    def test_impossible_grid_raises(self):
        with pytest.raises(OversubscribedError):
            allocate_greedy_multilayer([10 * MS, 10 * MS, 10 * MS], grid_step_us=5 * MS)


# Offsets recorded from the separate greedy and greedy-ml placement loops,
# before they were merged; None marks an OversubscribedError. Columns:
# periods (ms), greedy, greedy-ml at the derived grid, greedy-ml at 500 us.
PINNED_OFFSETS = [
    ([10, 10, 20],
     [0.0, 3333.3333333333335, 6666.666666666667],
     [0.0, 6666.6, 3333.3],
     [0.0, 5000.0, 2500.0]),
    ([10, 12.5, 15],
     [0.0, 3333.3333333333335, 6666.666666666667],
     [0.0, 6666.6, 3333.3],
     [0.0, 1000.0, 2500.0]),
    ([12.5, 15, 20, 25, 50],
     None,
     None,
     [0.0, 1000.0, 3500.0, 19500.0, 8500.0]),
    ([10, 20, 20, 50, 100, 100],
     [0.0, 5000.0, 1666.6666666666667, 6666.666666666667, 3333.3333333333335, 8333.333333333334],
     [0.0, 4999.8, 14999.4, 48331.4, 88329.8, 78330.2],
     [0.0, 5000.0, 15000.0, 2500.0, 7500.0, 12500.0]),
    ([7.5, 10, 15, 15, 30],
     [0.0, 1500.0, 4500.0, 3000.0, 6000.0],
     [0.0, 1500.0, 4500.0, 10500.0, 16500.0],
     [0.0, 1000.0, 3500.0, 12500.0, 25000.0]),
    ([10, 15, 15, 15],
     None,
     [0.0, 2500.0, 7500.0, 12500.0],
     [0.0, 2500.0, 7500.0, 12500.0]),
]
GREEDY_VARIANTS = {
    "greedy": allocate_greedy,
    "greedy-ml": allocate_greedy_multilayer,
    "greedy-ml-500": lambda periods: allocate_greedy_multilayer(periods, grid_step_us=500.0),
}


@pytest.mark.parametrize("variant", list(GREEDY_VARIANTS))
@pytest.mark.parametrize("row", PINNED_OFFSETS, ids=lambda row: "-".join(map(str, row[0])))
def test_greedy_offsets_pinned(variant, row):
    periods = [p * MS for p in row[0]]
    want = row[1 + list(GREEDY_VARIANTS).index(variant)]
    if want is None:
        with pytest.raises(OversubscribedError):
            GREEDY_VARIANTS[variant](periods)
    else:
        assert GREEDY_VARIANTS[variant](periods) == want


class TestGcd:
    def test_hand_trace(self):
        assert allocate_gcd([10 * MS, 20 * MS], ifs_us=500.0) == [0.0, 500.0]

    def test_paper_vector_complete_and_spaced(self):
        offs = allocate_gcd(PAPER_VECTOR, ifs_us=500.0)
        s = make_schedule(PAPER_VECTOR, offs)
        assert check_complete(s)  # enumeration over lcm = 100 ms
        assert schedule_quality(s).min_ifs_us == pytest.approx(500.0)

    def test_paper_vector_at_600us(self):
        offs = allocate_gcd(PAPER_VECTOR, ifs_us=600.0)
        q = schedule_quality(make_schedule(PAPER_VECTOR, offs))
        assert q.complete
        assert q.min_ifs_us == pytest.approx(600.0)

    def test_offsets_stay_below_periods(self):
        offs = allocate_gcd(PAPER_VECTOR, ifs_us=500.0)
        assert all(0 <= o < p for o, p in zip(offs, PAPER_VECTOR))

    def test_matrix_exhaustion(self):
        with pytest.raises(OversubscribedError):
            allocate_gcd([10 * MS] * 25, ifs_us=500.0)

    def test_rejects_oversized_spacing(self):
        with pytest.raises(OversubscribedError):
            allocate_gcd([10 * MS], ifs_us=20 * MS)


def oracle_allocate_gcd(periods_us, ifs_us=500.0):
    """The gcd allocator as a loop over lists of cells, one cell at a time."""
    if not 0 < ifs_us < math.inf:  # NaN fails too
        raise ValueError("minimum spacing must be positive and finite")
    if not periods_us:
        raise ValueError("empty period vector")
    if round(ifs_us * 10) < 1:
        raise ValueError(f"minimum spacing {ifs_us:g} us rounds to 0 on the 0.1 us grid")
    ints = [period_tenths(p) for p in periods_us]
    g = 0
    lcm_v = 1
    for v in ints:
        g = math.gcd(g, v)
        lcm_v = math.lcm(lcm_v, v)
    ncols = lcm_v // g
    nrows = int(min(ints) // round(ifs_us * 10))
    if nrows < 1:
        raise OversubscribedError(f"spacing {ifs_us} us exceeds the fastest period")
    free = [[True] * ncols for _ in range(nrows)]
    offsets = [0.0] * len(periods_us)
    for idx, p_tenths in enumerate(ints):
        step = p_tenths // g
        count = lcm_v // p_tenths
        placed = False
        for j in range(nrows):
            row = free[j]
            for start in range(min(step, ncols)):
                cells = range(start, start + count * step, step)
                offset_tenths = round(j * ifs_us * 10) + start * g
                if offset_tenths >= p_tenths:
                    break  # larger starts only grow the offset
                if all(row[c] for c in cells):
                    for c in cells:
                        row[c] = False
                    offsets[idx] = offset_tenths / 10.0
                    placed = True
                    break
            if placed:
                break
        if not placed:
            usage = sum(1 for r in free for c in r if not c) / (nrows * ncols)
            raise OversubscribedError(
                f"occupancy matrix exhausted at period {periods_us[idx]} us "
                f"(matrix {usage:.0%} full; reduce ifs_us or the frame count)")
    return offsets


@st.composite
def gcd_cases(draw):
    """Periods on the 0.1 us grid whose lcm/gcd stays small, and a spacing
    from a fiftieth of the fastest period to past it."""
    unit = draw(st.sampled_from([1, 3, 7, 25, 100, 999, 5000]))  # tenths
    periods = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12, 20]).map(
        lambda m: unit * m / 10), min_size=1, max_size=30))
    return periods, min(periods) * draw(st.floats(0.02, 1.2))


class TestGcdAgainstCellLoop:
    @settings(max_examples=300, deadline=None)
    @given(gcd_cases())
    def test_same_offsets_or_same_refusal(self, case):
        periods, ifs_us = case
        try:
            want = oracle_allocate_gcd(periods, ifs_us)
        except ValueError as exc:  # OversubscribedError, or a spacing under 0.05 us
            with pytest.raises(type(exc)) as got:
                allocate_gcd(periods, ifs_us)
            assert str(got.value) == str(exc)
        else:
            assert allocate_gcd(periods, ifs_us) == want

    def test_huge_matrix_is_refused_before_it_is_built(self):
        # lcm 99999900 tenths over gcd 1: 10^8 columns in 19 rows
        with pytest.raises(OversubscribedError, match="lcm 999990000 us .* gcd 0.1 us"):
            allocate_gcd([9999.9, 10000.0], ifs_us=500.0)


class TestCheckComplete:
    def test_complete_pair(self):
        assert check_complete(make_schedule([10 * MS, 20 * MS], [0.0, 5 * MS]))

    def test_colliding_pair(self):
        assert not check_complete(make_schedule([10 * MS, 20 * MS], [0.0, 0.0]))

    def test_one_instant_is_complete(self):
        s = make_schedule([10 * MS], [2.5 * MS])
        assert check_complete(s)
        assert schedule_quality(s) == ScheduleQuality(0.0, 0.0, 0.0, True)

    @given(st.lists(st.tuples(st.sampled_from([5.0, 10.0, 12.5, 15.0, 20.0]),
                              st.integers(0, 79), st.sampled_from([250.0, 156.25])),
                    min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_one_rule_for_both(self, frames):
        # offsets on a 0.25 ms grid, or on binary's 156.25 us grid off the 0.1 us one,
        # below each period, so collisions are common; their float instants are exact
        periods = [p * MS for p, _, _ in frames]
        offsets = [k * step % p for p, (_, k, step) in zip(periods, frames)]
        s = make_schedule(periods, offsets)
        # oracle: two frames collide iff their offsets agree modulo the gcd of their
        # periods, in exact twentieths of a us
        twentieths = [(round(p * 20), round(o * 20)) for p, o in zip(periods, offsets)]
        distinct = all((o1 - o2) % math.gcd(p1, p2)
                       for (p1, o1), (p2, o2) in itertools.combinations(twentieths, 2))
        assert check_complete(s) == schedule_quality(s).complete == distinct

    @given(st.lists(st.tuples(st.sampled_from([100001, 100003, 200002, 300003]),
                              st.integers(0, 300002)), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_odd_and_unit_gcds(self, frames):
        # 10000.1 and 10000.3 us have a gcd of one tenth, 10000.1 and 20000.2 an odd one;
        # float instants k * 10000.1 lose those meetings, so the oracle lists the
        # hyperperiod's instants in whole tenths, all of them below 2^24
        tenths = [(p, k % p) for p, k in frames]
        s = make_schedule([p / 10 for p, _ in tenths], [o / 10 for _, o in tenths])
        lcm = math.lcm(*(p for p, _ in tenths))
        instants = np.concatenate([o + p * np.arange(lcm // p) for p, o in tenths])
        assert check_complete(s) == (len(np.unique(instants)) == len(instants))

    def test_off_grid_offsets_round_half_up(self):
        # 156.25 and 10156.75 us are one 10000.5 us period apart, which divides 20001 us;
        # rounded half to even they would be 1562 and 101568 tenths, one too far apart
        s = make_schedule([10000.5, 20001.0], [156.25, 10156.75])
        assert not check_complete(s) and not schedule_quality(s).complete

    def test_offset_rounding_up_to_its_period_wraps(self):
        # 9999.999 us rounds half up to 10^6 ticks, the period itself, so the offset is 0
        s = make_schedule([10 * MS, 10 * MS], [0.0, 9999.999])
        assert not check_complete(s) and not schedule_quality(s).complete

    def test_lists_no_instants(self, monkeypatch):
        complete = make_schedule(PAPER_VECTOR, allocate_gcd(PAPER_VECTOR, ifs_us=600.0))
        monkeypatch.setattr(scheduler, "MAX_INSTANTS", 1)
        with pytest.raises(OversubscribedError, match="over 1:"):
            schedule_quality(complete)
        assert check_complete(complete)
        assert not check_complete(make_schedule(PAPER_VECTOR, [0.0] * 40))

    def test_periods_past_int64(self):
        # 10^19 and 2*10^19 tenths of a us are past int64: the rule takes Python ints
        periods = [1e18, 2e18]
        assert check_complete(make_schedule(periods, [0.0, 5e17]))
        assert not check_complete(make_schedule(periods, [0.0, 1e18]))

    def test_hyperperiod_past_int64(self):
        # 6e18 and 9e18 ticks fit int64, their lcm of 1.8e19 ticks does not: the stream at 0
        # (0, 6e18 and 1.2e19 ticks) meets the one at 3e18 (3e18 and 1.2e19) at 1.2e19
        s = make_schedule([6e16, 9e16], [0.0, 3e16])
        assert schedule_quality(s) == ScheduleQuality(math.inf, 0.0, 6e16, False)
        assert not check_complete(s)
        assert check_complete(make_schedule([6e16, 9e16], [0.0, 1e16]))
        assert schedule_quality(make_schedule([6e16, 9e16], [0.0, 1e16])).min_ifs_us == 1e16


# periods on the 0.1 us grid: 10000.1 and 10000.3 us have a gcd of one tenth, and
# 10000.1 and 20000.2 us an odd one, so float instants k * p + o miss their meetings
TENTH_GRID_PERIODS = [1000.0, 2500.0, 3000.3, 5000.0, 10000.0, 10000.1, 10000.3, 20000.2]


def instant_count(periods):
    lcm = math.lcm(*map(period_tenths, periods))
    return sum(lcm // period_tenths(p) for p in periods)


@st.composite
def one_grid_schedules(draw):
    """2 to 4 frames whose hyperperiod holds at most 2^19 instants, at offsets on the
    0.1 us grid, on the 10 ns grid or uniform in [0, p)."""
    periods = [draw(st.sampled_from(TENTH_GRID_PERIODS))]
    for _ in range(draw(st.integers(1, 3))):
        fits = [p for p in TENTH_GRID_PERIODS if instant_count([*periods, p]) <= 1 << 19]
        if fits:
            periods.append(draw(st.sampled_from(fits)))
    offsets = [draw(st.one_of(st.integers(0, round(10 * p) - 1).map(lambda k: k / 10),
                              st.integers(0, round(100 * p) - 1).map(lambda k: k / 100),
                              st.floats(0, p, exclude_max=True))) for p in periods]
    return make_schedule(periods, offsets)


class TestOneGrid:
    @given(one_grid_schedules())
    @settings(max_examples=40, deadline=None)
    def test_quality_and_pair_rule_agree(self, s):
        assert schedule_quality(s).complete == check_complete(s)


ALGORITHMS = ["binary", "random", "greedy", "greedy-ml", "gcd"]


class TestAllAllocators:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_offsets_in_range_and_complete(self, algorithm):
        specs = [FrameSpec(CanId(0x100 + i), p) for i, p in enumerate(PAPER_VECTOR)]
        sched = build_schedule(specs, algorithm, ifs_us=500.0, seed=7)
        assert all(0 <= f.offset_us < f.period_us for f in sched.frames)
        assert check_complete(sched)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            build_schedule([FrameSpec(CanId(1), 10 * MS)], "simulated-annealing")

    def test_option_no_allocator_takes_is_rejected(self):
        specs = [FrameSpec(CanId(1), 10 * MS), FrameSpec(CanId(2), 20 * MS)]
        with pytest.raises(ValueError, match="max_iterations"):
            build_schedule(specs, "random", max_iterations=20)
        with pytest.raises(ValueError, match="periods_us"):
            build_schedule(specs, "gcd", periods_us=[1.0])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_option_another_allocator_takes_is_ignored(self, algorithm):
        # the benchmark's allocator table hands every allocator both
        specs = [FrameSpec(CanId(1), 10 * MS), FrameSpec(CanId(2), 20 * MS)]
        assert check_complete(build_schedule(specs, algorithm, ifs_us=500.0, seed=3))

    def test_colliding_output_is_incomplete(self):
        # gcd(10, 15) = 5 ms: binary's in-window offsets cannot de-collide
        specs = [FrameSpec(CanId(1), 10 * MS), FrameSpec(CanId(2), 15 * MS)]
        assert schedule_quality(build_schedule(specs, "binary")).complete is False

    @given(extra=st.lists(st.sampled_from([10 * MS, 20 * MS, 50 * MS, 100 * MS]),
                          min_size=0, max_size=7))
    @settings(max_examples=20, deadline=None)
    def test_complete_on_vehicle_like_vectors(self, extra):
        # any mix of the four production periods that includes the fastest
        periods = [10 * MS] + extra
        specs = [FrameSpec(CanId(0x100 + i), p) for i, p in enumerate(periods)]
        for algorithm in ALGORITHMS:
            sched = build_schedule(specs, algorithm, ifs_us=500.0, iterations=20)
            assert all(0 <= f.offset_us < f.period_us for f in sched.frames)
            assert check_complete(sched)
