"""Oscillator model, clock offsets, and forced-delay classification."""

import math

import numpy as np
import pytest

from canto.clock_model import (DEFAULT_TICK_CLASSES, ClockModel, Jitter, classify_forced_delay,
                               cumulative_offset, forced_delay_ticks)

MS = 1000.0


def make_recording(clock, delta_us, n, rng=None):
    """Inter-arrivals a receiver sees for a sender with this clock."""
    sends = [clock.local_to_bus_time(k * delta_us, rng) for k in range(n + 1)]
    return np.diff(sends)


class TestLocalToBusTime:
    def test_identity(self):
        assert ClockModel().local_to_bus_time(100 * MS) == 100 * MS

    def test_positive_skew(self):
        clock = ClockModel(skew_ppm=100.0)
        assert clock.local_to_bus_time(100 * MS) == pytest.approx(100.01 * MS, abs=0.011)

    def test_quantization_floors(self):
        assert ClockModel().local_to_bus_time(123.4567) == pytest.approx(123.45)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ClockModel().local_to_bus_time(-1.0)

    def test_rejects_silly_parameters(self):
        with pytest.raises(ValueError):
            ClockModel(tick_ns=0)
        with pytest.raises(ValueError):
            ClockModel(skew_ppm=20000.0)


class TestJitter:
    def test_parse_round_trip(self):
        assert Jitter.parse("none").kind == "none"
        assert Jitter.parse("uniform:2.5").half_width_us == 2.5
        assert Jitter.parse("gaussian:0.5").sigma_us == 0.5
        j = Jitter.parse("steps:0.01,2,0.5")
        assert (j.prob, j.step_us, j.spread_us) == (0.01, 2.0, 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Jitter.parse("cauchy:1")

    def test_draws_respect_bound(self):
        rng = np.random.default_rng(0)
        for spec in (Jitter("uniform", half_width_us=2.0), Jitter("steps")):
            assert np.abs(spec.draws(rng, 2000)).max() <= spec.bound_us


def scalar_draw(jitter, rng):
    """One draw as scalar numpy calls, the way the simulator drew before it drew arrays."""
    if jitter.kind == "none":
        return 0.0
    if jitter.kind == "uniform":
        return float(rng.uniform(-jitter.half_width_us, jitter.half_width_us))
    if jitter.kind == "gaussian":
        return float(rng.normal(0.0, jitter.sigma_us))
    u = rng.random()
    level = -jitter.step_us if u < jitter.prob else jitter.step_us if u < 2 * jitter.prob else 0.0
    return level + float(rng.uniform(-jitter.spread_us / 2, jitter.spread_us / 2))


def stream(seed=11):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 2, 3))))


JITTERS = [Jitter(), Jitter("uniform", half_width_us=2.5), Jitter("gaussian", sigma_us=3.0),
           Jitter("steps"), Jitter("steps", prob=0.3, step_us=1.5, spread_us=0.25)]


class TestArrayDraws:
    @pytest.mark.parametrize("jitter", JITTERS, ids=lambda j: j.kind)
    def test_array_equals_scalar_draws_bit_for_bit(self, jitter):
        n = 5000
        rng = stream()
        want = np.array([scalar_draw(jitter, rng) for _ in range(n)])
        assert jitter.draws(stream(), n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("jitter", JITTERS, ids=lambda j: j.kind)
    def test_bus_times_equal_scalar_conversions(self, jitter):
        clock = ClockModel(skew_ppm=-37.5, jitter=jitter)
        local = (np.arange(400) * 1234.5678 + 0.005).tolist()
        tick_us = clock.tick_ns / 1000.0
        rng = stream()
        want = np.array([math.floor(t * (1.0 + clock.skew_ppm * 1e-6) / tick_us) * tick_us
                         + scalar_draw(jitter, rng) for t in local])
        rng = stream()
        viewed = np.array([clock.local_to_bus_time(t, rng) for t in local])
        got = clock.bus_times(local, stream())
        assert got.tobytes() == want.tobytes() == viewed.tobytes()

    def test_negative_local_time_rejected_on_array_path(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ClockModel().bus_times(np.array([5.0, -1.0, 7.0]))


class TestCumulativeOffset:
    def test_zero_offsets(self):
        assert list(cumulative_offset([10 * MS] * 3, 10 * MS)) == [0.0, 0.0, 0.0]

    def test_linear_accumulation(self):
        got = cumulative_offset([10.01 * MS, 10.01 * MS], 10 * MS)
        assert got == pytest.approx([10.0, 20.0])

    def test_skewed_sender_thousand_frames(self):
        clock = ClockModel(skew_ppm=100.0)
        rec = make_recording(clock, 100 * MS, 1000)
        offsets = cumulative_offset(rec, 100 * MS)
        assert offsets[-1] == pytest.approx(10 * MS, abs=0.02)

    def test_linearity_under_pure_skew(self):
        clock = ClockModel(skew_ppm=40.0)
        rec = make_recording(clock, 10 * MS, 500)
        offsets = cumulative_offset(rec, 10 * MS)
        per_frame = 40e-6 * 10 * MS
        expected = per_frame * np.arange(1, 501)
        assert np.allclose(offsets, expected, atol=0.011)  # within one tick


class TestReferenceClockSeparation:
    def test_ideal_bounded_while_warmup_clocks_diverge_under_load(self):
        # one-sided arbitration-blocking jitter, warm-up of 100 frames as
        # in the companion measurements, offsets tracked over the next 1400
        rng = np.random.default_rng(8)
        delta = 100 * MS
        blocking = 444.0  # one max-length frame at 250 kbps
        sends = np.arange(1501) * delta + rng.uniform(0, blocking, 1501)
        rec = np.diff(sends)
        ideal = cumulative_offset(rec, delta)  # the paper's a-priori reference
        assert np.max(np.abs(ideal)) <= 2 * blocking  # telescoping jitter only
        warmup = rec[:100]
        for slope in (warmup.min(), warmup.mean(), np.median(warmup)):
            diverged = cumulative_offset(rec, float(slope))
            assert abs(diverged[-1]) > np.max(np.abs(ideal))


class TestForcedDelay:
    @pytest.mark.parametrize("ticks,expect_ms", [
        (500, 100.005), (0, 100.0), (-250, 99.9975),
    ])
    def test_adjustment(self, ticks, expect_ms):
        assert forced_delay_ticks(100 * MS, ticks, 10) == pytest.approx(expect_ms * MS)

    def test_rejects_nonpositive_result(self):
        with pytest.raises(ValueError):
            forced_delay_ticks(0.001, -500, 10)

    def test_classifier_exact_without_jitter(self):
        for ticks in DEFAULT_TICK_CLASSES:
            period = forced_delay_ticks(100 * MS, ticks, 10)
            clock = ClockModel()
            rec = make_recording(clock, period, 50)
            assert classify_forced_delay(rec, 100 * MS) == ticks

    def test_classifier_under_uniform_jitter(self):
        rng = np.random.default_rng(42)
        hits = trials = 0
        for trial in range(100):
            ticks = DEFAULT_TICK_CLASSES[trial % len(DEFAULT_TICK_CLASSES)]
            period = forced_delay_ticks(100 * MS, ticks, 10)
            clock = ClockModel(jitter=Jitter("uniform", half_width_us=2.0))
            rec = make_recording(clock, period, 50, rng)
            hits += classify_forced_delay(rec, 100 * MS) == ticks
            trials += 1
        assert hits / trials >= 0.95
