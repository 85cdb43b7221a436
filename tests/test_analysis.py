"""Deviation series, channel matrices, capacity, success tables, histograms."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from canto.analysis import (MAX_BINS, CapacityError, blahut_arimoto, deviation_series,
                            exact_adversary_rate, extract_channel_matrix, histogram,
                            mc_adversary_rate)
from canto.bus_sim import BusConfig, NodeConfig, inject_adversary, simulate
from canto.cli import main
from canto.clock_model import ClockModel, Jitter
from canto.frame_model import CanId, FrameSpec
from canto.incanta import CovertConfig

MS = 1000.0
KEY = bytes(range(16))


def banded_matrix(n, width):
    """Uniform noise band of the given odd width, clamped at the edges."""
    m = np.zeros((n, n))
    half = width // 2
    for x in range(n):
        for d in range(-half, half + 1):
            m[x, min(max(x + d, 0), n - 1)] += 1.0 / width
    return m


def reference_blahut_arimoto(p, tolerance):
    """The elementwise form of the iteration: the divergence as a masked sum
    over the whole matrix in every step."""
    m = p.shape[0]
    r = np.full(m, 1.0 / m)
    log_p = np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0)
    for iteration in range(1, 100_001):
        q_y = r @ p
        div = np.sum(np.where(p > 0, p * (log_p - np.log(np.maximum(q_y, 1e-300))), 0.0),
                     axis=1)
        lower = math.log(float(np.sum(r * np.exp(div))))
        if float(np.max(div)) - lower < tolerance * math.log(2.0):
            return lower / math.log(2.0), iteration
        r = r * np.exp(div)
        r /= r.sum()
    raise AssertionError("reference did not converge")


class TestBlahutArimoto:
    def test_matches_elementwise_reference(self):
        # the matrix form sums in another order, so the capacity may move by
        # a few ulps; the iteration count must not move
        rng = np.random.default_rng(3)
        cases = [(banded_matrix(64, w), 1e-4) for w in (3, 5, 11)]
        cases += [(rng.dirichlet(np.full(n, 0.3), size=n), 1e-7) for n in (2, 7, 40)]
        for m, tolerance in cases:
            want, want_iters = reference_blahut_arimoto(m, tolerance)
            got, iters = blahut_arimoto(m, tolerance=tolerance, max_iterations=100_000)
            assert iters == want_iters
            assert abs(got - want) <= 4 * math.ulp(want)

    def test_noiseless_channels_are_exact(self):
        assert blahut_arimoto(np.eye(256), tolerance=1e-9) == (8.0, 1)
        assert blahut_arimoto(np.eye(25), tolerance=1e-9) == (math.log2(25), 1)
        assert blahut_arimoto(np.full((2, 2), 0.5)) == (0.0, 1)

    def test_identity_256_is_8_bits(self):
        capacity, iters = blahut_arimoto(np.eye(256), tolerance=1e-9)
        assert abs(capacity - 8.0) < 1e-6
        assert iters >= 1

    def test_useless_symmetric_channel(self):
        capacity, _ = blahut_arimoto(np.full((2, 2), 0.5))
        assert abs(capacity) < 1e-9

    def test_25_symbol_noiseless(self):
        capacity, _ = blahut_arimoto(np.eye(25), tolerance=1e-9)
        assert capacity == pytest.approx(math.log2(25), abs=1e-9)

    def test_capacity_bounded_by_alphabet(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 17):
            m = rng.dirichlet(np.ones(n), size=n)
            capacity, _ = blahut_arimoto(m, tolerance=1e-7)
            assert -1e-9 <= capacity <= math.log2(n) + 1e-9

    def test_rank_one_channel_has_zero_capacity(self):
        row = np.random.default_rng(1).dirichlet(np.ones(8))
        capacity, _ = blahut_arimoto(np.tile(row, (8, 1)))
        assert abs(capacity) < 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        m = banded_matrix(32, 5)
        base, _ = blahut_arimoto(m, tolerance=1e-6, max_iterations=100_000)
        rows, cols = rng.permutation(32), rng.permutation(32)
        permuted, _ = blahut_arimoto(m[rows][:, cols], tolerance=1e-6,
                                     max_iterations=100_000)
        assert permuted == pytest.approx(base, abs=1e-5)

    def test_noise_widening_lowers_capacity(self):
        caps = [blahut_arimoto(banded_matrix(64, w), tolerance=1e-4,
                               max_iterations=100_000)[0]
                for w in (1, 3, 5, 11)]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_rejects_non_stochastic(self):
        with pytest.raises(CapacityError):
            blahut_arimoto(np.ones((3, 3)))

    def test_non_convergence_raises(self):
        with pytest.raises(CapacityError, match="convergence"):
            blahut_arimoto(banded_matrix(64, 5), tolerance=1e-15, max_iterations=3)


class TestHistogram:
    def test_all_equal(self):
        starts, counts = histogram([0.0, 0.0, 0.0], 1.0)
        assert list(starts) == [0.0] and list(counts) == [3]

    def test_two_bins(self):
        starts, counts = histogram([0.4, 1.6], 1.0)
        assert list(starts) == [0.0, 1.0] and list(counts) == [1, 1]

    def test_negative_values_align_to_grid(self):
        starts, counts = histogram([-0.5, 0.5], 1.0)
        assert list(starts) == [-1.0, 0.0] and list(counts) == [1, 1]

    def test_uniform_within_binomial_bound(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 10, 100_000)
        _, counts = histogram(x, 1.0)
        sigma = math.sqrt(100_000 * 0.1 * 0.9)
        assert len(counts) == 10
        assert np.all(np.abs(counts - 10_000) <= 3 * sigma)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            histogram([1.0], 0.0)

    def test_refuses_more_than_max_bins(self):
        with pytest.raises(ValueError, match=f"exceed {MAX_BINS}"):
            histogram([0.0, float(MAX_BINS)], 1.0)

    def test_one_bin_numbered_beyond_int64(self):
        starts, counts = histogram([0.5, 0.5], 1e-300)
        assert list(counts) == [2] and starts[0] == math.floor(0.5 / 1e-300) * 1e-300


def run_covert(jitter, duration_us, seed=3, stuffing="none", skew_ppm=0.0):
    cov = CovertConfig(key=KEY, level_bits=8, tolerance_us=5.0)
    spec = FrameSpec(CanId(0x100), 10 * MS, 0.0, 64)
    clock = ClockModel(skew_ppm=skew_ppm, jitter=jitter)
    cfg = BusConfig((NodeConfig("ecu", clock, (spec,), cov),), duration_us,
                    seed=seed, stuffing=stuffing)
    return simulate(cfg), cov, {spec.id: spec.period_us}


class TestDeviationSeries:
    def test_zero_jitter_is_exactly_zero(self):
        trace, cov, periods = run_covert(Jitter(), 300 * MS)
        devs = deviation_series(trace, periods, cov)
        assert np.all(devs[CanId(0x100)] == 0.0)

    def test_unknown_id_raises(self):
        trace, cov, _ = run_covert(Jitter(), 300 * MS)
        with pytest.raises(KeyError):
            deviation_series(trace, {CanId(0x7): 10 * MS}, cov)

    def test_without_covert_config_sees_delay_spread(self):
        """A receiver without the sender's key decodes with another one."""
        trace, cov, periods = run_covert(Jitter(), 300 * MS)
        wrong = replace(cov, key=bytes(range(1, 17)))
        devs = deviation_series(trace, periods, wrong)[CanId(0x100)]
        assert np.max(np.abs(devs)) > 50.0  # delays from another key look like jitter

    def test_stuffing_variation_stays_within_ten_us(self):
        trace, cov, periods = run_covert(Jitter(), 2000 * MS, stuffing="payload")
        devs = deviation_series(trace, periods, cov, compensate_frame_length=False)
        assert 0.0 < np.max(np.abs(devs[CanId(0x100)])) <= 10.0

    def test_compensation_removes_stuffing_noise(self):
        trace, cov, periods = run_covert(Jitter(), 2000 * MS, stuffing="payload")
        devs = deviation_series(trace, periods, cov, compensate_frame_length=True)
        assert np.all(devs[CanId(0x100)] == 0.0)

    def test_calibrated_steps_jitter_matches_envelope(self):
        trace, cov, periods = run_covert(Jitter("steps"), 60_000 * MS)
        devs = deviation_series(trace, periods, cov)[CanId(0x100)]
        lo, hi = devs.min(), devs.max()
        assert -4.62 - 1.0 <= lo <= -4.62 + 1.0
        assert 4.87 - 1.0 <= hi <= 4.87 + 1.0


class TestChannelMatrix:
    def test_zero_jitter_gives_identity(self):
        trace, cov, periods = run_covert(Jitter(), 30_000 * MS)
        with pytest.warns(UserWarning, match="sparse"):
            m = extract_channel_matrix(trace, cov, periods)
        assert np.all(np.abs(m.sum(axis=1) - 1.0) < 1e-9)
        assert np.trace(m) == pytest.approx(256.0, abs=1e-3)

    def test_uniform_jitter_bands_rows(self):
        trace, cov, periods = run_covert(Jitter("uniform", half_width_us=1.0), 60_000 * MS)
        with pytest.warns(UserWarning, match="sparse"):
            m = extract_channel_matrix(trace, cov, periods)
        for x in range(1, 255):
            support = np.flatnonzero(m[x] > 1e-6)
            assert support.size <= 5
            assert np.all(np.abs(support - x) <= 2)

    def test_row_sums(self):
        trace, cov, periods = run_covert(Jitter("uniform", half_width_us=2.0), 30_000 * MS)
        with pytest.warns(UserWarning, match="sparse"):
            m = extract_channel_matrix(trace, cov, periods)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)


class TestGenuinePairing:
    def test_forged_frames_and_their_successor_give_no_sample(self):
        # frames 1000..1099 forged, the rest genuine; with no jitter every
        # genuine pair deviates by exactly 0 and decodes to its sent delay,
        # while a pair with a forged end sits off by the adversary's draws
        trace, cov, periods = run_covert(Jitter(), 30_000 * MS)
        forged = inject_adversary(trace, CanId(0x100), 10 * MS, seed=1)
        window = slice(1000, 1100)
        assert not forged.genuine[window].any()
        assert forged.counter.tolist() == trace.counter.tolist()  # one ID keeps its order
        times, genuine = trace.bus_time_us.copy(), trace.genuine.copy()
        times[window], genuine[window] = forged.bus_time_us[window], forged.genuine[window]
        mixed = replace(trace, bus_time_us=times, genuine=genuine)
        devs = deviation_series(mixed, periods, cov)[CanId(0x100)]
        assert len(devs) == len(trace) - 1 - 101
        assert np.all(devs == 0.0)
        with pytest.warns(UserWarning, match="sparse"):
            m = extract_channel_matrix(mixed, cov, periods)
        assert np.all(m[~np.eye(256, dtype=bool)] < 1e-6)


SMALL_RUN = """
[bus]
bitrate = 500000
duration_us = 400000
seed = 3

[covert]
key_hex = 000102030405060708090A0B0C0D0E0F

[allocator]
algorithm = gcd
ifs_us = 600

[node.one]
jitter = steps
frames = 0x100:10000:8 0x101:10000:8 0x102:20000:8
"""


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestSuccessTable:
    """The success table is the `success_table.csv` that `canto report` writes."""

    def report(self, tmp_path, errors):
        indir = tmp_path / "in"
        indir.mkdir()
        (indir / "verdicts.csv").write_text(
            "bus_time_us,id_hex,counter,error_us,verdict\n100,100,1,,accept\n"
            + "".join(f"{i},100,{i},{e},accept\n" for i, e in enumerate(errors, 2)))
        (indir / "attack.csv").write_text(
            "rho_us,frames,adv_rate_mc,adv_rate_analytic\n5,1,0.04,0.0390625\n")
        config = tmp_path / "small.ini"
        config.write_text(SMALL_RUN)
        return main(["report", "--config", str(config), "--in", str(indir),
                     "--out", str(tmp_path / "rep")])

    def test_ecu_rates_power_per_window(self, tmp_path):
        assert self.report(tmp_path, ["0.0000"] * 90 + ["3.5000"] * 10) == 0
        ecu = {(float(r), int(k)): float(e)
               for r, k, e, _ in read_rows(tmp_path / "rep" / "success_table.csv")}
        assert [ecu[3.0, k] for k in (1, 2, 3, 4, 6)] == \
            pytest.approx([0.9, 0.81, 0.729, 0.6561, 0.531441])
        assert all(ecu[5.0, k] == 1.0 for k in (1, 2, 3, 4, 6))

    def test_adv_rates_near_analytic(self, tmp_path):
        config = tmp_path / "small.ini"
        config.write_text(SMALL_RUN)
        out = tmp_path / "run"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        errors = np.abs([float(r[3]) for r in read_rows(out / "verdicts.csv") if r[3]])
        mc = {(r, k): a for r, k, a, _ in read_rows(out / "attack.csv")}
        table = read_rows(out / "success_table.csv")
        assert len(table) == 20
        for rho, k, ecu, adv in table:
            assert float(ecu) == pytest.approx(np.mean(errors <= float(rho)) ** int(k),
                                               rel=1e-7)
            assert adv == mc[rho, k]
        assert float(mc["5", "1"]) == pytest.approx(2 * 5 / 256, abs=0.002)

    def test_empty_errors_rejected(self, tmp_path, capsys):
        assert self.report(tmp_path, []) == 3
        assert "no scored frames" in capsys.readouterr().err

    def test_mc_deterministic(self):
        a = mc_adversary_rate(5.0, 8, 2, 50_000, seed=9)
        b = mc_adversary_rate(5.0, 8, 2, 50_000, seed=9)
        assert a == b


def covered_rate(rho, level_bits):
    """The blind adversary's per-frame pass rate, summed exactly over every
    integer delay xi: the guess passes on [max(xi - rho, 0), min(xi + rho, W)]."""
    window = 1 << level_bits
    rho = Fraction(rho)
    covered = sum(min(xi + rho, window) - max(xi - rho, 0) for xi in range(window))
    return covered / window / window


@st.composite
def tolerance_and_level(draw):
    level = draw(st.integers(1, 10))
    return draw(st.floats(0, 2.0 ** level)), level


class TestExactAdversaryRate:
    @given(tolerance_and_level(), st.integers(1, 8))
    def test_matches_per_delay_sum(self, rho_level, frames):
        rho, level = rho_level
        want = float(covered_rate(rho, level)) ** frames
        assert exact_adversary_rate(rho, level, frames) == pytest.approx(want, rel=1e-12,
                                                                        abs=1e-300)

    def test_integer_tolerance_is_exact_fraction(self):
        for level in range(1, 11):
            window = 1 << level
            for rho in range(window // 2 + 1):
                want = Fraction(2 * rho, window) - Fraction(rho, window) ** 2
                assert Fraction(exact_adversary_rate(float(rho), level)) == want
                assert covered_rate(rho, level) == want
        assert exact_adversary_rate(5.0, 8) == 2535 / 65536

    @pytest.mark.parametrize("rho", [2.0, 3.0, 4.0, 5.0])
    def test_within_3_sigma_of_monte_carlo(self, rho):
        trials = 2_000_000
        p = exact_adversary_rate(rho, 8)
        mc = mc_adversary_rate(rho, 8, 1, trials, seed=101)
        assert abs(mc - p) <= 3 * math.sqrt(p * (1 - p) / trials)

    @pytest.mark.parametrize("rho,frames", [(-1.0, 1), (float("nan"), 1), (5.0, 0)])
    def test_rejects_negative_tolerance_and_empty_window(self, rho, frames):
        with pytest.raises(ValueError):
            exact_adversary_rate(rho, 8, frames)
