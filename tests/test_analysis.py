"""Deviation series, channel matrices, capacity, success tables, histograms."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canto import analysis
from canto.analysis import (CapacityError, blahut_arimoto, deviation_series, exact_adversary_rate,
                            extract_channel_matrix, histogram, mc_adversary_rate)
from canto.bus_sim import BusConfig, NodeConfig, simulate
from canto.cli import main
from canto.clock_model import ClockModel, Jitter
from canto.frame_model import CanId, FrameSpec
from canto.incanta import CovertConfig, Receiver, decode
from canto.scheduler import MAX_INSTANTS
from blind_forger import forge_blind

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


def assert_capacity(m, tolerance):
    """The solver converges, within `tolerance` bits of the capacity C, in no
    more iterations than the classic update. The reference run at a tenth of
    the tolerance puts C in [want, want + tolerance / 10]; a tighter oracle is
    out of reach, since on the banded channels the classic gap is still 5e-8
    bits after 100000 iterations."""
    got, iters = blahut_arimoto(m, tolerance=tolerance, max_iterations=100_000)
    want, _ = reference_blahut_arimoto(m, tolerance / 10)
    assert want - tolerance <= got <= want + tolerance / 10
    return iters


def stochastic_matrices(max_size=32):
    """Square row-stochastic matrices from small integer weights, so exact
    zeros, repeated rows and rows mixing other rows all come up."""
    return st.integers(2, max_size).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any),
        min_size=n, max_size=n)).map(
            lambda rows: np.array(rows, dtype=np.float64)
            / np.sum(rows, axis=1, keepdims=True))


class TestBlahutArimoto:
    def test_matches_elementwise_reference(self):
        rng = np.random.default_rng(3)
        cases = [(banded_matrix(64, w), 1e-4) for w in (3, 5, 11)]
        cases += [(rng.dirichlet(np.full(n, 0.3), size=n), 1e-7) for n in (2, 7, 40)]
        for m, tolerance in cases:
            _, want_iters = reference_blahut_arimoto(m, tolerance)
            assert assert_capacity(m, tolerance) <= want_iters

    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices())
    def test_random_channels_converge(self, m):
        assert_capacity(m, 1e-6)

    def test_mixture_input_gets_no_mass(self):
        # row 3 mixes rows 0 and 1, so its optimal mass is 0 and its share
        # decays toward 0 without stalling the upper bound
        rows = np.random.default_rng(4).dirichlet(np.full(6, 0.5), size=3)
        m = np.vstack([rows, 0.3 * rows[0] + 0.7 * rows[1]])
        assert_capacity(m, 1e-7)

    def test_steep_step_keeps_every_input(self):
        # inputs 0 and 1 differ only in output 1; unclipped, the growing step
        # drives every mass to 0 within 22 iterations and the bounds to NaN
        m = np.array([[0, 0, 1, 0, 0], [0, 0.025, 0.975, 0, 0], [0, 0, 0, 0, 1],
                      [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]], dtype=np.float64)
        assert_capacity(m, 1e-6)

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

    def test_non_convergence_gives_the_smallest_gap(self):
        # under the adaptive step the gap swings: on this channel the last of
        # 300 iterations leaves 0.0112 bits, while 7.2e-4 bits were reached
        m = banded_matrix(64, 3)
        m[[0, -1]] = m[[0, -1]] > 0
        m /= m.sum(axis=1, keepdims=True)  # edge rows: two outputs, even odds

        def reported_gap(iterations):
            with pytest.raises(CapacityError) as exc:
                blahut_arimoto(m, tolerance=1e-12, max_iterations=iterations)
            return float(re.search(r"smallest bound gap (\S+) bits", str(exc.value))[1])

        gap = reported_gap(300)
        assert gap == pytest.approx(7.2e-4, rel=0.01)
        assert gap <= reported_gap(150)


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
        with pytest.raises(ValueError, match=f"exceed {MAX_INSTANTS}"):
            histogram([0.0, float(MAX_INSTANTS)], 1.0)

    def test_one_bin_numbered_beyond_int64(self):
        starts, counts = histogram([0.5, 0.5], 1e-300)
        assert list(counts) == [2] and starts[0] == math.floor(0.5 / 1e-300) * 1e-300


def run_covert(jitter, duration_us, seed=3, stuffing="none", skew_ppm=0.0):
    cov = CovertConfig(key=KEY, level_bits=8)
    spec = FrameSpec(CanId(0x100), 10 * MS, 0.0, 64)
    clock = ClockModel(skew_ppm=skew_ppm, jitter=jitter)
    cfg = BusConfig((NodeConfig("ecu", clock, (spec,), True),), duration_us,
                    seed=seed, stuffing=stuffing, covert=cov)
    return simulate(cfg), cov, Receiver({spec.id: spec.period_us}, tolerance_us=5.0)


class TestDeviationSeries:
    def test_zero_jitter_is_exactly_zero(self):
        trace, cov, rx = run_covert(Jitter(), 300 * MS)
        devs = deviation_series(trace, decode(trace, cov, rx))
        assert np.all(devs[CanId(0x100)] == 0.0)

    def test_unknown_id_raises(self):
        trace, cov, _ = run_covert(Jitter(), 300 * MS)
        with pytest.raises(KeyError):
            decode(trace, cov, Receiver({CanId(0x7): 10 * MS}))

    def test_without_covert_config_sees_delay_spread(self):
        """A receiver without the sender's key decodes with another one."""
        trace, cov, rx = run_covert(Jitter(), 300 * MS)
        wrong = replace(cov, key=bytes(range(1, 17)))
        devs = deviation_series(trace, decode(trace, wrong, rx))[CanId(0x100)]
        assert np.max(np.abs(devs)) > 50.0  # delays from another key look like jitter

    def test_stuffing_variation_stays_within_ten_us(self):
        trace, cov, rx = run_covert(Jitter(), 2000 * MS, stuffing="payload")
        ends = replace(trace, bus_time_us=trace.bus_time_us + trace.tx_time_us)
        devs = deviation_series(ends, decode(ends, cov, rx))
        assert 0.0 < np.max(np.abs(devs[CanId(0x100)])) <= 10.0

    def test_compensation_removes_stuffing_noise(self):
        trace, cov, rx = run_covert(Jitter(), 2000 * MS, stuffing="payload")
        devs = deviation_series(trace, decode(trace, cov, rx))
        assert np.all(devs[CanId(0x100)] == 0.0)

    def test_calibrated_steps_jitter_matches_envelope(self):
        trace, cov, rx = run_covert(Jitter("steps"), 60_000 * MS)
        devs = deviation_series(trace, decode(trace, cov, rx))[CanId(0x100)]
        lo, hi = devs.min(), devs.max()
        assert -4.62 - 1.0 <= lo <= -4.62 + 1.0
        assert 4.87 - 1.0 <= hi <= 4.87 + 1.0


class TestChannelMatrix:
    def test_zero_jitter_gives_identity(self):
        trace, cov, rx = run_covert(Jitter(), 30_000 * MS)
        with pytest.warns(UserWarning, match="sparse"):
            m = extract_channel_matrix(trace, decode(trace, cov, rx), cov.level_bits)
        assert np.all(np.abs(m.sum(axis=1) - 1.0) < 1e-9)
        assert np.trace(m) == pytest.approx(256.0, abs=1e-3)

    def test_uniform_jitter_bands_rows(self):
        trace, cov, rx = run_covert(Jitter("uniform", half_width_us=1.0), 60_000 * MS)
        with pytest.warns(UserWarning, match="sparse"):
            m = extract_channel_matrix(trace, decode(trace, cov, rx), cov.level_bits)
        for x in range(1, 255):
            support = np.flatnonzero(m[x] > 1e-6)
            assert support.size <= 5
            assert np.all(np.abs(support - x) <= 2)

    def test_row_sums(self):
        trace, cov, rx = run_covert(Jitter("uniform", half_width_us=2.0), 30_000 * MS)
        with pytest.warns(UserWarning, match="sparse"):
            m = extract_channel_matrix(trace, decode(trace, cov, rx), cov.level_bits)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bound", [65_535, 65_536])
    def test_refuses_more_cells_than_the_bound(self, monkeypatch, bound):
        # 2^8 x 2^8 = 65536 cells, checked against the bound the function reads
        trace, cov, rx = run_covert(Jitter(), 30_000 * MS)
        decoded = decode(trace, cov, rx)
        monkeypatch.setattr(analysis, "MAX_INSTANTS", bound)
        if bound < 65_536:
            with pytest.raises(ValueError, match="level_bits 8: channel matrix over 65535 cells"):
                extract_channel_matrix(trace, decoded, cov.level_bits)
        else:
            with pytest.warns(UserWarning, match="sparse"):
                m = extract_channel_matrix(trace, decoded, cov.level_bits)
            assert m.shape == (256, 256)


class TestGenuinePairing:
    def test_forged_frames_and_their_successor_give_no_sample(self):
        # frames 1000..1099 forged, the rest genuine; with no jitter every
        # genuine pair deviates by exactly 0 and decodes to its sent delay,
        # while a pair with a forged end sits off by the adversary's draws
        trace, cov, rx = run_covert(Jitter(), 30_000 * MS)
        forged = forge_blind(trace, CanId(0x100), 10 * MS, seed=1)
        window = slice(1000, 1100)
        assert not forged.genuine[window].any()
        assert forged.counter.tolist() == trace.counter.tolist()  # one ID keeps its order
        times, genuine = trace.bus_time_us.copy(), trace.genuine.copy()
        times[window], genuine[window] = forged.bus_time_us[window], forged.genuine[window]
        mixed = replace(trace, bus_time_us=times, genuine=genuine)
        devs = deviation_series(mixed, decode(mixed, cov, rx))[CanId(0x100)]
        assert len(devs) == len(trace) - 1 - 101
        assert np.all(devs == 0.0)
        with pytest.warns(UserWarning, match="sparse"):
            m = extract_channel_matrix(mixed, decode(mixed, cov, rx), cov.level_bits)
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
    rho = rho if isinstance(rho, int) else Fraction(rho)  # an int sums without Fractions
    covered = sum(min(xi + rho, window) - max(xi - rho, 0) for xi in range(window))
    return Fraction(covered, window * window)


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
