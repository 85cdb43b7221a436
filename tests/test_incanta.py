"""Covert delay derivation and receiver-side verification."""

import hashlib
import hmac
import io
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canto import incanta
from canto.bus_sim import BusConfig, NodeConfig, Trace, simulate
from canto.clock_model import ClockModel, Jitter
from canto.frame_model import CanId, FrameSpec
from canto.incanta import (_HASH_BLOCK, CovertConfig, Decoded, Receiver, Verifier,
                           adversary_advantage, covert_delay, covert_delays, decode, ecu_success,
                           embed_counters, mac_input)
from canto.trace_io import parse_trace, write_trace, write_verdicts
from blind_forger import forge_blind
from payload_rows import payload_columns, payload_list

KEY = bytes(range(16))
ID = CanId(0x100)
PAYLOAD = bytes.fromhex("2021222300000001")


def hmac_sha256_oracle(key: bytes, msg: bytes) -> bytes:
    """Independent RFC 2104 construction, no hmac module."""
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key + bytes(64 - len(key))
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    return hashlib.sha256(opad + hashlib.sha256(ipad + msg).digest()).digest()


class TestCovertDelay:
    def test_golden_vector(self):
        # frozen from the independent oracle below
        assert covert_delay(KEY, 1, ID, PAYLOAD, 8) == 5
        assert covert_delay(KEY, 1, ID, PAYLOAD, 12) == 3077

    def test_against_independent_hmac(self):
        digest = hmac_sha256_oracle(KEY, mac_input(1, ID, PAYLOAD))
        assert digest.hex() == ("d1faeca9bfaab8af72dd9f8fb8b6aff5"
                                "f450f1eb5d995ae2c55a72dbc56d9c05")
        for bits in (1, 8, 17, 32):
            assert covert_delay(KEY, 1, ID, PAYLOAD, bits) == \
                int.from_bytes(digest, "big") & ((1 << bits) - 1)

    # a uniform key length reaches the 64-byte block size and beyond often
    @given(key=st.integers(1, 100).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
           counter=st.integers(0, 2**32 - 1),
           value=st.integers(0, 2**29 - 1), payload=st.binary(max_size=8),
           level_bits=st.integers(1, 32))
    @example(key=bytes(range(64)), counter=1, value=0x100, payload=PAYLOAD, level_bits=32)
    @example(key=bytes(range(65)), counter=1, value=0x100, payload=PAYLOAD, level_bits=32)
    @example(key=bytes(range(100)), counter=1, value=0x100, payload=PAYLOAD, level_bits=32)
    def test_matches_stdlib_hmac(self, key, counter, value, payload, level_bits):
        # keys past the 64-byte block size are hashed first (RFC 2104)
        can_id = CanId(value, extended=value > 0x7FF)
        tag = hmac.new(key, mac_input(counter, can_id, payload), hashlib.sha256).digest()
        assert covert_delay(key, counter, can_id, payload, level_bits) == \
            int.from_bytes(tag, "big") & ((1 << level_bits) - 1)

    @given(counter=st.integers(0, 2**32 - 1), payload=st.binary(min_size=0, max_size=8))
    def test_range(self, counter, payload):
        assert 0 <= covert_delay(KEY, counter, ID, payload, 8) <= 255

    def test_payload_bit_flip_avalanche(self):
        rng = np.random.default_rng(17)
        changed = 0
        trials = 10_000
        for i in range(trials):
            payload = bytes(rng.bytes(8))
            bit = int(rng.integers(64))
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            changed += covert_delay(KEY, i, ID, payload) != covert_delay(KEY, i, ID, bytes(flipped))
        # collisions happen at rate 2^-8; stay within 3 sigma of 1 - 1/256
        assert 0.993 <= changed / trials <= 0.999


_CAN_IDS = st.one_of(st.integers(0, 0x7FF).map(CanId),
                    st.integers(0, 2**29 - 1).map(lambda v: CanId(v, extended=True)))


@st.composite
def mac_batches(draw):
    """Counters, standard and extended ids mixed, and 0-8 byte payloads."""
    n = draw(st.integers(0, 12))
    return (draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)),
            draw(st.lists(_CAN_IDS, min_size=n, max_size=n)),
            draw(st.lists(st.binary(max_size=8), min_size=n, max_size=n)))


def seam_batch(lengths):
    """Counters, ids and payloads of len(lengths) frames whose counters, ids and
    payloads end in 0x00 bytes (trailing zeros that an `S` dtype would strip)."""
    n = len(lengths)
    return ([i << 8 for i in range(n)],
            [CanId(0x700) if i % 2 else CanId(0x1FFFFF00, extended=True) for i in range(n)],
            [bytes([i % 251 + 1] * (k - 1) + [0])[:k] for i, k in enumerate(lengths)])


_SEAM = _HASH_BLOCK + 3  # one full block and three frames past its seam


class TestCovertDelays:
    @given(key=st.integers(1, 100).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
           batch=mac_batches(), level_bits=st.integers(1, 32))
    @example(key=KEY, batch=([], [], []), level_bits=8)
    # across a block seam: every payload 8 bytes; 0-8 byte lengths on both sides;
    # a first block with no short row and short rows past the seam
    @example(key=KEY, batch=seam_batch([8] * _SEAM), level_bits=32)
    @example(key=KEY, batch=seam_batch([i % 9 for i in range(_SEAM)]), level_bits=32)
    @example(key=KEY, batch=seam_batch([8] * _HASH_BLOCK + [0, 3, 7]), level_bits=32)
    def test_batch_matches_stdlib_hmac_per_frame(self, key, batch, level_bits):
        counters, ids, payloads = batch  # mixed lengths in one matrix
        got = covert_delays(key, counters, [i.value for i in ids], *payload_columns(payloads),
                            level_bits)
        want = [int.from_bytes(hmac.new(key, mac_input(c, i, p), hashlib.sha256).digest(), "big")
                & ((1 << level_bits) - 1) for c, i, p in zip(counters, ids, payloads)]
        assert got.dtype == np.int64 and got.tolist() == want

    def test_one_id_value_for_the_batch(self):
        payloads = [PAYLOAD, bytes(4)]
        assert covert_delays(KEY, [1, 2], ID.value, *payload_columns(payloads), 12).tolist() == \
            [covert_delay(KEY, c, ID, p, 12) for c, p in zip([1, 2], payloads)]

    def test_one_length_for_the_batch(self):
        rows, _ = payload_columns([PAYLOAD, bytes(range(8))])
        assert covert_delays(KEY, [1, 2], ID.value, rows, 5, 12).tolist() == \
            [covert_delay(KEY, c, ID, bytes(r[:5]), 12) for c, r in zip([1, 2], rows)]

    def test_peak_memory_is_bounded_by_the_block(self):
        # 64000 eight-byte frames peak at 3.0 MiB in blocks of 1024; one block of
        # all of them keeps 64000 messages and tags live and peaks at 17 MiB
        n = 64000
        payloads = np.random.default_rng(3).integers(0, 256, (n, 8), dtype=np.uint8)
        counters, lengths = np.arange(n), np.full(n, 8)
        covert_delays(KEY, counters[:1], ID.value, payloads[:1], lengths[:1])  # pad states
        tracemalloc.start()
        try:
            covert_delays(KEY, counters, ID.value, payloads, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("counter", [-1, 2**32])
    def test_counter_outside_four_bytes_raises(self, counter):
        with pytest.raises(OverflowError):
            covert_delays(KEY, [1, counter], [ID.value] * 2, *payload_columns([PAYLOAD] * 2))
        with pytest.raises(OverflowError):
            covert_delay(KEY, counter, ID, PAYLOAD)


class TestAdvantageMath:
    def test_table_values(self):
        assert adversary_advantage(2, 8) == 4 / 256
        assert abs(adversary_advantage(2, 8) - 0.015) < 1e-3
        assert adversary_advantage(5, 8) == 10 / 256
        assert abs(100 * adversary_advantage(5, 8) - 3.9) < 0.01
        assert adversary_advantage(5, 8, 6) == (10 / 256) ** 6 < 1e-6

    def test_window_must_not_swallow_alphabet(self):
        with pytest.raises(ValueError):
            adversary_advantage(128, 8)

    def test_ecu_success(self):
        assert abs(ecu_success(0.9334, 2) - 0.8714) < 2e-4
        assert ecu_success(1.0, 6) == 1.0
        assert abs(ecu_success(0.9956, 6) - 0.9738) < 2e-4

    def test_ecu_success_validates(self):
        with pytest.raises(ValueError):
            ecu_success(1.2, 2)


def embed(payload: bytes, counters) -> list[bytes]:
    """`embed_counters` on one payload per counter, as a list."""
    rows, lengths = payload_columns([payload] * len(counters))
    return payload_list(embed_counters(rows, lengths, counters), lengths)


class TestCounterTransport:
    def test_round_trip(self):
        payload = embed(bytes(range(8)), [0xDEADBEEF])[0]
        assert payload[:4] == bytes(range(4))
        assert int.from_bytes(payload[-4:], "big") == 0xDEADBEEF

    def test_too_short(self):
        with pytest.raises(ValueError):
            embed(b"abc", [1])

    @given(payloads=st.lists(st.binary(min_size=4, max_size=8), max_size=8), data=st.data())
    def test_batch_matches_bytes(self, payloads, data):
        counters = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(payloads),
                                      max_size=len(payloads)))
        rows, lengths = payload_columns(payloads)
        got = embed_counters(rows, lengths, counters)
        assert payload_list(got, lengths) == \
            [p[:-4] + c.to_bytes(4, "big") for p, c in zip(payloads, counters)]
        assert not got[np.arange(8) >= lengths[:, None]].any()


def config(**kw):
    kw.setdefault("key", KEY)
    return CovertConfig(**kw)


def receiver(**kw):
    """A receiver of ID's 10 ms frames."""
    return Receiver({ID: 10_000.0}, **kw)


def genuine_times(cfg, period_us, n, start=1000.0):
    """Ideal covert transmission times for counters 1..n."""
    times = []
    t_prev = start
    xi_prev = 0
    for k in range(1, n + 1):
        payload = embed(bytes(8), [k])[0]
        xi = covert_delay(cfg.key, k, ID, payload, cfg.level_bits)
        t = (start + xi) if k == 1 else (t_prev + period_us + xi - xi_prev)
        times.append((k, payload, t))
        t_prev, xi_prev = t, xi
    return times


class TestVerifier:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(key=b"short")
        with pytest.raises(ValueError):
            config(level_bits=0)
        with pytest.raises(ValueError):
            receiver(frames_required=0)
        with pytest.raises(ValueError):
            receiver(tolerance_us=float("nan"))
        # the channel is what the senders share; the rest is the receiver's
        assert [f.name for f in fields(CovertConfig)] == ["key", "level_bits"]
        assert [f.name for f in fields(Receiver)] == ["periods_us", "tolerance_us",
                                                      "frames_required"]

    def test_zero_jitter_accepts_at_zero_tolerance(self):
        cfg = config()
        v = Verifier(cfg, receiver(tolerance_us=0.0))
        for k, payload, t in genuine_times(cfg, 10_000.0, 20):
            verdict = v.verify(ID, k, payload, t)
            assert verdict.accepted

    def test_first_frame_is_provisional(self):
        cfg = config()
        v = Verifier(cfg, receiver())
        k, payload, t = genuine_times(cfg, 10_000.0, 1)[0]
        assert v.verify(ID, k, payload, t).reason == "first"

    def test_boundary_exactly_rho_accepts(self):
        cfg = config()
        v = Verifier(cfg, receiver(tolerance_us=5.0))
        (k1, p1, t1), (k2, p2, t2) = genuine_times(cfg, 10_000.0, 2)
        v.verify(ID, k1, p1, t1)
        assert v.verify(ID, k2, p2, t2 + 5.0).accepted

    def test_boundary_rho_plus_one_is_intrusion(self):
        cfg = config()
        v = Verifier(cfg, receiver(tolerance_us=5.0))
        (k1, p1, t1), (k2, p2, t2) = genuine_times(cfg, 10_000.0, 2)
        v.verify(ID, k1, p1, t1)
        verdict = v.verify(ID, k2, p2, t2 + 6.0)
        assert not verdict.accepted and verdict.reason == "timing"
        assert verdict.error_us == pytest.approx(6.0)

    def test_replay_detected(self):
        cfg = config()
        v = Verifier(cfg, receiver())
        (k1, p1, t1), (k2, p2, t2) = genuine_times(cfg, 10_000.0, 2)
        v.verify(ID, k1, p1, t1)
        v.verify(ID, k2, p2, t2)
        assert v.verify(ID, k1, p1, t2 + 10_000.0).reason == "replay"

    def test_replay_does_not_poison_later_frames(self):
        cfg = config()
        v = Verifier(cfg, receiver())
        rows = genuine_times(cfg, 10_000.0, 3)
        v.verify(ID, *rows[0][:2], rows[0][2])
        v.verify(ID, *rows[1][:2], rows[1][2])
        v.verify(ID, rows[0][0], rows[0][1], rows[1][2] + 3_000.0)  # stale replay
        assert v.verify(ID, *rows[2][:2], rows[2][2]).accepted

    def test_unknown_id_rejected(self):
        v = Verifier(config(), receiver())
        with pytest.raises(KeyError):
            v.verify(CanId(0x7), 1, bytes(8), 0.0)

    def test_acceptance_monotone_in_rho(self):
        cfg = config()
        rng = np.random.default_rng(3)
        rows = genuine_times(cfg, 10_000.0, 300)
        noisy = [(k, p, t + rng.uniform(-4, 4)) for k, p, t in rows]
        accepted_at = {}
        for rho in (0.0, 1.0, 2.0, 4.0, 8.0):
            v = Verifier(cfg, receiver(tolerance_us=rho))
            accepted_at[rho] = {k for k, p, t in noisy if v.verify(ID, k, p, t).accepted}
        rhos = sorted(accepted_at)
        for lo, hi in zip(rhos, rhos[1:]):
            assert accepted_at[lo] <= accepted_at[hi]

    def test_constant_skew_cancels_in_differencing(self):
        # a 100 ppm sender over 10 ms periods accumulates 1 ms of offset
        # across 1000 frames, yet per-interval errors stay near 1 us
        cfg = config()
        v = Verifier(cfg, receiver(tolerance_us=5.0))
        factor = 1 + 100e-6
        for k, payload, t in genuine_times(cfg, 10_000.0, 1000):
            assert v.verify(ID, k, payload, t * factor).accepted

    def test_window_authentication(self):
        cfg = config()
        v = Verifier(cfg, receiver(frames_required=3))
        rows = genuine_times(cfg, 10_000.0, 6)
        verdicts = [v.verify(ID, k, p, t) for k, p, t in rows[:3]]
        assert verdicts[-1].window_authenticated is True
        # one bad frame poisons the next windows until it slides out
        k, p, t = rows[3]
        bad = v.verify(ID, k, p, t + 50.0)
        assert bad.window_authenticated is False
        for k, p, t in rows[4:]:
            last = v.verify(ID, k, p, t)
        assert last.window_authenticated is False  # bad frame still inside


# 8191.7 us: period plus covert delay crosses 2^13, so an inexact period
# makes the float result depend on the order of operations
PERIODS = {CanId(0x100): 10_000.0, CanId(0x101): 20_000.0, CanId(0x7FF): 8_191.7}


@st.composite
def receiver_traces(draw):
    """Interleaved IDs whose counters step by -2..3 (so repeat or go back) and
    whose spacing is the covert one plus an offset, then optionally one ID
    handed to the adversary; with the channel and a receiver of PERIODS."""
    cfg = config(level_bits=draw(st.integers(2, 8)))
    rx = Receiver(PERIODS, tolerance_us=draw(st.sampled_from([0.0, 2.5, 5.0])),
                  frames_required=draw(st.integers(1, 4)))
    start = draw(st.sampled_from([0.0, 123_456_789.1, 3_700_000_000.3]))
    ids = tuple(PERIODS)
    id_index, counters, times, tx, payloads, genuine, last = [], [], [], [], [], [], {}
    for _ in range(draw(st.integers(0, 40))):
        can_id = draw(st.sampled_from(ids))
        c0, t0, xi0 = last.get(can_id, (0, start, 0))
        counter = max(0, c0 + draw(st.integers(-2, 3)))
        payload = embed(draw(st.binary(min_size=8, max_size=8)), [counter])[0]
        xi = covert_delay(cfg.key, counter, can_id, payload, cfg.level_bits)
        t = t0 + PERIODS[can_id] * (counter - c0) + xi - xi0 \
            + draw(st.sampled_from([0.0, 0.5, -2.5, 5.0, 7.25, 0.1, -4.9, 2.3]))
        id_index.append(ids.index(can_id))
        counters.append(counter)
        times.append(t)
        tx.append(draw(st.sampled_from([0.0, 108.0, 131.5])))
        payloads.append(payload)
        genuine.append(draw(st.booleans()))
        last[can_id] = (counter, t, xi)
    trace = Trace(ids, np.array(id_index, dtype=np.int64), np.array(counters, dtype=np.int64),
                  np.array(times, dtype=np.float64), np.array(tx, dtype=np.float64),
                  *payload_columns(payloads), np.array(genuine, dtype=bool))
    if id_index and draw(st.booleans()):
        target = ids[id_index[0]]
        trace = forge_blind(trace, target, PERIODS[target], seed=draw(st.integers(0, 9)),
                            level_bits=cfg.level_bits)
    return cfg, rx, trace


@st.composite
def single_id_runs(draw):
    """One ID's run of up to 200 frames, built from a drawn seed: counters from
    0, 2^31 or just below 2^32 stepping by -2..3 (capped at 2^32 - 1, where they
    repeat), the covert spacing plus an offset, windows of up to 8 frames."""
    cfg = config(level_bits=draw(st.integers(2, 8)))
    rx = Receiver(PERIODS, tolerance_us=draw(st.sampled_from([0.0, 2.5, 5.0])),
                  frames_required=draw(st.integers(1, 8)))
    can_id = draw(st.sampled_from(list(PERIODS)))
    low = draw(st.sampled_from([0, 2**31, 2**32 - 60]))
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counters = np.clip(low + np.cumsum(rng.choice([-2, -1, 0, 1, 1, 1, 1, 2, 3], n)),
                       0, 2**32 - 1)
    payloads, lengths = payload_columns([bytes(rng.integers(0, 256, 8, dtype=np.uint8))] * n)
    payloads = embed_counters(payloads, lengths, counters)
    xi = covert_delays(cfg.key, counters, can_id.value, payloads, lengths, cfg.level_bits)
    noise = rng.choice([0.0, 0.0, 0.0, 0.5, -2.5, 5.0, 7.25, 0.1, -4.9, 2.3], n)
    times = 123_456_789.1 + PERIODS[can_id] * (counters - low) + xi + np.cumsum(noise)
    trace = Trace((can_id,), np.zeros(n, dtype=np.int64), counters, times,
                  rng.choice([0.0, 108.0, 131.5], n), payloads, lengths, rng.random(n) < 0.5)
    return cfg, rx, trace


class TestDecode:
    """`decode` against `Verifier`, on frames arriving at their starts or,
    as `--no-compensate` feeds them, at their ends."""

    @settings(max_examples=300, deadline=None)
    @given(receiver_traces(), st.booleans(), st.sampled_from([None, 0.0, 1.0, 4.0]))
    def test_matches_frame_by_frame_verifier(self, case, ends, rho):
        self.check_against_verifier(*case, ends, rho)

    @settings(max_examples=300, deadline=None)
    @given(single_id_runs(), st.booleans(), st.sampled_from([None, 0.0, 1.0, 4.0]))
    def test_long_single_id_runs_match_verifier(self, case, ends, rho):
        self.check_against_verifier(*case, ends, rho)

    @staticmethod
    def check_against_verifier(cfg, rx, trace, ends, rho):
        rx = rx if rho is None else replace(rx, tolerance_us=rho)
        if ends:
            trace = replace(trace, bus_time_us=trace.bus_time_us + trace.tx_time_us)
        decoded = decode(trace, cfg, rx)
        verifier = Verifier(cfg, rx)
        ids = [trace.ids[k] for k in trace.id_index.tolist()]
        counters = trace.counter.tolist()
        arrivals = trace.bus_time_us.tolist()
        payloads = payload_list(trace.payloads, trace.payload_len)
        for i, (can_id, counter, payload, t) in enumerate(zip(ids, counters, payloads,
                                                               arrivals)):
            v = verifier.verify(can_id, counter, payload, t)
            # first, replay, timing and accept each give their own triple
            assert ((decoded.ref[i] < 0, np.isnan(decoded.error_us[i]), decoded.accepted[i])
                    == (v.reason == "first", v.error_us is None, v.accepted))
            assert decoded.window[i] == (-1 if v.window_authenticated is None
                                         else v.window_authenticated)
            if v.error_us is None:
                assert np.isnan(decoded.symbol[i])
                continue
            assert decoded.error_us[i] == v.error_us
            j = decoded.ref[i]
            xi_ref = covert_delay(cfg.key, counters[j], ids[j], payloads[j], cfg.level_bits)
            assert decoded.symbol[i] == round(
                (t - arrivals[j]) - PERIODS[can_id] * (counter - counters[j]) + xi_ref)

    @staticmethod
    def frames_of(ids, id_index):
        """A trace of the given ID positions, 1 ms apart, counters 1.. in order."""
        n = len(id_index)
        payloads, lengths = payload_columns([PAYLOAD] * n)
        return Trace(ids, np.array(id_index, dtype=np.int64), np.arange(1, n + 1),
                     1000.0 * np.arange(n), np.zeros(n), payloads, lengths, np.ones(n, dtype=bool))

    def test_unknown_id_named_by_first_appearance(self):
        a, b = CanId(0x0A0), CanId(0x0B0)  # neither has a period
        trace = self.frames_of((b, a), [1, 0, 1])  # listed B, A; A is on the bus first
        with pytest.raises(KeyError) as exc:
            decode(trace, config(), Receiver(PERIODS))
        assert exc.value.args[0] == f"unknown id {a} (not in the config)"

    def test_listed_id_without_frames_needs_no_period(self):
        trace = self.frames_of((CanId(0x0A0), ID, CanId(0x101)), [1, 2, 1, 2])
        decoded = decode(trace, config(), Receiver(PERIODS))
        # the first frame of each ID, then two timing failures
        assert decoded.accepted.tolist() == [True, True, False, False]
        assert np.isnan(decoded.error_us).tolist() == [True, True, False, False]
        assert decoded.ref.tolist() == [-1, -1, 0, 1]


@st.composite
def mixed_buses(draw):
    """A small simulated bus: 1-4 IDs on up to three nodes, each node covert
    or plain, 4-8 byte payloads, a channel of one of two keys (level_bits
    1-16); then the bus, the channel a receiver decodes with (the bus's, the
    other key with other level_bits, or a wrong key) and a receiver of the
    bus's periods, with the default or another tolerance and window."""
    n = draw(st.integers(1, 4))
    ids = [CanId(v) for v in draw(st.lists(st.integers(0, 0x7FF), min_size=n, max_size=n,
                                           unique=True))]
    owner = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    keys = draw(st.permutations([KEY, bytes(range(32, 64))]))
    channel, other = (config(key=key, level_bits=draw(st.integers(1, 16))) for key in keys)
    nodes = []
    for node_idx in sorted(set(owner)):
        frames = tuple(FrameSpec(can_id, draw(st.sampled_from([2500.0, 5000.0, 10000.0])),
                                 draw(st.sampled_from([0.0, 150.0, 487.3])),
                                 8 * draw(st.integers(4, 8)))
                       for can_id, o in zip(ids, owner) if o == node_idx)
        clock = ClockModel(skew_ppm=draw(st.sampled_from([0.0, 45.0, -62.5])),
                           jitter=draw(st.sampled_from([Jitter(), Jitter("uniform")])))
        nodes.append(NodeConfig(f"n{node_idx}", clock, frames, draw(st.booleans())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # offsets drawn without a schedule may collide
        bus = BusConfig(tuple(nodes), 20000.0 + draw(st.sampled_from([0.0, 7777.7])),
                        seed=draw(st.integers(0, 2**16)), covert=channel)
        trace = simulate(bus)
    periods = {f.id: f.period_us for nd in nodes for f in nd.frames}
    channels = [channel, other, replace(channel, key=bytes(range(1, 17)))]
    receivers = [Receiver(periods), Receiver(periods, tolerance_us=2.0, frames_required=3)]
    return trace, bus, draw(st.sampled_from(channels)), draw(st.sampled_from(receivers))


class TestVerdictsFile:
    """`decode` on traces read back from trace.csv, as `verify` scores them."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 520_087.3, 123_456_789.1,
                                                        3_700_000_000.3]),
           st.sampled_from([1.0, 2.0, 3.0, 5.0, 2.5]))
    def test_verdict_judges_the_printed_error(self, tmp_path_factory, seed, start, rho):
        """Offsets on a 0.5 us grid put errors on rho, up to the float error of the gaps."""
        rng = np.random.default_rng(seed)
        n, cfg, ids = 120, config(), tuple(PERIODS)
        id_index = rng.integers(0, len(ids), n)
        counters = np.zeros(n, dtype=np.int64)
        for k in range(len(ids)):
            counters[id_index == k] = np.arange(1, np.count_nonzero(id_index == k) + 1)
        payloads, lengths = payload_columns([bytes(rng.integers(0, 256, 8, dtype=np.uint8))] * n)
        id_values = np.array([i.value for i in ids])[id_index]
        xi = covert_delays(cfg.key, counters, id_values, payloads, lengths, cfg.level_bits)
        times = (start + np.array([PERIODS[i] for i in ids])[id_index] * counters + xi
                 + rng.integers(-6, 7, n) * 0.5)
        order = np.argsort(times, kind="stable")
        trace = Trace(ids, id_index[order], counters[order], times[order], np.zeros(n),
                      payloads[order], lengths[order], np.ones(n, dtype=bool))
        fh = io.StringIO()
        write_trace(trace, fh)
        fh.seek(0)
        read = parse_trace(fh)
        path = tmp_path_factory.mktemp("verify") / "verdicts.csv"
        write_verdicts(read, decode(read, cfg, Receiver(PERIODS, tolerance_us=rho)), path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        scored = [(text, word) for _, _, _, text, word in rows if text]
        assert len(scored) == n - len(set(id_index.tolist()))
        for text, word in scored:
            assert (word == "accept") == (abs(float(text)) <= rho), text
            assert text != "-0.0000"


class TestSentDelays:
    """`decode` keeps the covert delays that `simulate` hashed only where the
    MAC input is provably the one they were hashed from, so it decodes every
    trace as a full recompute does."""

    @staticmethod
    def assert_same(got: Decoded, want: Decoded):
        for f in fields(Decoded):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)  # NaNs in place match

    @staticmethod
    def decode_counting(trace, covert, rx):
        """`decode` and the number of frames it hashed."""
        hashed = []

        def counting(key, counters, *args):
            hashed.append(len(counters))
            return covert_delays(key, counters, *args)
        incanta.covert_delays = counting
        try:
            return decode(trace, covert, rx), sum(hashed)
        finally:
            incanta.covert_delays = covert_delays

    def full(self, trace, covert, rx):
        """`decode` of the same columns with nothing the simulator hashed."""
        fresh = replace(trace)
        assert fresh.sent is None
        decoded, hashed = self.decode_counting(fresh, covert, rx)
        assert hashed == len(trace)
        return decoded

    @settings(max_examples=150, deadline=None)
    @given(mixed_buses(), st.data())
    def test_decode_equals_a_full_recompute(self, drawn, data):
        trace, bus, covert, rx = drawn
        decoded, hashed = self.decode_counting(trace, covert, rx)
        self.assert_same(decoded, self.full(trace, covert, rx))
        reused = 0  # the covert nodes' frames, if the bus hashed under `covert`'s key and bits
        if (covert.key, covert.level_bits) == (bus.covert.key, bus.covert.level_bits):
            sent = {f.id for nd in bus.nodes if nd.covert for f in nd.frames}
            reused = sum(trace.ids[k] in sent for k in trace.id_index.tolist())
        assert hashed == len(trace) - reused

        # the trace file holds no delay: it is read back and hashed in full
        fh = io.StringIO()
        write_trace(trace, fh)
        fh.seek(0)
        parsed = replace(parse_trace(fh), bus_time_us=trace.bus_time_us)
        self.assert_same(decoded, self.full(parsed, covert, rx))

        # the trace the adversary builds from it
        target = data.draw(st.sampled_from(trace.ids))
        forged = forge_blind(trace, target, rx.periods_us[target], seed=data.draw(
            st.integers(0, 9)), level_bits=covert.level_bits)
        self.assert_same(decode(forged, covert, rx), self.full(forged, covert, rx))

        # one counter or payload byte changed, in place or through replace
        row = data.draw(st.integers(0, len(trace) - 1))
        counter, payloads = trace.counter.copy(), trace.payloads.copy()
        if data.draw(st.booleans()):
            counter[row] += data.draw(st.sampled_from([-1, 1, 1000]))
        else:
            payloads[row, data.draw(st.integers(0, trace.payload_len[row] - 1))] ^= \
                data.draw(st.integers(1, 255))
        changed = replace(trace, counter=counter, payloads=payloads)
        self.assert_same(decode(changed, covert, rx), self.full(changed, covert, rx))
        trace.counter[:], trace.payloads[:] = counter, payloads
        self.assert_same(decode(trace, covert, rx), self.full(trace, covert, rx))
