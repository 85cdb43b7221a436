"""Bus simulation: arbitration, occupancy, determinism, adversary injection."""

import hashlib
import heapq
import hmac
import io
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canto.bus_sim import (BusConfig, NodeConfig, OversubscribedBusError, Trace, _releases,
                           _theoretical_busload, busload, simulate)
from canto.clock_model import ClockModel, Jitter
from canto.frame_model import (CanId, FrameSpec, frame_bit_length, frame_stuff_bits,
                               transmission_time_us)
from canto.incanta import CovertConfig, Receiver, Verifier, covert_delay, covert_delays, decode
from canto.scheduler import Schedule, _streams, allocate_gcd, check_complete
from canto.trace_io import parse_trace, write_trace
from blind_forger import forge_blind
from payload_rows import payload_columns, payload_list

MS = 1000.0
KEY = bytes(range(16))


def node(name, frames, clock=None, covert=False):
    return NodeConfig(name, clock or ClockModel(), tuple(frames), covert)


def frames_of(trace, can_id):
    """The frames of one ID, as a trace."""
    return trace.take(trace.id_index == trace.ids.index(can_id))


def ids_of(trace):
    """Each frame's identifier, in trace order."""
    return [trace.ids[k] for k in trace.id_index.tolist()]


def payloads_of(trace):
    """Each frame's payload, in trace order."""
    return payload_list(trace.payloads, trace.payload_len)


def verify_frames(cov, periods, trace):
    """The streaming Verifier's verdict on each frame of a trace, in order,
    with a tolerance of 5 us."""
    verifier = Verifier(cov, Receiver(periods, tolerance_us=5.0))
    return [verifier.verify(i, c, p, t) for i, c, p, t in zip(
        ids_of(trace), trace.counter.tolist(), payloads_of(trace), trace.bus_ticks.tolist())]


def payload_template(spec: FrameSpec) -> bytes:
    n = spec.payload_bits // 8
    return bytes(((spec.id.value >> 3) + i) & 0xFF for i in range(n))


def with_counter(template: bytes, counter: int) -> bytes:
    """The template with the counter in its low 4 bytes, big-endian."""
    return template[:-4] + (counter & 0xFFFFFFFF).to_bytes(4, "big")


def hmac_delays(key, counters, id_value, payloads, level_bits):
    """Covert delays frame by frame through the stdlib's hmac."""
    return np.array([int.from_bytes(hmac.new(key, int(c).to_bytes(4, "big")
                                             + id_value.to_bytes(4, "big") + p,
                                             hashlib.sha256).digest(), "big")
                     & ((1 << level_bits) - 1) for c, p in zip(counters, payloads)],
                    dtype=np.int64)


def base_ticks(config, spec):
    """A stream's base times k*p + o in ticks of 10 ns below the duration, one at a
    time in Python ints, p and o as `scheduler._streams` takes them."""
    p, o = (int(x[0]) for x in _streams(Schedule((spec,))))
    k = 0
    while Fraction(k * p + o, 100) < config.duration_us:
        yield k * p + o
        k += 1


def ready_tick(clock, local, rng):
    """One release's ready time in ticks: its local time in ticks on the node's skewed
    clock, floored to the clock's tick, plus one jitter draw rounded to ticks, half to even."""
    tick = clock.tick_ns / 10
    draw = float(clock.jitter.draws(rng, 1)[0])
    return int(math.floor(local * (1.0 + clock.skew_ppm * 1e-6) / tick) * tick) + round(100 * draw)


def wire_tick(config, can_id, payload):
    """One frame's wire time in ticks, its stuff bits counted iff the bus stuffs payloads."""
    bits = frame_bit_length(8 * len(payload), can_id.kind)
    if config.stuffing == "payload":
        bits += frame_stuff_bits(can_id, payload)
    return round(100 * transmission_time_us(bits, config.bitrate_bps))


def config(nodes, duration_us, **kw):
    kw.setdefault("stuffing", "none")
    return BusConfig(tuple(nodes), duration_us, **kw)


class TestSimulateBasics:
    def test_single_frame_exact_period(self):
        cfg = config([node("a", [FrameSpec(CanId(0x10), 10 * MS)])], 100 * MS)
        trace = simulate(cfg)
        assert trace.bus_ticks.tolist() == [k * 10 * MS * 100 for k in range(10)]

    @pytest.mark.filterwarnings("ignore:schedule is not collision-free")
    def test_two_frames_arbitrate_by_id(self):
        frames = [FrameSpec(CanId(0x20), 50 * MS), FrameSpec(CanId(0x10), 50 * MS)]
        cfg = config([node("a", frames)], 100 * MS)
        trace = simulate(cfg)
        assert ids_of(trace)[:2] == [CanId(0x10), CanId(0x20)]
        assert trace.bus_ticks[:2].tolist() == [0, 100 * transmission_time_us(111, 500_000)]

    def test_conservation(self):
        specs = [FrameSpec(CanId(0x10 + i), 10 * MS, 500.0 * i) for i in range(4)]
        cfg = config([node("a", specs)], 200 * MS)
        trace = simulate(cfg)
        for spec in specs:
            assert len(frames_of(trace, spec.id)) == 20

    def test_no_bus_overlap(self):
        specs = [FrameSpec(CanId(0x10 + i), 10 * MS) for i in range(6)]  # all collide at 0
        cfg = config([node("a", specs)], 50 * MS)
        with pytest.warns(UserWarning, match="collision"):
            trace = simulate(cfg)
        ends = trace.bus_ticks[:-1] + trace.tx_ticks[:-1]
        assert np.all(trace.bus_ticks[1:] >= ends)

    def test_lowest_id_wins_when_simultaneous(self):
        specs = [FrameSpec(CanId(0x30), 10 * MS), FrameSpec(CanId(0x21), 10 * MS),
                 FrameSpec(CanId(0x25), 10 * MS)]
        cfg = config([node("a", [s]) for s, _ in zip(specs, range(3))], 30 * MS)
        with pytest.warns(UserWarning):
            trace = simulate(cfg)
        burst = [i.value for i in ids_of(trace)[:3]]
        assert burst == sorted(burst)

    @pytest.mark.filterwarnings("ignore:schedule is not collision-free")
    def test_standard_beats_extended_with_same_prefix(self):
        ext = FrameSpec(CanId((0x10 << 18) | 0x3FFFF, extended=True), 50 * MS)
        std = FrameSpec(CanId(0x10), 50 * MS)
        cfg = config([node("a", [ext]), node("b", [std])], 100 * MS)
        trace = simulate(cfg)
        assert ids_of(trace)[:2] == [std.id, ext.id]

    def test_duration_invariant(self):
        with pytest.raises(ValueError, match="two periods"):
            config([node("a", [FrameSpec(CanId(1), 100 * MS)])], 150 * MS)

    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError, match="unique"):
            config([node("a", [FrameSpec(CanId(1), 10 * MS)]),
                    node("b", [FrameSpec(CanId(1), 20 * MS)])], 100 * MS)

    def test_covert_node_needs_the_bus_channel(self):
        frames = [FrameSpec(CanId(1), 10 * MS)]
        with pytest.raises(ValueError, match="node b uses the covert channel"):
            config([node("a", frames), node("b", [FrameSpec(CanId(2), 10 * MS)], covert=True)],
                   100 * MS)
        config([node("a", frames, covert=True)], 100 * MS, covert=CovertConfig(KEY))
        with pytest.raises(TypeError, match="node a: covert must be a bool"):
            node("a", frames, covert=CovertConfig(KEY))  # the channel is the bus's


class TestDeterminism:
    def _render(self, cfg):
        buf = io.StringIO()
        write_trace(simulate(cfg), buf)
        return buf.getvalue()

    def test_same_seed_byte_identical(self):
        specs = [FrameSpec(CanId(0x10 + i), 10 * MS, i * 1250.0) for i in range(4)]
        mk = lambda: config([node("a", specs, ClockModel(skew_ppm=30, jitter=Jitter("uniform", half_width_us=2)),
                                  True)], 100 * MS, seed=5, stuffing="payload",
                            covert=CovertConfig(KEY))
        assert self._render(mk()) == self._render(mk())

    def test_different_seed_differs(self):
        specs = [FrameSpec(CanId(0x10), 10 * MS)]
        clock = ClockModel(jitter=Jitter("uniform", half_width_us=2))
        a = config([node("a", specs, clock)], 100 * MS, seed=1)
        b = config([node("a", specs, clock)], 100 * MS, seed=2)
        assert self._render(a) != self._render(b)


class TestStuffingModes:
    def test_none_gives_nominal_time(self):
        cfg = config([node("a", [FrameSpec(CanId(0x10), 10 * MS)])], 50 * MS)
        assert set(simulate(cfg).tx_ticks.tolist()) == {22200}

    def test_payload_mode_is_deterministic_per_payload(self):
        cfg = config([node("a", [FrameSpec(CanId(0x10), 10 * MS)])], 50 * MS,
                     stuffing="payload")
        trace, again = simulate(cfg), simulate(cfg)
        times = dict(zip(payloads_of(trace), trace.tx_ticks.tolist()))
        again = dict(zip(payloads_of(again), again.tx_ticks.tolist()))
        assert times == again
        assert all(t >= 22200 for t in times.values())


class TestBusload:
    def test_single_frame_per_second(self):
        cfg = config([node("a", [FrameSpec(CanId(0x10), 500 * MS)])], 1000 * MS)
        assert busload(simulate(cfg)) == pytest.approx(2 * 0.0222, rel=0.01)

    def test_stationary_under_longer_duration(self):
        specs = [FrameSpec(CanId(0x10 + i), 10 * MS, i * 2000.0) for i in range(4)]
        one = busload(simulate(config([node("a", specs)], 500 * MS)))
        two = busload(simulate(config([node("a", specs)], 1000 * MS)))
        assert abs(one - two) < 1.0

    def test_refuses_a_trace_read_from_a_file(self):
        # the file stores neither wire times nor the bus's duration
        buf = io.StringIO()
        write_trace(simulate(config([node("a", [FrameSpec(CanId(0x10), 10 * MS)])], 100 * MS)),
                    buf)
        buf.seek(0)
        with pytest.raises(ValueError, match="BusConfig.wire_ticks"):
            busload(parse_trace(buf))


@pytest.fixture(scope="module")
def paper_trace():
    periods = [10 * MS] * 6 + [20 * MS] * 8 + [50 * MS] * 12 + [100 * MS] * 14
    offsets = allocate_gcd(periods, ifs_us=500.0)
    specs = [FrameSpec(CanId(0x100 + i), p, o, 64)
             for i, (p, o) in enumerate(zip(periods, offsets))]
    cfg = config([node("a", specs)], 400 * MS, stuffing="payload")
    return simulate(cfg)


class TestPaperVectorTraffic:
    def test_busload_in_paper_band(self, paper_trace):
        assert 30.0 <= busload(paper_trace) <= 45.0

    def test_interframe_delays_concentrate_at_gcd_spacings(self, paper_trace):
        gaps = np.diff(paper_trace.bus_ticks) / (100 * MS)
        near = np.abs(gaps[:, None] - np.array([0.5, 1.0])).min(axis=1) < 0.05
        assert np.mean(near) > 0.85  # bulk at 0.5/1.0 ms, rare window-end idle gaps


class TestOversubscription:
    def test_diagnostic(self):
        specs = [FrameSpec(CanId(0x10 + i), 2 * MS, 0.0, 64) for i in range(12)]
        cfg = config([node("a", specs)], 40 * MS, bitrate_bps=125_000)
        with pytest.warns(UserWarning):
            with pytest.raises(OversubscribedBusError, match="busload"):
                simulate(cfg)


def reference_simulate(config: BusConfig) -> Trace:
    """The simulator as it was before it computed releases as arrays: every
    release, one at a time in Python ints of 10 ns ticks, through the
    arbitration heap. `simulate` is held to it."""
    specs = config.frame_specs()
    if not check_complete(Schedule(tuple(specs))):
        warnings.warn("schedule is not collision-free; covert verification will degrade",
                      stacklevel=2)

    # (ready tick, arbitration key, seq, id position in specs, counter, tx ticks,
    # payload) per release
    releases: list[tuple] = []
    seq = 0
    id_pos = -1
    for node_idx, node in enumerate(config.nodes):
        for frame_idx, spec in enumerate(node.frames):
            id_pos += 1
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((config.seed, node_idx, frame_idx))))
            template = payload_template(spec)
            key = spec.id.arbitration_key()
            for counter, base in enumerate(base_ticks(config, spec), 1):
                payload, xi = template, 0
                if node.covert:
                    payload = with_counter(template, counter)
                    xi = covert_delay(config.covert.key, counter, spec.id, payload,
                                      config.covert.level_bits)
                ready = ready_tick(node.clock, base + 100 * xi, rng)
                releases.append((ready, key, seq, id_pos, counter,
                                 wire_tick(config, spec.id, payload), payload))
                seq += 1

    heapq.heapify(releases)
    waiting: list[tuple] = []  # (arbitration key, seq, release)
    id_index, counters, starts, txs, payloads = [], [], [], [], []
    queue_limit = 4 * len(specs) + 16
    t = 0
    while releases or waiting:
        while releases and releases[0][0] <= t:
            release = heapq.heappop(releases)
            heapq.heappush(waiting, (release[1], release[2], release))
        if not waiting:
            t = releases[0][0]
            continue
        if len(waiting) > queue_limit:
            raise OversubscribedBusError(
                f"transmission queue exceeded {queue_limit} pending frames "
                f"(theoretical busload {_theoretical_busload(config):.0f}%)")
        ready, _, _, pos, counter, tx, payload = heapq.heappop(waiting)[2]
        start = max(t, ready)
        id_index.append(pos)
        counters.append(counter)
        starts.append(start)
        txs.append(tx)
        payloads.append(payload)
        t = start + tx
    return Trace(tuple(f.id for f in specs), np.array(id_index, dtype=np.int64),
                 np.array(counters, dtype=np.int64), np.array(starts, dtype=np.int64),
                 np.array(txs, dtype=np.int64),
                 *payload_columns(payloads),
                 np.ones(len(starts), dtype=bool), config.duration_us)


JITTERS = st.one_of(
    st.just(Jitter()),
    st.builds(Jitter, st.just("uniform"), half_width_us=st.floats(0.0, 5.0)),
    st.builds(Jitter, st.just("gaussian"), sigma_us=st.floats(0.0, 5.0)),
    st.builds(Jitter, st.just("steps"), prob=st.floats(0.0, 0.5), step_us=st.floats(0.0, 5.0),
              spread_us=st.floats(0.0, 2.0)))


@st.composite
def contended_buses(draw):
    """1-6 IDs on up to three nodes, few distinct offsets so frames contend,
    periods near the wire time of a frame so some buses overflow."""
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, 0x7FF), min_size=n, max_size=n, unique=True))
    ids = [CanId(v << 18 | 5, extended=True) if draw(st.booleans()) else CanId(v)
           for v in values]
    owner = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    nodes = []
    for node_idx in sorted(set(owner)):
        sends_covert = draw(st.booleans())
        frames = [FrameSpec(can_id, draw(st.sampled_from([1000.0, 2000.0, 2500.0, 5000.0])),
                            draw(st.sampled_from([0.0, 150.0, 487.3])),
                            8 * draw(st.sampled_from([4, 8] if sends_covert else [0, 2, 4, 8])))
                  for can_id, o in zip(ids, owner) if o == node_idx]
        clock = ClockModel(skew_ppm=draw(st.sampled_from([0.0, 45.0, -62.5, 333.3])),
                           tick_ns=draw(st.sampled_from([10, 100])), jitter=draw(JITTERS))
        nodes.append(NodeConfig(f"n{node_idx}", clock, tuple(frames), sends_covert))
    slowest = max(f.period_us for nd in nodes for f in nd.frames)
    return BusConfig(tuple(nodes), 2 * slowest + draw(st.sampled_from([0.0, 3333.3, 20000.0])),
                     bitrate_bps=draw(st.sampled_from([50_000, 125_000, 500_000])),
                     seed=draw(st.integers(0, 2**16)),
                     stuffing=draw(st.sampled_from(["none", "payload"])),
                     covert=CovertConfig(KEY, level_bits=draw(st.sampled_from([2, 8, 12]))))


def per_stream_releases(config: BusConfig):
    """The releases built one (node, frame) stream at a time and one release at a
    time, in Python ints of 10 ns ticks, with the payloads as a list; its kernels
    are the one-frame-at-a-time oracles above. `_releases` is held to it. Last,
    each release's covert delay (-1 for a plain sender), or None without a covert
    node."""
    ready, tx, pos, counters, payloads, delays = [], [], [], [], [], []
    id_pos = -1
    for node_idx, node in enumerate(config.nodes):
        for frame_idx, spec in enumerate(node.frames):
            id_pos += 1
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((config.seed, node_idx, frame_idx))))
            template = payload_template(spec)
            for counter, base in enumerate(base_ticks(config, spec), 1):
                payload, xi = template, -1
                if node.covert:
                    payload = with_counter(template, counter)
                    xi = int(hmac_delays(config.covert.key, [counter], spec.id.value, [payload],
                                         config.covert.level_bits)[0])
                ready.append(ready_tick(node.clock, base + 100 * max(xi, 0), rng))
                tx.append(wire_tick(config, spec.id, payload))
                pos.append(id_pos)
                counters.append(counter)
                payloads.append(payload)
                delays.append(xi)
    covert = any(n.covert for n in config.nodes)
    return (*(np.array(column, dtype=np.int64) for column in (ready, tx, pos, counters)),
            payloads, np.array(delays, dtype=np.int64) if covert else None)


@st.composite
def release_buses(draw):
    """1-6 streams on up to three nodes: standard and extended IDs, 0-8 byte
    payloads (4-8 on a covert node), each node on the bus's covert channel
    (level_bits 1-16, one of two keys) or not, every jitter kind, either
    stuffing mode."""
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, 0x7FF), min_size=n, max_size=n, unique=True))
    ids = [CanId(v << 18 | draw(st.integers(0, 0x3FFFF)), extended=True)
           if draw(st.booleans()) else CanId(v) for v in values]
    owner = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    nodes = []
    for node_idx in sorted(set(owner)):
        covert = draw(st.booleans())
        frames = [FrameSpec(can_id, draw(st.sampled_from([1000.0, 2500.0, 5000.0, 7777.7])),
                            draw(st.sampled_from([0.0, 150.0, 487.3])),
                            8 * draw(st.integers(4 if covert else 0, 8)))
                  for can_id, o in zip(ids, owner) if o == node_idx]
        clock = ClockModel(skew_ppm=draw(st.sampled_from([0.0, 45.0, -62.5, 333.3])),
                           tick_ns=draw(st.sampled_from([10, 100])), jitter=draw(JITTERS))
        nodes.append(NodeConfig(f"n{node_idx}", clock, tuple(frames), covert))
    slowest = max(f.period_us for nd in nodes for f in nd.frames)
    return BusConfig(tuple(nodes), 2 * slowest + draw(st.sampled_from([0.0, 3333.3, 20000.0])),
                     bitrate_bps=draw(st.sampled_from([50_000, 125_000, 500_000])),
                     seed=draw(st.integers(0, 2**16)),
                     stuffing=draw(st.sampled_from(["none", "payload"])),
                     covert=CovertConfig(draw(st.sampled_from([KEY, bytes(range(32, 64))])),
                                         level_bits=draw(st.integers(1, 16))))


class TestBatchedReleases:
    @settings(max_examples=300, deadline=None)
    @given(release_buses())
    def test_equal_the_per_stream_loop(self, cfg):
        *columns, rows, lengths, sent = _releases(cfg)
        *want, payloads, want_sent = per_stream_releases(cfg)
        assert (sent is None) == (want_sent is None)
        for name, got, expected in zip(("ready", "tx", "pos", "counter", "sent"),
                                       [*columns, sent], [*want, want_sent]):
            if expected is not None:
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        assert payload_list(rows, lengths) == payloads
        assert rows.dtype == np.uint8 and not rows[np.arange(8) >= lengths[:, None]].any()


def simulate_or_overflow(simulator, cfg):
    try:
        return simulator(cfg)
    except OversubscribedBusError:
        return None


class TestDecodeThroughTheFile:
    @pytest.mark.filterwarnings("ignore:schedule is not collision-free")
    @settings(max_examples=150, deadline=None)
    @given(release_buses(), st.sampled_from([0.0, 2.0, 5.0]), st.integers(1, 3))
    def test_the_trace_file_decodes_as_the_simulated_trace(self, cfg, rho, frames):
        """What `verify` decodes from trace.csv is what `decode` gives on the
        simulated trace, frame for frame."""
        trace = simulate_or_overflow(simulate, cfg)
        if trace is None:
            return
        buf = io.StringIO()
        write_trace(trace, buf)
        buf.seek(0)
        rx = Receiver({f.id: f.period_us for f in cfg.frame_specs()}, rho, frames)
        want, got = decode(trace, cfg.covert, rx), decode(parse_trace(buf), cfg.covert, rx)
        for name in ("error_us", "symbol", "accepted", "window"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestMatchesReleaseLoop:
    @pytest.mark.filterwarnings("ignore:schedule is not collision-free")
    @settings(max_examples=300, deadline=None)
    @given(contended_buses())
    def test_simulate_equals_per_release_heap(self, cfg):
        want = simulate_or_overflow(reference_simulate, cfg)
        got = simulate_or_overflow(simulate, cfg)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.ids == want.ids
            for column in ("id_index", "counter", "bus_ticks", "tx_ticks", "payloads",
                           "payload_len"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column


@st.composite
def clean_buses(draw):
    """1-4 streams on one node with a clean clock (no skew, a 10 ns tick, no jitter),
    covert or not, at 1 Mbit/s. Periods are whole ms and each offset lies a few us
    into its own quarter of a ms, some off the tick grid, so with covert delays under
    64 us and wire times under 170 us no frame ever waits for another."""
    n = draw(st.integers(1, 4))
    covert = draw(st.booleans())
    values = draw(st.lists(st.integers(0, 0x7FF), min_size=n, max_size=n, unique=True))
    frames = tuple(FrameSpec(CanId(v), draw(st.sampled_from([1000.0, 2000.0, 3000.0, 5000.0])),
                             250.0 * slot + draw(st.sampled_from([0.0, 0.017, 0.3, 7.3, 12.345])),
                             8 * draw(st.integers(4 if covert else 0, 8)))
                   for slot, v in enumerate(values))
    return BusConfig((NodeConfig("a", ClockModel(), frames, covert),),
                     draw(st.sampled_from([10000.0, 13333.3, 20000.0])), bitrate_bps=1_000_000,
                     stuffing=draw(st.sampled_from(["none", "payload"])),
                     covert=CovertConfig(KEY, level_bits=draw(st.integers(1, 6))))


# a float k*1000 + 487.3 us fell just below its tick, and 0.017 us was floored to 1 tick
OFF_GRID = config([node("a", [FrameSpec(CanId(0x100), 1000.0, 487.3),
                              FrameSpec(CanId(0x101), 2000.0, 0.017)])], 10 * MS)


class TestCleanClocks:
    @settings(max_examples=200, deadline=None)
    @given(clean_buses())
    @example(OFF_GRID)
    def test_frames_start_at_their_stream_instants(self, cfg):
        """A frame that waits for no other starts at o + k*p, in the ticks that
        `scheduler._streams` gives, plus 100 ticks a us of its covert delay."""
        trace = simulate(cfg)
        p, o = _streams(Schedule(tuple(cfg.frame_specs())))
        xi = 0
        if cfg.nodes[0].covert:
            id_values = np.array([i.value for i in trace.ids])[trace.id_index]
            xi = covert_delays(cfg.covert.key, trace.counter, id_values, trace.payloads,
                               trace.payload_len, cfg.covert.level_bits)
        k = trace.counter - 1
        want = o[trace.id_index] + k * p[trace.id_index] + 100 * xi
        assert trace.bus_ticks.tolist() == want.tolist()

    def test_off_grid_offsets(self):
        trace = simulate(OFF_GRID)
        assert frames_of(trace, CanId(0x100)).bus_ticks[8:].tolist() == [848730, 948730]
        assert frames_of(trace, CanId(0x101)).bus_ticks[0] == 2  # floor(1.7 + 0.5)


def covert_trace(duration_us=400 * MS, jitter=None, seed=3):
    cov = CovertConfig(key=KEY, level_bits=8)
    periods = [10 * MS, 10 * MS]
    offsets = allocate_gcd(periods, ifs_us=600.0)
    specs = [FrameSpec(CanId(0x100 + i), p, o) for i, (p, o) in enumerate(zip(periods, offsets))]
    clock = ClockModel(jitter=jitter or Jitter())
    cfg = config([node("ecu", specs, clock, True)], duration_us, seed=seed, covert=cov)
    return simulate(cfg), cov, {s.id: s.period_us for s in specs}


class TestCovertSending:
    def test_send_times_embed_covert_delays(self):
        trace, cov, periods = covert_trace()
        verdicts = verify_frames(cov, periods, trace)
        scored = [v for v in verdicts if v.reason != "first"]
        assert scored and all(v.accepted for v in scored)

    def test_intersend_delta_is_period_plus_covert_difference(self):
        trace, cov, periods = covert_trace(duration_us=100 * MS)
        for can_id, period in periods.items():
            own = frames_of(trace, can_id)
            xi = covert_delays(cov.key, own.counter, can_id.value, own.payloads, own.payload_len,
                               cov.level_bits)
            assert np.diff(own.bus_ticks).tolist() == (100 * (period + np.diff(xi))).tolist()

    def test_payloads_carry_counters_at_every_length(self):
        cov = CovertConfig(key=KEY, level_bits=8)
        specs = [FrameSpec(CanId(0x100 + n), 10 * MS, 600.0 * n, 8 * n) for n in range(4, 9)]
        trace = simulate(config([node("ecu", specs, covert=True)], 100 * MS, covert=cov))
        assert len(trace) == 50
        for can_id, counter, payload in zip(ids_of(trace), trace.counter.tolist(),
                                            payloads_of(trace)):
            spec = specs[can_id.value - 0x104]
            assert payload == with_counter(payload_template(spec), counter)

    def test_counters_increase_per_id(self):
        trace, _, periods = covert_trace()
        for can_id in periods:
            counters = frames_of(trace, can_id).counter.tolist()
            assert counters == list(range(1, len(counters) + 1))

    def test_interarrival_spread_covers_delay_window(self):
        trace, _, periods = covert_trace(duration_us=1000 * MS)
        for can_id in periods:
            deltas = np.diff(frames_of(trace, can_id).bus_ticks) / 100
            spread = deltas - 10 * MS
            assert spread.max() <= 256 and spread.min() >= -256
            assert spread.max() - spread.min() > 128  # covert delays really vary


class TestInjectAdversary:
    def test_fixed_offset_matching_covert_delta_is_accepted(self):
        # a forged frame sent exactly at the genuine spacing: the genuine frame, tagged forged
        trace, cov, periods = covert_trace(duration_us=30 * MS)
        short = frames_of(trace, CanId(0x100)).take(slice(0, 2))
        forged = replace(short, genuine=np.array([True, False]))
        verdicts = verify_frames(cov, periods, forged)
        assert verdicts[1].accepted and not forged.genuine[-1]

    def test_random_window_rate_near_analytic(self):
        trace, cov, periods = covert_trace(duration_us=3000 * MS)
        target = CanId(0x100)
        forged = forge_blind(trace, target, 10 * MS, seed=9)
        verdicts = verify_frames(cov, periods, frames_of(forged, target))
        scored = [v for v in verdicts if v.reason != "first"]
        rate = sum(v.accepted for v in scored) / len(scored)
        assert 0.0 <= rate <= 0.15  # ~3.9% expected, few hundred samples
