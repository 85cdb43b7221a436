"""Deterministic discrete-event simulation of a shared CAN bus.

Every cyclic frame is released at k*period + offset (+ covert delay) on
its sender's local clock, mapped to bus time through that node's skewed
and quantized oscillator. Whenever the bus is idle the pending frame
with the lowest identifier transmits for its full wire time, including
the stuff bits of its actual payload (or none, with `stuffing = none`);
arbitration is non-destructive so losers simply wait. Identical
configuration and seed reproduce the trace byte for byte.
"""

from __future__ import annotations

import heapq
import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from canto.clock_model import ClockModel
from canto.frame_model import (CanId, FrameSpec, frame_bit_length, frame_wire_time_us,
                               transmission_time_us)
from canto.incanta import CovertConfig, covert_delay, embed_counter
from canto.scheduler import Schedule, check_complete


STUFFING_MODES = ("none", "payload")


class OversubscribedBusError(RuntimeError):
    """The transmission queue grows without bound for this configuration."""


@dataclass(frozen=True)
class NodeConfig:
    """One ECU: its oscillator, the frames it sends, optional covert channel."""

    name: str
    clock: ClockModel = ClockModel()
    frames: tuple[FrameSpec, ...] = ()
    covert: CovertConfig | None = None

    def __post_init__(self):
        if self.covert is not None:
            small = [str(f.id) for f in self.frames if f.payload_bits < 32]
            if small:
                raise ValueError(f"frames {small} of node {self.name} cannot carry "
                                 "the 4-byte counter in their payload")


@dataclass(frozen=True)
class BusConfig:
    nodes: tuple[NodeConfig, ...]
    duration_us: float
    bitrate_bps: int = 500_000
    seed: int = 0
    stuffing: str = "payload"  # none | payload

    def __post_init__(self):
        specs = self.frame_specs()
        if not specs:
            raise ValueError("no frames configured")
        duplicates = sorted(str(i) for i, n in Counter(f.id for f in specs).items() if n > 1)
        if duplicates:
            raise ValueError(f"duplicate CAN ids {duplicates}: frame identifiers must be "
                             "unique across the bus")
        slowest = max(f.period_us for f in specs)
        if not 2 * slowest <= self.duration_us < math.inf:
            raise ValueError(f"duration_us {self.duration_us:g} must be finite and cover "
                             f"two periods of the slowest frame ({slowest:g} us)")
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate {self.bitrate_bps} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")
        if self.stuffing not in STUFFING_MODES:
            raise ValueError(f"stuffing {self.stuffing!r} is not one of {STUFFING_MODES}")

    def frame_specs(self) -> list[FrameSpec]:
        return [f for n in self.nodes for f in n.frames]


@dataclass(frozen=True)
class TimedFrame:
    """One frame occurrence as a row: the start of its transmission on the bus."""

    id: CanId
    counter: int
    bus_time_us: float
    tx_time_us: float
    payload: bytes
    genuine: bool = True

    @property
    def end_time_us(self) -> float:
        return self.bus_time_us + self.tx_time_us


@dataclass(eq=False)
class Trace:
    """A time-ordered trace, stored as one column per frame field.

    Frame i has identifier `ids[id_index[i]]`, `counter[i]`, transmission
    start `bus_time_us[i]` and wire time `tx_time_us[i]` (0 when unknown),
    `payloads[i]` and `genuine[i]`.
    """

    ids: tuple[CanId, ...]
    id_index: np.ndarray  # int64
    counter: np.ndarray  # int64
    bus_time_us: np.ndarray
    tx_time_us: np.ndarray
    payloads: list[bytes]
    genuine: np.ndarray  # bool
    duration_us: float = 0.0

    @classmethod
    def from_frames(cls, rows, duration_us: float = 0.0) -> "Trace":
        """A trace of the given rows, in their order."""
        rows = list(rows)
        index: dict[CanId, int] = {}
        id_index = np.array([index.setdefault(f.id, len(index)) for f in rows], dtype=np.int64)
        return cls(tuple(index), id_index, np.array([f.counter for f in rows], dtype=np.int64),
                   np.array([f.bus_time_us for f in rows], dtype=np.float64),
                   np.array([f.tx_time_us for f in rows], dtype=np.float64),
                   [f.payload for f in rows], np.array([f.genuine for f in rows], dtype=bool),
                   duration_us)

    def __len__(self):
        return len(self.bus_time_us)

    @property
    def frames(self) -> list[TimedFrame]:
        """The rows, built on each read; for tests and hand-sized traces."""
        return [TimedFrame(self.ids[k], c, t, tx, p, g) for k, c, t, tx, p, g in zip(
            self.id_index.tolist(), self.counter.tolist(), self.bus_time_us.tolist(),
            self.tx_time_us.tolist(), self.payloads, self.genuine.tolist())]

    def take(self, rows) -> "Trace":
        """The frames at the given positions (or boolean mask), in that order."""
        rows = np.arange(len(self))[rows]
        return Trace(self.ids, self.id_index[rows], self.counter[rows], self.bus_time_us[rows],
                     self.tx_time_us[rows], [self.payloads[i] for i in rows.tolist()],
                     self.genuine[rows], self.duration_us)


def _payload_template(spec: FrameSpec) -> bytes:
    n = spec.payload_bits // 8
    return bytes(((spec.id.value >> 3) + i) & 0xFF for i in range(n))


def _theoretical_busload(config: BusConfig) -> float:
    load = 0.0
    for f in config.frame_specs():
        bits = frame_bit_length(f.payload_bits, f.id.kind)
        load += transmission_time_us(bits, config.bitrate_bps) / f.period_us
    return 100.0 * load


def simulate(config: BusConfig) -> Trace:
    """Run the bus and return the time-ordered trace of transmissions."""
    specs = config.frame_specs()
    if not check_complete(Schedule(tuple(specs))):
        warnings.warn("schedule is not collision-free; covert verification will degrade",
                      stacklevel=2)

    # (ready_us, arbitration key, seq, id position in specs, counter, tx,
    # payload) per release
    releases: list[tuple] = []
    seq = 0
    id_pos = -1
    for node_idx, node in enumerate(config.nodes):
        for frame_idx, spec in enumerate(node.frames):
            id_pos += 1
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((config.seed, node_idx, frame_idx))))
            template = _payload_template(spec)
            nominal_tx = transmission_time_us(frame_bit_length(spec.payload_bits, spec.id.kind),
                                              config.bitrate_bps)
            key = spec.id.arbitration_key()
            counter = 0
            k = 0
            while True:
                base = k * spec.period_us + spec.offset_us
                if base >= config.duration_us:
                    break
                counter += 1
                payload, xi = template, 0
                if node.covert is not None:
                    payload = embed_counter(template, counter)
                    xi = covert_delay(node.covert.key, counter, spec.id, payload,
                                      node.covert.level_bits)
                ready = node.clock.local_to_bus_time(base + xi, rng)
                tx = frame_wire_time_us(spec.id, payload, config.bitrate_bps) \
                    if config.stuffing == "payload" else nominal_tx
                releases.append((ready, key, seq, id_pos, counter, tx, payload))
                seq += 1
                k += 1

    heapq.heapify(releases)
    waiting: list[tuple] = []  # (arbitration key, seq, release)
    id_index, counters, starts, txs, payloads = [], [], [], [], []
    queue_limit = 4 * len(specs) + 16
    t = 0.0
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
                 np.array(counters, dtype=np.int64), np.array(starts, dtype=np.float64),
                 np.array(txs, dtype=np.float64), payloads, np.ones(len(starts), dtype=bool),
                 config.duration_us)


def busload(trace: Trace) -> float:
    """Occupied fraction of the bus over the trace duration, in percent,
    from the wire times the simulator recorded."""
    if not len(trace):
        raise ValueError("empty trace")
    tx = trace.tx_time_us
    duration = trace.duration_us or float(trace.bus_time_us[-1] + tx[-1])
    return 100.0 * sum(tx.tolist()) / duration


def inject_adversary(trace: Trace, can_id: CanId, period_us: float,
                     strategy: str = "random_in_window", seed: int = 0,
                     level_bits: int = 8, offset_us: float | None = None) -> Trace:
    """Replace an ID's genuine frames with adversary-timed ones.

    "random_in_window" places each injected frame at the previous frame's
    time plus the period plus a uniform draw over the covert-delay window,
    which is the best a blind adversary can do. "fixed_offset" uses a
    constant offset_us instead of the draw. Injected frames carry the
    genuine payloads, so only timing decides verification. Frames are
    tagged via `genuine` for later scoring.
    """
    if strategy not in ("random_in_window", "fixed_offset"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "fixed_offset" and offset_us is None:
        raise ValueError("fixed_offset strategy needs offset_us")
    rows = np.flatnonzero(trace.id_index == trace.ids.index(can_id)) \
        if can_id in trace.ids else []
    if not len(rows):
        raise ValueError(f"id {can_id} does not appear in the trace")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xADD))))
    times = trace.bus_time_us.copy()
    genuine = trace.genuine.copy()
    counters = trace.counter[rows].tolist()
    for j in range(1, len(rows)):
        draw = float(rng.uniform(0, 1 << level_bits)) if strategy == "random_in_window" \
            else float(offset_us)
        times[rows[j]] = times[rows[j - 1]] + period_us * (counters[j] - counters[j - 1]) + draw
        genuine[rows[j]] = False
    by_priority = sorted(trace.ids)
    rank = np.array([by_priority.index(i) for i in trace.ids], dtype=np.int64)
    forged = replace(trace, bus_time_us=times, genuine=genuine)
    return forged.take(np.lexsort((rank[trace.id_index], times)))
