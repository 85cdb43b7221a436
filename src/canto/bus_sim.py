"""Deterministic discrete-event simulation of a shared CAN bus.

Every cyclic frame is released at k*period + offset (+ covert delay) on
its sender's local clock, mapped to bus time through that node's skewed
and quantized oscillator; each (node, frame) stream is computed as
arrays. Whenever the bus is idle the pending frame with the lowest
identifier transmits for its full wire time, including the stuff bits of
its actual payload (or none, with `stuffing = none`); arbitration is
non-destructive so losers simply wait. Only releases that overlap go
through the arbitration heap. Identical configuration and seed reproduce
the trace byte for byte.
"""

from __future__ import annotations

import heapq
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from canto.clock_model import ClockModel, oscillator_times
from canto.frame_model import (CanId, FrameSpec, frame_bit_length, frame_wire_times_us,
                               transmission_time_us)
from canto.incanta import CovertConfig, covert_delays, embed_counters, mac_fingerprint
from canto.scheduler import MAX_INSTANTS, Schedule, check_complete


STUFFING_MODES = ("none", "payload")
TIME_LIMIT = 1 << 53  # bus times are ticks of 10 ns below it: each is exact in float64


class OversubscribedBusError(RuntimeError):
    """The transmission queue grows without bound for this configuration."""


class TimeLimitError(ValueError):
    """A frame starts at or past TIME_LIMIT ticks."""


@dataclass(frozen=True)
class NodeConfig:
    """One ECU: its oscillator, the frames it sends, whether it uses the covert channel."""

    name: str
    clock: ClockModel = ClockModel()
    frames: tuple[FrameSpec, ...] = ()
    covert: bool = False

    def __post_init__(self):
        if not isinstance(self.covert, bool):
            raise TypeError(f"node {self.name}: covert must be a bool; the bus holds the channel")
        if self.covert:
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
    covert: CovertConfig | None = None  # the channel that the covert nodes share

    def __post_init__(self):
        covert_nodes = [n.name for n in self.nodes if n.covert]
        if covert_nodes and self.covert is None:
            raise ValueError(f"node {covert_nodes[0]} uses the covert channel, but the bus "
                             "has no [covert] channel")
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
        releases = sum(math.ceil((self.duration_us - f.offset_us) / f.period_us) for f in specs)
        if releases > MAX_INSTANTS:
            raise ValueError(f"duration_us {self.duration_us:g} releases {releases:.6g} frames, "
                             f"over {MAX_INSTANTS}")
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate {self.bitrate_bps} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")
        if self.stuffing not in STUFFING_MODES:
            raise ValueError(f"stuffing {self.stuffing!r} is not one of {STUFFING_MODES}")

    def frame_specs(self) -> list[FrameSpec]:
        return [f for n in self.nodes for f in n.frames]

    def wire_times_us(self, ids, id_index, rows, lengths) -> np.ndarray:
        """`frame_wire_times_us` on this bus: its bitrate, stuff bits iff `payload`."""
        return frame_wire_times_us(ids, id_index, rows, lengths, self.bitrate_bps,
                                   self.stuffing == "payload")


@dataclass(eq=False)
class Trace:
    """A time-ordered trace, stored as one column per frame field.

    Frame i has identifier `ids[id_index[i]]`, `counter[i]`, transmission
    start `bus_ticks[i]` and wire time `tx_ticks[i]` in ticks of 10 ns (0
    when unknown), the first `payload_len[i]` bytes of row i of `payloads` as
    its payload, and `genuine[i]`.

    `simulate` sets `sent` to what its senders hashed, so that `decode` need
    not hash it again: each frame's covert delay (-1 for a plain sender's
    frame) and the `mac_fingerprint` of the trace then, under the bus's
    channel. `replace`, `take` and the trace files do not carry it.
    """

    ids: tuple[CanId, ...]
    id_index: np.ndarray  # int64
    counter: np.ndarray  # int64
    bus_ticks: np.ndarray  # int64
    tx_ticks: np.ndarray  # int64
    payloads: np.ndarray  # (n, 8) uint8, zero past each frame's payload
    payload_len: np.ndarray  # int64
    genuine: np.ndarray  # bool
    duration_us: float = 0.0
    sent: tuple | None = field(default=None, init=False, repr=False)

    def __len__(self):
        return len(self.bus_ticks)

    def take(self, rows) -> "Trace":
        """The frames at the given positions (or boolean mask), in that order."""
        rows = np.arange(len(self))[rows]
        return Trace(self.ids, self.id_index[rows], self.counter[rows], self.bus_ticks[rows],
                     self.tx_ticks[rows], self.payloads[rows], self.payload_len[rows],
                     self.genuine[rows], self.duration_us)


def _theoretical_busload(config: BusConfig) -> float:
    load = 0.0
    for f in config.frame_specs():
        bits = frame_bit_length(f.payload_bits, f.id.kind)
        load += transmission_time_us(bits, config.bitrate_bps) / f.period_us
    return 100.0 * load


def _releases(config: BusConfig):
    """Every release, stream after stream, as arrays: ready time on the bus, wire
    time, position of the ID in `frame_specs()`, counter, payload rows and
    lengths, and each release's `Trace.sent` delay (None without a covert
    node). A (node, frame) stream is released at k*period + offset (+ covert
    delay) below the duration, on the node's clock, with jitter from its own
    generator; its payload counts up from id >> 3 and, with the covert channel
    on, carries the counter in its last 4 bytes."""
    specs = config.frame_specs()
    base, jitter, streams = [], [], []
    for node_idx, node in enumerate(config.nodes):
        for frame_idx, spec in enumerate(node.frames):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((config.seed, node_idx, frame_idx))))
            # one k past the estimate; the mask keeps the releases below the duration
            k = np.arange(math.ceil((config.duration_us - spec.offset_us) / spec.period_us) + 1)
            times = k * spec.period_us + spec.offset_us
            base.append(times[times < config.duration_us])
            jitter.append(node.clock.jitter.draws(rng, len(base[-1])))
            streams.append((node.clock.skew_ppm, node.clock.tick_ns, node.covert))
    counts = np.array([len(b) for b in base])
    skew_ppm, tick_ns, covert = np.repeat(np.array(streams), counts, axis=0).T
    pos = np.repeat(np.arange(len(specs)), counts)
    counter = np.arange(1, len(pos) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    id_values, lengths = np.array([(f.id.value, f.payload_bits // 8) for f in specs]).T
    rows = ((id_values[:, None] >> 3) + np.arange(8) & 0xFF) * (np.arange(8) < lengths[:, None])
    rows, lengths, local = rows.astype(np.uint8)[pos], lengths[pos], np.concatenate(base)
    sent, own = None, covert == 1
    if own.any():
        rows[own] = embed_counters(rows[own], lengths[own], counter[own])
        sent = np.full(len(pos), -1)
        sent[own] = covert_delays(config.covert.key, counter[own], id_values[pos[own]],
                                  rows[own], lengths[own], config.covert.level_bits)
        local[own] += sent[own]
    ready = oscillator_times(local, skew_ppm, tick_ns) + np.concatenate(jitter)
    tx = config.wire_times_us(tuple(f.id for f in specs), pos, rows, lengths)
    return ready, tx, pos, counter, rows, lengths, sent


def simulate(config: BusConfig) -> Trace:
    """Run the bus and return the time-ordered trace of transmissions.

    Releases are sorted by (ready time, arbitration rank, release order). A
    release that is ready once the one before it has ended, where that one
    started at its own ready time, starts at its ready time too; runs of
    such releases are taken as whole slices. From the first release that
    overlaps the one before it, the arbitration heap runs until its waiting
    queue drains. Starts and wire times become ticks at the end, half to even.
    """
    specs = config.frame_specs()
    if not check_complete(Schedule(tuple(specs))):
        warnings.warn("schedule is not collision-free; covert verification will degrade",
                      stacklevel=2)
    ready, tx, pos, counter, payloads, lengths, sent = _releases(config)
    by_priority = {can_id: r for r, can_id in enumerate(sorted(f.id for f in specs))}
    rank = np.array([by_priority[f.id] for f in specs], dtype=np.int64)[pos]
    order = np.lexsort((np.arange(len(ready)), rank, ready))
    ready, tx, rank = ready[order], tx[order], rank[order]

    n = len(ready)
    # the releases whose predecessor in `order` has not ended by their ready time
    overlapped = np.append(np.flatnonzero(ready[1:] < ready[:-1] + tx[:-1]) + 1, n)
    queue_limit = 4 * len(specs) + 16
    rows, starts = [], []
    t, i = 0.0, 0
    while i < n:
        if ready[i] >= t:  # the bus is free: a run starting at its ready times
            j = int(overlapped[np.searchsorted(overlapped, i, side="right")])
            rows.append(np.arange(i, j))
            starts.append(ready[i:j])
            t, i = ready[j - 1] + tx[j - 1], j
            continue
        waiting: list[tuple] = []  # (arbitration rank, release order, row)
        heap_rows, heap_starts = [], []
        while True:
            while i < n and ready[i] <= t:
                heapq.heappush(waiting, (rank[i], order[i], i))
                i += 1
            if not waiting:
                break
            if len(waiting) > queue_limit:
                raise OversubscribedBusError(
                    f"transmission queue exceeded {queue_limit} pending frames "
                    f"(theoretical busload {_theoretical_busload(config):.0f}%)")
            row = heapq.heappop(waiting)[2]
            start = max(t, ready[row])
            heap_rows.append(row)
            heap_starts.append(start)
            t = start + tx[row]
        rows.append(np.array(heap_rows, dtype=np.int64))
        starts.append(np.array(heap_starts, dtype=np.float64))
    rows = np.concatenate(rows)
    release = order[rows]  # each transmitted frame's index among the releases
    starts = np.rint(np.concatenate(starts) * 100)
    if not np.abs(starts).max(initial=0.0) < TIME_LIMIT:  # NaN fails too
        raise TimeLimitError(f"a frame starts past {TIME_LIMIT / 100:.4g} us, 2^53 ticks of 10 ns")
    trace = Trace(tuple(f.id for f in specs), pos[release], counter[release],
                  starts.astype(np.int64), np.rint(tx[rows] * 100).astype(np.int64),
                  payloads[release], lengths[release], np.ones(n, dtype=bool), config.duration_us)
    if sent is not None:
        trace.sent = (sent[release], mac_fingerprint(trace, config.covert))
    return trace


def busload(trace: Trace) -> float:
    """Occupied fraction of the bus over the trace duration, in percent,
    from the wire times the simulator recorded."""
    if not trace.duration_us or not trace.tx_ticks.all():
        raise ValueError("busload needs the wire times and duration the simulator records; a "
                         "trace read from a file has neither (BusConfig.wire_times_us prices "
                         "its frames)")
    return sum(trace.tx_ticks.tolist()) / trace.duration_us  # 100 * (ticks / 100) / duration

