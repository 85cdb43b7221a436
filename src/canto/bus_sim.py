"""Deterministic discrete-event simulation of a shared CAN bus.

Every cyclic frame is released at k*period + offset (+ covert delay) on
its sender's local clock, mapped to bus time through that node's skewed
and quantized oscillator, all in int64 ticks of 10 ns; each (node, frame)
stream is computed as arrays. Whenever the bus is idle the pending frame
with the lowest identifier transmits for its full wire time, including the
stuff bits of its actual payload (or none, with `stuffing = none`);
arbitration is non-destructive so losers simply wait. Only releases that
overlap go through the arbitration heap. Identical configuration and seed
reproduce the trace byte for byte.
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
from canto.scheduler import MAX_INSTANTS, Schedule, _streams, check_complete


STUFFING_MODES = ("none", "payload")
TIME_LIMIT = 1 << 53  # bus times are ticks of 10 ns below it: each is exact in float64
PAST_TIME_LIMIT = f"a frame starts past {TIME_LIMIT / 100:.4g} us, 2^53 ticks of 10 ns"


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
        releases = sum(n for _, _, n in self.stream_ticks())
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

    def stream_ticks(self) -> list[tuple[int, int, int]]:
        """Each frame's period p and offset o in ticks of 10 ns, as `scheduler._streams`
        takes them, and its number of releases o + k*p below the duration."""
        p, o = (x.tolist() for x in _streams(Schedule(tuple(self.frame_specs()))))
        num, den = float(self.duration_us).as_integer_ratio()  # o + k*p < 100 * num / den
        return [(pi, oi, -((oi * den - 100 * num) // (pi * den))) for pi, oi in zip(p, o)]

    def wire_ticks(self, ids, id_index, rows, lengths) -> np.ndarray:
        """`frame_wire_times_us` on this bus (bitrate, stuff bits iff `payload`) in 10 ns ticks."""
        return np.rint(100 * frame_wire_times_us(ids, id_index, rows, lengths, self.bitrate_bps,
                                                 self.stuffing == "payload")).astype(np.int64)


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
    return 100.0 * sum(transmission_time_us(frame_bit_length(f.payload_bits, f.id.kind),
                                            config.bitrate_bps) / f.period_us
                       for f in config.frame_specs())


def _releases(config: BusConfig):
    """Every release, stream after stream, as arrays: ready and wire time in ticks, position
    of the ID in `frame_specs()`, counter, payload rows and lengths, and each release's
    `Trace.sent` delay (None without a covert node). A (node, frame) stream is released at
    `BusConfig.stream_ticks`' o + k*p plus its covert delay, on its node's clock floored to
    its tick, plus jitter from its own generator rounded to ticks; its payload counts up
    from id >> 3 and, on the covert channel, carries the counter in its last 4 bytes."""
    specs, streams = config.frame_specs(), config.stream_ticks()
    counts = np.array([n for _, _, n in streams])
    jitter, clocks = [], []
    for node_idx, node in enumerate(config.nodes):
        for frame_idx in range(len(node.frames)):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((config.seed, node_idx, frame_idx))))
            jitter.append(node.clock.jitter.draws(rng, counts[len(clocks)]))
            clocks.append((node.clock.skew_ppm, node.clock.tick_ns, node.covert))
    jitter = np.rint(100 * np.concatenate(jitter))
    if not max(float(np.abs(jitter).max()), *(o + (n - 1) * p for p, o, n in streams)) < TIME_LIMIT:
        raise TimeLimitError(PAST_TIME_LIMIT)  # before int64 arrays hold them; NaN fails too
    local = np.concatenate([o + p * np.arange(n) for p, o, n in streams])
    skew_ppm, tick_ns, covert = np.repeat(np.array(clocks), counts, axis=0).T
    pos = np.repeat(np.arange(len(specs)), counts)
    counter = np.arange(1, len(pos) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    id_values, lengths = np.array([(f.id.value, f.payload_bits // 8) for f in specs]).T
    rows = ((id_values[:, None] >> 3) + np.arange(8) & 0xFF) * (np.arange(8) < lengths[:, None])
    rows, lengths = rows.astype(np.uint8)[pos], lengths[pos]
    sent, own = None, covert == 1
    if own.any():
        rows[own] = embed_counters(rows[own], lengths[own], counter[own])
        sent = np.full(len(pos), -1)
        sent[own] = covert_delays(config.covert.key, counter[own], id_values[pos[own]],
                                  rows[own], lengths[own], config.covert.level_bits)
        local[own] += 100 * sent[own]
    # integers below 2^53 add exactly in float64, and a sum at or past it stays there
    ready = (oscillator_times(local, skew_ppm, tick_ns / 10) + jitter).astype(np.int64)
    tx = config.wire_ticks(tuple(f.id for f in specs), pos, rows, lengths)
    return ready, tx, pos, counter, rows, lengths, sent


def simulate(config: BusConfig) -> Trace:
    """Run the bus and return the time-ordered trace of transmissions.

    Releases are sorted by (ready time, arbitration rank, release order). A release
    that is ready once the one before it has ended, where that one started at its own
    ready time, starts at its ready time too; runs of such releases are taken as whole
    slices. From the first release that overlaps the one before it, the arbitration heap
    runs until its waiting queue drains. Each frame starts once it is ready and the bus
    is free, in int64 ticks; a start of TIME_LIMIT ticks or more is refused.
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
    rows, t, i = [], 0, 0
    while i < n:
        if ready[i] >= t:  # the bus is free: a run starting at its ready times
            j = int(overlapped[np.searchsorted(overlapped, i, side="right")])
            rows.append(np.arange(i, j))
            t, i = ready[j - 1] + tx[j - 1], j
            continue
        waiting, heap_rows = [], []  # waiting: (arbitration rank, release order, row)
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
            heap_rows.append(row)
            t = max(t, ready[row]) + tx[row]
        rows.append(np.array(heap_rows, dtype=np.int64))
    rows = np.concatenate(rows)
    release = order[rows]  # each transmitted frame's index among the releases
    # start k = max(end k-1, ready k), end -1 = 0: a running maximum past the wire time before k
    before = np.cumsum(tx[rows]) - tx[rows]
    starts = before + np.maximum.accumulate(np.maximum(ready[rows] - before, 0))
    if not starts.max() < TIME_LIMIT:
        raise TimeLimitError(PAST_TIME_LIMIT)
    trace = Trace(tuple(f.id for f in specs), pos[release], counter[release], starts, tx[rows],
                  payloads[release], lengths[release], np.ones(n, dtype=bool), config.duration_us)
    if sent is not None:
        trace.sent = (sent[release], mac_fingerprint(trace, config.covert))
    return trace


def busload(trace: Trace) -> float:
    """Occupied fraction of the bus over the trace duration, in percent,
    from the wire times the simulator recorded."""
    if not trace.duration_us or not trace.tx_ticks.all():
        raise ValueError("busload needs the wire times and duration the simulator records; a "
                         "trace read from a file has neither (BusConfig.wire_ticks prices "
                         "its frames)")
    return sum(trace.tx_ticks.tolist()) / trace.duration_us  # 100 * (ticks / 100) / duration

