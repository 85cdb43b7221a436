"""Deterministic discrete-event simulation of a shared CAN bus.

Every cyclic frame is released at k*period + offset (+ covert delay) on
its sender's local clock, mapped to bus time through that node's skewed
and quantized oscillator. Whenever the bus is idle the pending frame
with the lowest identifier transmits for its full wire time, including
sampled or payload-derived stuff bits; arbitration is non-destructive so
losers simply wait. Identical configuration and seed reproduce the trace
byte for byte.
"""

from __future__ import annotations

import heapq
import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from canto.clock_model import ClockModel
from canto.frame_model import (CanId, FrameSpec, frame_bit_length, frame_max_stuff_bits,
                               frame_wire_time_us, transmission_time_us)
from canto.incanta import CovertConfig, covert_delay, embed_counter
from canto.scheduler import Schedule, check_complete, hyperperiod_us


STUFFING_MODES = ("none", "sampled", "payload")
PAYLOAD_MODES = ("counter", "random", "zero")


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
    stuffing: str = "payload"  # none | sampled | payload
    payload_mode: str = "counter"  # counter | random | zero

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
        if self.payload_mode not in PAYLOAD_MODES:
            raise ValueError(f"payload_mode {self.payload_mode!r} is not one of {PAYLOAD_MODES}")

    def frame_specs(self) -> list[FrameSpec]:
        return [f for n in self.nodes for f in n.frames]


@dataclass(frozen=True)
class TimedFrame:
    """One frame occurrence: the start of its transmission on the bus."""

    id: CanId
    counter: int
    bus_time_us: float
    tx_time_us: float
    payload: bytes
    genuine: bool = True

    @property
    def end_time_us(self) -> float:
        return self.bus_time_us + self.tx_time_us


@dataclass
class Trace:
    frames: list[TimedFrame]
    duration_us: float = 0.0

    def __iter__(self):
        return iter(self.frames)

    def __len__(self):
        return len(self.frames)

    def by_id(self, can_id: CanId) -> list[TimedFrame]:
        return [f for f in self.frames if f.id == can_id]


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
    sched = Schedule(tuple(specs), hyperperiod_us([f.period_us for f in specs]))
    if not check_complete(sched):
        warnings.warn("schedule is not collision-free; covert verification will degrade",
                      stacklevel=2)

    # (ready_us, arbitration key, seq, id, counter, tx, payload) per
    # release; a TimedFrame is built only when the frame wins the bus.
    releases: list[tuple] = []
    seq = 0
    for node_idx, node in enumerate(config.nodes):
        for frame_idx, spec in enumerate(node.frames):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((config.seed, node_idx, frame_idx))))
            template = _payload_template(spec)
            nbytes = spec.payload_bits // 8
            frame_bits = frame_bit_length(spec.payload_bits, spec.id.kind)
            nominal_tx = transmission_time_us(frame_bits, config.bitrate_bps)
            key = spec.id.arbitration_key()
            counter = 0
            k = 0
            while True:
                base = k * spec.period_us + spec.offset_us
                if base >= config.duration_us:
                    break
                counter += 1
                if config.payload_mode == "random":
                    payload = rng.bytes(nbytes)
                elif config.payload_mode == "zero":
                    payload = bytes(nbytes)
                else:
                    payload = template
                xi = 0
                if node.covert is not None:
                    payload = embed_counter(payload, counter)
                    xi = covert_delay(node.covert.key, counter, spec.id, payload,
                                      node.covert.level_bits)
                ready = node.clock.local_to_bus_time(base + xi, rng)
                if config.stuffing == "payload":
                    tx = frame_wire_time_us(spec.id, payload, config.bitrate_bps)
                elif config.stuffing == "sampled":
                    stuff = int(rng.integers(0, frame_max_stuff_bits(spec.payload_bits) + 1))
                    tx = transmission_time_us(frame_bits + stuff, config.bitrate_bps)
                else:
                    tx = nominal_tx
                releases.append((ready, key, seq, spec.id, counter, tx, payload))
                seq += 1
                k += 1

    heapq.heapify(releases)
    waiting: list[tuple] = []  # (arbitration key, seq, release)
    out: list[TimedFrame] = []
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
        ready, _, _, can_id, counter, tx, payload = heapq.heappop(waiting)[2]
        start = max(t, ready)
        out.append(TimedFrame(can_id, counter, start, tx, payload))
        t = start + tx
    return Trace(out, config.duration_us)


def busload(trace: Trace, bitrate_bps: int | None = None) -> float:
    """Occupied fraction of the bus over the trace duration, in percent.

    Traces parsed without wire times fall back to recomputing them from
    each frame's bit pattern at the given bitrate.
    """
    if not trace.frames:
        raise ValueError("empty trace")
    duration = trace.duration_us or trace.frames[-1].end_time_us
    total = sum(f.tx_time_us for f in trace.frames)
    if total == 0.0 and bitrate_bps:
        total = sum(frame_wire_time_us(f.id, f.payload, bitrate_bps) for f in trace.frames)
    return 100.0 * total / duration


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
    if not any(f.id == can_id for f in trace.frames):
        raise ValueError(f"id {can_id} does not appear in the trace")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xADD))))
    out: list[TimedFrame] = []
    last_time: float | None = None
    last_counter: int | None = None
    for fr in trace.frames:
        if fr.id != can_id:
            out.append(fr)
            continue
        if last_time is None:
            out.append(fr)
        else:
            delta = fr.counter - last_counter
            draw = float(rng.uniform(0, 1 << level_bits)) if strategy == "random_in_window" \
                else float(offset_us)
            t = last_time + period_us * delta + draw
            out.append(replace(fr, bus_time_us=t, genuine=False))
        last_time = out[-1].bus_time_us
        last_counter = fr.counter
    out.sort(key=lambda f: (f.bus_time_us, f.id.arbitration_key()))
    return Trace(out, trace.duration_us)
