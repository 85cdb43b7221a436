"""Trace and configuration file formats.

Traces are CSV with timestamps stored as integer tenths of a
microsecond so files are bit-exact across platforms; wire times are not
stored and are rebuilt on request from each frame's bits. Experiment
configurations are INI documents with [bus], optional [covert] and
[allocator] sections and one [node.NAME] section per ECU. Schedules are
line-oriented text: `id_hex period_us offset_us payload_bits`.
"""

from __future__ import annotations

import configparser
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from canto.bus_sim import BusConfig, NodeConfig, Trace
from canto.clock_model import ClockModel, Jitter
from canto.frame_model import CanId, FrameSpec, frame_wire_time_us
from canto.incanta import CovertConfig
from canto.scheduler import Schedule

TRACE_HEADER = "bus_time_us,id_hex,counter,payload_hex,genuine"


class TraceFormatError(ValueError):
    """Malformed trace or configuration input."""


def export_trace(trace: Trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        write_trace(trace, fh)


def write_trace(trace: Trace, fh) -> None:
    fh.write(TRACE_HEADER + "\n")
    texts = [str(i) for i in trace.ids]
    # np.rint rounds half to even, as round() does
    tenths = np.rint(trace.bus_time_us * 10).astype(np.int64).tolist()
    fh.writelines(f"{t},{texts[k]},{c},{p.hex().upper()},{g}\n" for t, k, c, p, g in zip(
        tenths, trace.id_index.tolist(), trace.counter.tolist(), trace.payloads,
        trace.genuine.astype(np.int64).tolist()))


def parse_trace(source, bitrate_bps: int | None = None) -> Trace:
    """Read a trace from a path or text stream.

    With a bitrate, wire times are rebuilt from each frame's bit pattern;
    otherwise they are zero and timestamps are used as recorded.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r") as fh:
            return parse_trace(fh, bitrate_bps)
    trace = _parse_native(source, bitrate_bps)
    if np.any(trace.bus_time_us[:-1] > trace.bus_time_us[1:]):
        warnings.warn("non-monotone timestamps in trace; applying stable sort", stacklevel=2)
        trace = trace.take(np.argsort(trace.bus_time_us, kind="stable"))
    if len(trace):
        trace.duration_us = float(trace.bus_time_us[-1] + trace.tx_time_us[-1])
    return trace


def _parse_native(fh, bitrate_bps: int | None) -> Trace:
    """The trace's columns, read line by line, each id text parsed once."""
    position: dict[CanId, int] = {}
    by_text: dict[str, int] = {}
    id_index, counters, times, payloads, genuine = [], [], [], [], []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line or (lineno == 1 and line == TRACE_HEADER):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise TraceFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            time_us = int(parts[0]) / 10.0
            pos = by_text.get(parts[1])
            if pos is None:
                pos = by_text[parts[1]] = position.setdefault(CanId.parse(parts[1]),
                                                             len(position))
            counter = int(parts[2])
            if not 0 <= counter <= 0xFFFFFFFF:  # the MAC input holds it in 4 bytes
                raise ValueError(f"counter {counter} outside 0..2^32-1")
            payload = bytes.fromhex(parts[3])
            if len(payload) > 8:
                raise ValueError(f"payload of {len(payload)} bytes exceeds the 8 of a CAN frame")
            is_genuine = bool(int(parts[4]))
        except (ValueError, OverflowError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        id_index.append(pos)
        counters.append(counter)
        times.append(time_us)
        payloads.append(payload)
        genuine.append(is_genuine)
    ids = tuple(position)
    tx = [frame_wire_time_us(ids[k], p, bitrate_bps) for k, p in zip(id_index, payloads)] \
        if bitrate_bps else np.zeros(len(times))
    return Trace(ids, np.array(id_index, dtype=np.int64), np.array(counters, dtype=np.int64),
                 np.array(times, dtype=np.float64), np.array(tx, dtype=np.float64), payloads,
                 np.array(genuine, dtype=bool))


def write_schedule(schedule: Schedule, path) -> None:
    with open(path, "w", newline="\n") as fh:
        for f in schedule.frames:
            # repr keeps sub-microsecond offsets exact through a round trip
            fh.write(f"{f.id} {f.period_us!r} {f.offset_us!r} {f.payload_bits}\n")


def read_schedule(path) -> Schedule:
    frames = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise TraceFormatError(f"{path}: line {lineno}: expected 4 fields")
            try:
                frames.append(FrameSpec(CanId.parse(parts[0]), float(parts[1]),
                                        float(parts[2]), int(parts[3])))
            except ValueError as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    if not frames:
        raise TraceFormatError(f"{path}: empty schedule")
    return Schedule(tuple(frames))


@dataclass(frozen=True)
class ExperimentConfig(BusConfig):
    """Everything a run needs: the bus the simulator runs, the covert channel
    parameters and the allocator options. Each node's `covert` is this
    config's `covert` or None."""

    covert: CovertConfig | None = None
    allocator: dict = field(default_factory=dict)

    def to_bus_config(self, schedule: Schedule | None = None,
                      seed: int | None = None) -> BusConfig:
        """This config with the schedule's offsets and, if given, another seed.

        The schedule must give every configured ID its configured period and
        payload, and an offset inside that period.
        """
        nodes = self.nodes
        if schedule is not None:
            scheduled = {f.id: f for f in schedule.frames}
            misfits = [str(f.id) for f in self.frame_specs() if f.id not in scheduled]
            if misfits:
                raise TraceFormatError(f"schedule gives ids {misfits} no offset in their period")
            for f in self.frame_specs():
                s = scheduled[f.id]  # its offset lies inside its own period
                if (s.period_us, s.payload_bits) != (f.period_us, f.payload_bits):
                    raise TraceFormatError(
                        f"schedule gives id {f.id} period {s.period_us:g} us and "
                        f"{s.payload_bits} payload bits, the config {f.period_us:g} us and "
                        f"{f.payload_bits}")
            nodes = tuple(replace(n, frames=tuple(replace(f, offset_us=scheduled[f.id].offset_us)
                                                  for f in n.frames)) for n in nodes)
        return replace(self, nodes=nodes, seed=self.seed if seed is None else seed)


_BUS_KEYS = {"bitrate", "duration_us", "seed", "stuffing"}
_COVERT_KEYS = {"key_hex", "level_bits", "tolerance_us", "frames_required"}
_ALLOC_KEYS = {"algorithm", "ifs_us", "grid_step_us", "iterations", "seed"}
_NODE_KEYS = {"skew_ppm", "tick_ns", "jitter", "covert", "frames"}

_FRAME_RE = re.compile(r"^(0x[0-9A-Fa-f]+|[0-9A-Fa-f]+):(\d+(?:\.\d+)?):(\d+)"
                       r"(?::(\d+(?:\.\d+)?))?$")


def _reject_unknown(section: str, keys, allowed) -> None:
    unknown = set(keys) - allowed
    if unknown:
        raise TraceFormatError(f"[{section}]: unknown keys {sorted(unknown)}")


@contextmanager
def _naming(section: str, key: str | None = None):
    """Re-raise a bad value as a TraceFormatError naming `[section] key`."""
    try:
        yield
    except TraceFormatError:
        raise
    except ValueError as exc:
        where = f"[{section}] {key}" if key else f"[{section}]"
        raise TraceFormatError(f"{where}: {exc}") from exc


def _get(sec, key: str, getter, default):
    """`getter(key, default)` on a section, with a bad value named."""
    with _naming(sec.name, key):
        return getter(key, default)


def parse_experiment_config(source) -> ExperimentConfig:
    """Parse and validate an experiment INI document (path, stream or text)."""
    name = "<string>"
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        name, source = str(source), Path(source).read_text()
    elif not isinstance(source, str):
        source = source.read()
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(source, name)
    except configparser.Error as exc:
        raise TraceFormatError(f"not an INI document: {exc}") from exc

    if "bus" not in cp:
        raise TraceFormatError("missing [bus] section")
    bus = cp["bus"]
    _reject_unknown("bus", bus.keys(), _BUS_KEYS)
    if "duration_us" not in bus:
        raise TraceFormatError("[bus]: missing required key duration_us")

    covert = None
    if "covert" in cp:
        sec = cp["covert"]
        _reject_unknown("covert", sec.keys(), _COVERT_KEYS)
        if "key_hex" not in sec:
            raise TraceFormatError("[covert]: missing required key key_hex")
        with _naming("covert", "key_hex"):
            key = bytes.fromhex(sec["key_hex"])
        level_bits = _get(sec, "level_bits", sec.getint, 8)
        tolerance_us = _get(sec, "tolerance_us", sec.getfloat, 5.0)
        frames_required = _get(sec, "frames_required", sec.getint, 6)
        with _naming("covert"):  # range checks name their own key
            covert = CovertConfig(key, level_bits, tolerance_us, frames_required)

    allocator: dict = {}
    if "allocator" in cp:
        sec = cp["allocator"]
        _reject_unknown("allocator", sec.keys(), _ALLOC_KEYS)
        if "algorithm" not in sec:
            raise TraceFormatError("[allocator]: missing required key algorithm")
        allocator = {"algorithm": sec["algorithm"]}
        for key, getter in (("ifs_us", sec.getfloat), ("grid_step_us", sec.getfloat),
                            ("iterations", sec.getint), ("seed", sec.getint)):
            if key in sec:
                allocator[key] = _get(sec, key, getter, None)

    nodes: list[NodeConfig] = []
    offsets_given = False
    for section in cp.sections():
        if not section.startswith("node."):
            if section in ("bus", "covert", "allocator"):
                continue
            raise TraceFormatError(f"unknown section [{section}]")
        sec = cp[section]
        _reject_unknown(section, sec.keys(), _NODE_KEYS)
        if "frames" not in sec:
            raise TraceFormatError(f"[{section}]: missing required key frames")
        skew_ppm = _get(sec, "skew_ppm", sec.getfloat, 0.0)
        tick_ns = _get(sec, "tick_ns", sec.getint, 10)
        with _naming(section, "jitter"):
            jitter = Jitter.parse(sec.get("jitter", "none"))
        frames = []
        for token in sec["frames"].split():
            m = _FRAME_RE.match(token)
            if not m:
                raise TraceFormatError(f"[{section}]: bad frame spec {token!r} "
                                       "(want id:period_us:payload_bytes[:offset_us])")
            offsets_given |= m.group(4) is not None
            with _naming(section, f"frames {token}"):
                frames.append(FrameSpec(CanId.parse(m.group(1)), float(m.group(2)),
                                        float(m.group(4) or 0), int(m.group(3)) * 8))
        enabled = _get(sec, "covert", sec.getboolean, covert is not None)
        if enabled and covert is None:
            raise TraceFormatError(f"[{section}] covert: the node enables the covert "
                                   "channel but [covert] is missing")
        with _naming(section):
            clock = ClockModel(skew_ppm=skew_ppm, tick_ns=tick_ns, jitter=jitter)
            nodes.append(NodeConfig(section[len("node."):], clock, tuple(frames),
                                    covert if enabled else None))
    if not nodes:
        raise TraceFormatError("no [node.*] sections")
    if allocator and offsets_given:
        raise TraceFormatError("offsets given both manually and via [allocator]")

    with _naming("bus"):  # BusConfig's checks name their own key or ids
        return ExperimentConfig(
            nodes=tuple(nodes),
            duration_us=_get(bus, "duration_us", bus.getfloat, None),
            bitrate_bps=_get(bus, "bitrate", bus.getint, 500_000),
            seed=_get(bus, "seed", bus.getint, 0),
            stuffing=bus.get("stuffing", "payload"),
            covert=covert, allocator=allocator)
