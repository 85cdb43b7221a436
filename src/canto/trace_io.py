"""Trace and configuration file formats.

Traces are CSV with timestamps stored as the trace's integer ticks of
10 ns, so files are bit-exact across platforms; wire times are not
stored, so a trace read back has none (`BusConfig.wire_times_us` prices
frames). Experiment configurations are INI documents with [bus], optional
[covert] and [allocator] sections and one [node.NAME] section per ECU.
Schedules are line-oriented text: `id_hex period_us offset_us payload_bits`.
"""

from __future__ import annotations

import configparser
import re
import warnings
from binascii import hexlify
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from pathlib import Path

import numpy as np

from canto.bus_sim import TIME_LIMIT, BusConfig, NodeConfig, Trace
from canto.clock_model import ClockModel, Jitter
from canto.frame_model import CanId, FrameSpec
from canto.incanta import CovertConfig, Receiver
from canto.scheduler import ALLOCATOR_OPTIONS, ALLOCATORS, Schedule

TRACE_HEADER = "bus_time_10ns,id_hex,counter,payload_hex,genuine"
ERROR_LIMIT_US = 2.0 ** 40 / 1e4  # under it, f"{e:.4f}" of an error of k ticks is k's digits, 00


class TraceFormatError(ValueError):
    """Malformed trace or configuration input."""


# Both CSV files are written _BLOCK rows at a time, as numpy records of NUL-padded
# fixed-width byte fields; a block's text is its records' bytes without the NULs.
_BLOCK = 4096
VERDICT_HEADER = "bus_time_10ns,id_hex,counter,error_us,verdict"


def _digit_groups() -> np.ndarray:
    """"0000" to "9999" as 4 ASCII bytes (uint32), then without leading zeros."""
    number, tables = np.arange(10000), np.empty((2, 10000, 4), dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):  # int64: numpy loops canto already runs
        tables[0, :, j] = number // place % 10 + ord("0")
        tables[1, :, j] = np.where(number >= place, tables[0, :, j], 0)
    return tables.view(np.uint32).ravel()


_GROUPS = _digit_groups()  # built at import, so that no writer call holds its temporaries


def _decimal(values: np.ndarray) -> tuple:
    """int64 values as a sign byte, right-aligned 4-byte digit groups and a "0" for 0."""
    mag = np.abs(values).astype(np.uint64)  # also for -2^63, whose abs wraps to 2^63 unsigned
    zero = (mag == 0) * np.uint8(ord("0"))
    groups = np.empty((len(mag), (len(str(int(mag.max()))) + 3) // 4), dtype=np.uint32)
    for g in range(groups.shape[1] - 1, -1, -1):
        mag, rest = np.divmod(mag, 10000)  # a group with no digits above has no leading zeros
        groups[:, g] = _GROUPS.take(rest + (mag == 0) * np.uint64(10000))
    return (values < 0) * np.uint8(ord("-")), groups.view(f"V{4 * groups.shape[1]}").ravel(), zero


_HEX = np.frombuffer(hexlify(bytes(range(256))).upper(), dtype=np.uint16)  # byte -> 2 digits
# a bytes.translate table: hex digit -> its value, NUL (past a text's end) -> 0, any other -> 16
_NIBBLE = bytes(int(chr(c), 16) if chr(c) in "0123456789abcdefABCDEF" else 16 * (c > 0)
                for c in range(256))


def _hex_parts(rows: np.ndarray, lengths: np.ndarray) -> tuple:
    """Each payload in upper-case hex, NUL past its length."""
    chars = _HEX.take(rows).view(np.uint8)
    chars *= np.arange(16) < 2 * lengths[:, None]
    return (chars.view("V16").ravel(),)


def _fixed4_parts(values: np.ndarray) -> tuple:
    """`decode`'s errors to 4 decimals, NaN as no text: the digits of each one's ticks,
    rint(|v| * 100), unless one is ERROR_LIMIT_US or more, when `format` writes them all."""
    if np.any(np.abs(values) >= ERROR_LIMIT_US):  # inf too
        return (np.array(["" if v != v else format(v, ".4f") for v in values.tolist()], "S"),)
    shown = ~np.isnan(values)
    q = np.rint(np.abs(np.where(shown, values, 0.0)) * 100).astype(np.uint64)
    _, whole, zero = _decimal(q // 100)
    fraction = _GROUPS.take(np.where(shown, q % 100 * 100, 10000))  # 10000: 0 with no digits
    return ((np.signbit(values) & shown) * np.uint8(ord("-")), whole, zero * shown,
            shown * np.uint8(ord(".")), fraction.view("V4"))


def _write_frames(fh, header: str, trace: Trace, more) -> None:
    """Write `header`, then per frame its bus time in ticks of 10 ns, its
    id text, its counter and the fields `more(rows)` gives for a block. A field
    is a tuple of parts: arrays of one fixed-width item per row, or a byte."""
    fh.write(header + "\n")
    ids = np.array([str(i) for i in trace.ids], dtype="S")
    comma, newline = np.uint8(ord(",")), np.uint8(ord("\n"))
    for lo in range(0, len(trace), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        ticks = trace.bus_ticks[rows]
        fields = (_decimal(ticks), (ids.take(trace.id_index[rows]),),
                  _decimal(trace.counter[rows]), *more(rows))
        parts = [part for field in fields for part in (*field, comma)][:-1] + [newline]
        records = np.zeros(len(ticks), dtype=[(f"f{k}", p.dtype) for k, p in enumerate(parts)])
        for k, part in enumerate(parts):
            records[f"f{k}"] = part
        fh.write(records.tobytes().translate(None, b"\0").decode())
        del fields, parts, records  # before the next block's are made


def export_trace(trace: Trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        write_trace(trace, fh)


def write_trace(trace: Trace, fh) -> None:
    _write_frames(fh, TRACE_HEADER, trace, lambda rows: (
        _hex_parts(trace.payloads[rows], trace.payload_len[rows]),
        (trace.genuine[rows] + np.uint8(ord("0")),)))


def write_verdicts(trace: Trace, decoded, path) -> None:
    """verdicts.csv: each frame of `trace` at its arrival `bus_ticks`, with
    `decode`'s error and its verdict."""
    words = np.array(["intrusion", "accept"], dtype="S")
    with open(path, "w", newline="\n") as fh:
        _write_frames(fh, VERDICT_HEADER, trace, lambda rows: (
            _fixed4_parts(decoded.error_us[rows]), (words.take(decoded.accepted[rows]),)))


def parse_trace(source) -> Trace:
    """Read a trace from a path, whose refusals name it, or a seekable text stream.
    The file stores no wire times, so they are zero: pricing a frame needs the bus's config."""
    if isinstance(source, (str, Path)):
        with open(source, "r") as fh:
            trace = _parse_native(fh, f"{source}: ")
    else:
        trace = _parse_native(source)
    if np.any(trace.bus_ticks[:-1] > trace.bus_ticks[1:]):
        warnings.warn("non-monotone timestamps in trace; applying stable sort", stacklevel=2)
        trace = trace.take(np.argsort(trace.bus_ticks, kind="stable"))
    return trace


# one character wider than the longest valid text ("0x1FFFFFFF", 8 bytes in
# hex), so that a longer field fills its width and is rejected, not cut short
_ID_WIDTH = len("0x1FFFFFFF") + 1
_PAYLOAD_WIDTH = 2 * 8 + 1
_FIELDS = TRACE_HEADER.split(",")
_ROW = np.dtype(list(zip(_FIELDS, ["i8", f"S{_ID_WIDTH}", "i8", f"S{_PAYLOAD_WIDTH}", "i8"])))


def _columns(chunks) -> Trace:
    """The trace in `chunks` (lists of lines, no header), read by numpy's C
    reader, each id text parsed once; a ValueError names the first check refused."""

    def checked():
        for chunk in chunks:
            text = "".join(chunk)  # one scan per chunk of lines
            # only such a chunk can hold a whitespace-only line; numpy skips empty ones
            if not text.isascii() or any(c in text for c in " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"):
                chunk = [line for line in chunk if not line.isspace()]
                text = "".join(chunk)
            # numpy's reader takes 0x1C-0x1F around a number for whitespace, which int()
            # does not; a fixed-width field drops a trailing NUL; and numpy 2.4.6's reader
            # crashed (segmentation fault) on U+9C6CA. Lines holding one are rejected.
            if not text.isascii() or any(c in text for c in "\0\x1c\x1d\x1e\x1f"):
                raise ValueError("a character outside ASCII text (NUL, 0x1C-0x1F or non-ASCII)")
            yield chunk

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(chain.from_iterable(checked()), dtype=_ROW, delimiter=",",
                              comments=None, ndmin=1)
    except ValueError as exc:  # numpy numbers rows its own way; the caller names the line
        column = re.search(r"column (\d+)", str(exc))
        why = re.sub(r" at row \d+(, column \d+)?\.?|;.*", "", str(exc))
        raise ValueError(f"{_FIELDS[int(column[1]) - 1]}: {why}" if column else why) from exc

    texts, first, inverse = np.unique(rows["id_hex"], return_index=True, return_inverse=True)
    position: dict[CanId, int] = {}
    code = np.empty(len(texts), dtype=np.int64)
    for k in np.argsort(first).tolist():  # in order of first appearance
        text = texts[k].decode()
        if len(text) == _ID_WIDTH:
            raise ValueError(f"id {text!r} has over {_ID_WIDTH - 1} characters")
        code[k] = position.setdefault(CanId.parse(text), len(position))
    counter = rows["counter"]
    bad = np.flatnonzero((counter < 0) | (counter > 0xFFFFFFFF))  # the MAC input's 4 bytes
    if len(bad):
        raise ValueError(f"counter {counter[bad[0]]} outside 0..2^32-1")
    hex_texts = rows["payload_hex"]
    size = np.char.str_len(hex_texts)  # no text holds a NUL
    if np.any(size == _PAYLOAD_WIDTH):  # filled
        raise ValueError(f"payload of over {_PAYLOAD_WIDTH - 1} characters exceeds the 8 bytes "
                         "of a CAN frame")
    # a text of hex digit pairs is decoded by table, any other by bytes.fromhex
    nibbles = np.frombuffer(hex_texts.tobytes().translate(_NIBBLE), np.uint8)
    nibbles = nibbles.reshape(-1, _PAYLOAD_WIDTH)
    payloads, lengths = nibbles[:, 0:16:2] << 4 | nibbles[:, 1:16:2], size // 2
    words = nibbles[:, :16].view(np.uint64)  # bit 4 of a byte is set for 16 alone
    odd = ((words[:, 0] | words[:, 1]) & np.uint64(0x1010101010101010) != 0) | (size % 2 == 1)
    for row in np.flatnonzero(odd).tolist():
        payload = bytes.fromhex(hex_texts[row].decode())  # of at most 8 bytes, as 16 characters
        payloads[row], lengths[row] = np.frombuffer(payload.ljust(8, b"\0"), np.uint8), len(payload)
    genuine = rows["genuine"]
    bad = np.flatnonzero((genuine != 0) & (genuine != 1))
    if len(bad):
        raise ValueError(f"genuine {genuine[bad[0]]} is not 0 or 1")
    ticks = rows["bus_time_10ns"]
    if len(bad := np.flatnonzero((ticks >= TIME_LIMIT) | (ticks <= -TIME_LIMIT))):
        raise ValueError(f"bus_time_10ns {ticks[bad[0]]}: at or past 2^53 ticks")
    return Trace(tuple(position), code[inverse], counter.copy(), ticks.copy(),
                 np.zeros(len(rows), dtype=np.int64), payloads, lengths, genuine == 1)


def _data(line: str, at: int) -> bool:
    """Whether file line `at` holds data: it is not blank, nor line 1's header."""
    text = line.strip()
    return text != "" and (at > 1 or text != TRACE_HEADER)


def _refusal(numbered, size: int = 1024) -> tuple[int, str]:
    """The first of the (line number, line) pairs whose line `_columns` refuses,
    and why: judged in blocks of `size` lines, then the first refused block in
    blocks 32 times smaller, down to single lines."""
    while block := list(islice(numbered, size)):
        try:
            _columns([[line for _, line in block]])
        except ValueError as exc:
            return (block[0][0], str(exc)) if size == 1 else _refusal(iter(block), size // 32 or 1)


def _parse_native(fh, where: str = "") -> Trace:
    """The trace read by `_columns` from chunks of about 64 KiB of lines; if it is
    refused, the file is read again to name the first refused line, after `where`."""

    def chunks():
        yield [line for line in [fh.readline()] if _data(line, 1)]
        yield from iter(lambda: fh.readlines(1 << 16), [])

    try:
        try:
            return _columns(chunks())
        except UnicodeDecodeError:
            raise
        except ValueError:  # the rest is decoded first: a byte that is not text always wins
            for _ in iter(lambda: fh.read(1 << 16), ""):
                pass
            fh.seek(0)
            at, why = _refusal((n, line) for n, line in enumerate(fh, 1) if _data(line, n))
    except UnicodeDecodeError as exc:  # raised reading the file, on no line judged
        raise TraceFormatError(f"{where}not text in the file's encoding: {exc}") from exc
    raise TraceFormatError(f"{where}line {at}: {why}")


def write_schedule(schedule: Schedule, path) -> None:
    with open(path, "w", newline="\n") as fh:
        for f in schedule.frames:
            # repr keeps sub-microsecond offsets exact through a round trip
            fh.write(f"{f.id} {f.period_us!r} {f.offset_us!r} {f.payload_bits}\n")


def read_schedule(path) -> Schedule:
    frames, line_of = [], {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if len(parts) != 4:
                    raise ValueError("expected 4 fields")
                frames.append(FrameSpec(CanId.parse(parts[0]), float(parts[1]),
                                        float(parts[2]), int(parts[3])))
                first = line_of.setdefault(frames[-1].id, lineno)
                if first != lineno:
                    raise ValueError(f"id {frames[-1].id} is also on line {first}")
            except ValueError as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    if not frames:
        raise TraceFormatError(f"{path}: empty schedule")
    return Schedule(tuple(frames))


@dataclass(frozen=True)
class ExperimentConfig(BusConfig):
    """Everything a run needs: the bus the simulator runs, with its covert
    channel, the receiver of that channel, and the allocator options."""

    allocator: dict = field(default_factory=dict)
    receiver: Receiver | None = None  # with the channel, from [covert]

    def to_bus_config(self, schedule: Schedule | None = None,
                      seed: int | None = None) -> BusConfig:
        """This config with the schedule's offsets and, if given, another seed.

        The schedule must give every configured ID, and no other, its configured
        period and payload, and an offset inside that period.
        """
        nodes = self.nodes
        if schedule is not None:
            scheduled = {f.id: f for f in schedule.frames}
            configured = {f.id: f for f in self.frame_specs()}
            for ids, what in ((configured.keys() - scheduled.keys(), "no offset in their period"),
                              (scheduled.keys() - configured.keys(), "that the config lacks")):
                if ids:
                    raise TraceFormatError(f"schedule gives ids {sorted(map(str, ids))} {what}")
            for f in configured.values():
                s = scheduled[f.id]  # its offset lies inside its own period
                if (s.period_us, s.payload_bits) != (f.period_us, f.payload_bits):
                    raise TraceFormatError(
                        f"schedule gives id {f.id} period {s.period_us:g} us and "
                        f"{s.payload_bits} payload bits, the config {f.period_us:g} us and "
                        f"{f.payload_bits}")
            nodes = tuple(replace(n, frames=tuple(replace(f, offset_us=scheduled[f.id].offset_us)
                                                  for f in n.frames)) for n in nodes)
        return replace(self, nodes=nodes, seed=self.seed if seed is None else seed)


# Per section, each key the file may give -> (the field it sets, its converter).
# A key the file leaves out is not passed, so the field keeps its dataclass default.
_BUS_KEYS = {"duration_us": ("duration_us", float), "bitrate": ("bitrate_bps", int),
             "seed": ("seed", int), "stuffing": ("stuffing", str)}
_CHANNEL_KEYS = {"key_hex": ("key", bytes.fromhex), "level_bits": ("level_bits", int)}
_RECEIVER_KEYS = {"tolerance_us": ("tolerance_us", float),
                  "frames_required": ("frames_required", int)}
_CLOCK_KEYS = {"skew_ppm": ("skew_ppm", float), "tick_ns": ("tick_ns", int),
               "jitter": ("jitter", Jitter.parse)}
_NODE_KEYS = {*_CLOCK_KEYS, "covert", "frames"}

# the id is the text before the first colon, as CanId.parse reads it in traces and schedules
_FRAME_RE = re.compile(r"^([^:]+):(\d+(?:\.\d+)?):(\d+)(?::(\d+(?:\.\d+)?))?$")


def _checked(sec, allowed, required: str):
    """The section, after checking that it gives no key outside `allowed` and gives
    `required`."""
    unknown = set(sec.keys()).difference(allowed)
    if unknown:
        raise TraceFormatError(f"[{sec.name}]: unknown keys {sorted(unknown)}")
    if required not in sec:
        raise TraceFormatError(f"[{sec.name}]: missing required key {required}")
    return sec


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


def _fields(sec, keys: dict) -> dict:
    """The fields that the section's keys in `keys` set, each value converted
    and a bad one named."""
    fields = {}
    for key, (name, convert) in keys.items():
        if key in sec:
            with _naming(sec.name, key):
                fields[name] = convert(sec[key])
    return fields


def parse_experiment_config(source: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment INI document (path or text)."""
    name = "<string>"
    if "\n" not in str(source):
        name, source = str(source), Path(source).read_text()
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(source, name)
    except configparser.Error as exc:
        raise TraceFormatError(f"not an INI document: {exc}") from exc

    if "bus" not in cp:
        raise TraceFormatError("missing [bus] section")
    bus = _checked(cp["bus"], _BUS_KEYS, "duration_us")

    allocator: dict = {}
    if "allocator" in cp:
        # every allocator option, typed by its signature, but the seed ([bus] seed or --seed)
        types = {k: t for options in ALLOCATOR_OPTIONS.values() for k, t in options.items()}
        sec = _checked(cp["allocator"], {"algorithm", *types} - {"seed"}, "algorithm")
        algorithm, given = sec["algorithm"], [k for k in sec if k != "algorithm"]
        allocator = {"algorithm": algorithm, **_fields(sec, {k: (k, types[k]) for k in given})}
        if algorithm not in ALLOCATORS:
            raise TraceFormatError(f"[allocator] algorithm = {algorithm}: unknown algorithm")
        if key := next((k for k in given if k not in ALLOCATOR_OPTIONS[algorithm]), None):
            raise TraceFormatError(f"[allocator] {key} = {allocator[key]}: algorithm "
                                   f"{algorithm} does not take {key}")

    nodes: list[NodeConfig] = []
    offsets_given = False
    for section in cp.sections():
        if not section.startswith("node."):
            if section in ("bus", "covert", "allocator"):
                continue
            raise TraceFormatError(f"unknown section [{section}]")
        sec = _checked(cp[section], _NODE_KEYS, "frames")
        clock_fields = _fields(sec, _CLOCK_KEYS)
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
        with _naming(section, "covert"):
            enabled = sec.getboolean("covert", "covert" in cp)
        with _naming(section):
            clock = ClockModel(**clock_fields)
            nodes.append(NodeConfig(section[len("node."):], clock, tuple(frames), enabled))
    if not nodes:
        raise TraceFormatError("no [node.*] sections")
    if allocator and offsets_given:
        raise TraceFormatError("offsets given both manually and via [allocator]")

    covert = receiver = None
    if "covert" in cp:
        sec = _checked(cp["covert"], {**_CHANNEL_KEYS, **_RECEIVER_KEYS}, "key_hex")
        with _naming("covert"):  # range checks name their own key
            covert = CovertConfig(**_fields(sec, _CHANNEL_KEYS))
            receiver = Receiver({f.id: f.period_us for n in nodes for f in n.frames},
                                **_fields(sec, _RECEIVER_KEYS))
    with _naming("bus"):  # BusConfig's checks name their own key or ids
        return ExperimentConfig(nodes=tuple(nodes), covert=covert, allocator=allocator,
                                receiver=receiver, **_fields(bus, _BUS_KEYS))
