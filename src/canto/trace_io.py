"""Trace and configuration file formats.

Traces are CSV with timestamps stored as integer tenths of a
microsecond so files are bit-exact across platforms; wire times are not
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
from pathlib import Path

import numpy as np

from canto.bus_sim import BusConfig, NodeConfig, Trace
from canto.clock_model import ClockModel, Jitter
from canto.frame_model import CanId, FrameSpec
from canto.incanta import CovertConfig
from canto.scheduler import Schedule

TRACE_HEADER = "bus_time_us,id_hex,counter,payload_hex,genuine"


class TraceFormatError(ValueError):
    """Malformed trace or configuration input."""


# Both CSV files are written _BLOCK rows at a time, as numpy records of NUL-padded
# fixed-width byte fields; a block's text is its records' bytes without the NULs.
_BLOCK = 1024
VERDICT_HEADER = "bus_time_us,id_hex,counter,error_us,verdict"


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
# hex digit -> its value, NUL (past a text's end) -> 0, any other byte -> 16
_NIBBLE = np.full(256, 16, dtype=np.uint8)
_NIBBLE[list(b"0123456789abcdefABCDEF\0")] = [*range(16), *range(10, 16), 0]


def _hex_parts(rows: np.ndarray, lengths: np.ndarray) -> tuple:
    """Each payload in upper-case hex, NUL past its length."""
    chars = _HEX.take(rows).view(np.uint8)
    chars *= np.arange(16) < 2 * lengths[:, None]
    return (chars.view("V16").ravel(),)


def rounded4(values: np.ndarray) -> np.ndarray:
    """Each value as float(f"{v:.4f}") reads it back: x = |v| * 1e4 rounded half
    to even and divided back, unless x is 2^40 or more or lies within x * 2^-52
    (twice the product's rounding error) of a tie, when `format` rounds v."""
    x = np.abs(np.where(np.abs(values) < 2.0**40 / 1e4, values, np.nan)) * 1e4
    guarded = (np.abs(x - np.floor(x) - 0.5) <= x * 2.0**-52) | np.isnan(x) & ~np.isnan(values)
    out = np.copysign(np.rint(x) / 1e4, values)
    out[guarded] = [float(format(v, ".4f")) for v in values[guarded].tolist()]
    return out


def _fixed4_parts(values: np.ndarray) -> tuple:
    """Floats as f"{v:.4f}" writes them, NaN as no text: the digits of `rounded4`'s
    values, unless one is 2^40 / 1e4 or more, when `format` writes them all."""
    rounded = rounded4(values)
    if np.any(np.abs(rounded) >= 2.0**40 / 1e4):  # inf too
        return (np.array(["" if v != v else format(v, ".4f") for v in values.tolist()], "S"),)
    shown = ~np.isnan(rounded)
    q = np.rint(np.abs(np.where(shown, rounded, 0.0)) * 1e4).astype(np.uint64)
    _, whole, zero = _decimal(q // 10000)
    fraction = _GROUPS.take(np.where(shown, q % 10000, 10000))  # 10000: 0 with no digits
    return ((np.signbit(values) & shown) * np.uint8(ord("-")), whole, zero * shown,
            shown * np.uint8(ord(".")), fraction.view("V4"))


def _write_frames(fh, header: str, trace: Trace, time_us: np.ndarray, more) -> None:
    """Write `header`, then per frame its time in tenths of a microsecond, its
    id text, its counter and the fields `more(rows)` gives for a block. A field
    is a tuple of parts: arrays of one fixed-width item per row, or a byte."""
    fh.write(header + "\n")
    ids = np.array([str(i) for i in trace.ids], dtype="S")
    comma, newline = np.uint8(ord(",")), np.uint8(ord("\n"))
    for lo in range(0, len(trace), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        tenths = np.rint(time_us[rows] * 10).astype(np.int64)  # half to even, as round()
        fields = (_decimal(tenths), (ids.take(trace.id_index[rows]),),
                  _decimal(trace.counter[rows]), *more(rows))
        parts = [part for field in fields for part in (*field, comma)][:-1] + [newline]
        records = np.zeros(len(tenths), dtype=[(f"f{k}", p.dtype) for k, p in enumerate(parts)])
        for k, part in enumerate(parts):
            records[f"f{k}"] = part
        chars = records.view(np.uint8)
        fh.write(chars[chars != 0].tobytes().decode())
        del fields, parts, records, chars  # before the next block's are made


def export_trace(trace: Trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        write_trace(trace, fh)


def write_trace(trace: Trace, fh) -> None:
    _write_frames(fh, TRACE_HEADER, trace, trace.bus_time_us, lambda rows: (
        _hex_parts(trace.payloads[rows], trace.payload_len[rows]),
        (trace.genuine[rows] + np.uint8(ord("0")),)))


def write_verdicts(trace: Trace, decoded, path) -> None:
    """verdicts.csv: each frame of `trace` with `decode`'s time, error and verdict."""
    words = np.array(["intrusion", "accept"], dtype="S")
    with open(path, "w", newline="\n") as fh:
        _write_frames(fh, VERDICT_HEADER, trace, decoded.time_us, lambda rows: (
            _fixed4_parts(decoded.error_us[rows]), (words.take(decoded.accepted[rows]),)))


def parse_trace(source) -> Trace:
    """Read a trace from a path or a seekable text stream. The file stores no
    wire times, so they are zero: pricing a frame needs the bus's config."""
    if isinstance(source, (str, Path)):
        with open(source, "r") as fh:
            return parse_trace(fh)
    trace = _parse_native(source)
    if np.any(trace.bus_time_us[:-1] > trace.bus_time_us[1:]):
        warnings.warn("non-monotone timestamps in trace; applying stable sort", stacklevel=2)
        trace = trace.take(np.argsort(trace.bus_time_us, kind="stable"))
    return trace


# one character wider than the longest valid text ("0x1FFFFFFF", 8 bytes in
# hex), so that a longer field fills its width and is rejected, not cut short
_ID_WIDTH = len("0x1FFFFFFF") + 1
_PAYLOAD_WIDTH = 2 * 8 + 1
_FIELDS = TRACE_HEADER.split(",")
_ROW = np.dtype(list(zip(_FIELDS, ["i8", f"S{_ID_WIDTH}", "i8", f"S{_PAYLOAD_WIDTH}", "i8"])))


# numpy's reader takes 0x1C-0x1F around a number for whitespace, which int()
# does not; a fixed-width field drops a trailing NUL; and numpy 2.4.6's reader
# crashed (segmentation fault) on U+9C6CA. Lines holding one are rejected.
def _foreign(text: str) -> bool:
    return not text.isascii() or any(c in text for c in "\0\x1c\x1d\x1e\x1f")


def _load_rows(fh, skipped: list[int], max_rows: int | None = None, line_by_line=False):
    """The data lines' fields, read by numpy's C reader, and the line it failed
    on as (line, 0, message), or None. The numbers of the header and the
    whitespace-only lines, which are skipped, go to `skipped`. Unless
    `line_by_line`, a chunk of lines after the first that holds neither goes to
    numpy whole; if numpy then fails, the lines are read again one at a time."""
    at, whole = 0, False  # whole: a chunk went to numpy whole

    def lines():
        nonlocal at, whole
        for chunk in iter(lambda: fh.readlines(1 << 16), []):
            suspect = _foreign("".join(chunk))  # one scan per chunk of lines
            if not (line_by_line or suspect or at == 0 or any(map(str.isspace, chunk))):
                whole, at = True, at + len(chunk)
                yield from chunk
                continue
            for line in chunk:
                at += 1
                if line.isspace() or at == 1 and line.strip() == TRACE_HEADER:
                    skipped.append(at)
                elif suspect and _foreign(line):
                    raise ValueError("a character outside ASCII text (NUL, 0x1C-0x1F or "
                                     "non-ASCII)")
                else:
                    yield line

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(lines(), dtype=_ROW, delimiter=",", comments=None, ndmin=1,
                              max_rows=max_rows), None
    except UnicodeDecodeError as exc:  # raised reading the file, on no line numpy saw
        raise TraceFormatError(f"not text in the file's encoding: {exc}") from exc
    except ValueError as exc:
        if whole:
            fh.seek(0)
            skipped.clear()
            return _load_rows(fh, skipped, max_rows, line_by_line=True)
        # numpy numbers rows its own way; the line is the one last handed to it
        message = re.sub(r" at row \d+(, column \d+)?\.?|;.*", "", str(exc))
        column = re.search(r"column (\d+)", str(exc))
        if column:
            message = f"{_FIELDS[int(column.group(1)) - 1]}: {message}"
        return None, (at, 0, message)


def _parse_native(fh) -> Trace:
    """The trace's columns, read by numpy's C reader, each id text parsed once.

    Of several bad lines the first is named, as a line-by-line reader would;
    so when the reader fails, the lines before are read again and checked.
    """
    skipped: list[int] = []
    rows, failed = _load_rows(fh, skipped)
    errors = [failed] if failed else []  # (line, check, message)
    if failed:
        rows_before = failed[0] - 1 - len(skipped)
        fh.seek(0)
        skipped.clear()
        rows, _ = _load_rows(fh, skipped, rows_before)
    # skipped line j comes after after[j] - 1 data lines
    after = np.asarray(skipped, dtype=np.int64) - np.arange(len(skipped))

    def file_line(row) -> int:
        """The row's number in the file: the row plus the skipped lines before it."""
        return int(row) + 1 + int(np.searchsorted(after, row + 1, side="right"))

    texts, first, inverse = np.unique(rows["id_hex"], return_index=True, return_inverse=True)
    position: dict[CanId, int] = {}
    code = np.empty(len(texts), dtype=np.int64)
    for k in np.argsort(first).tolist():  # in order of first appearance
        text = texts[k].decode()
        try:
            if len(text) == _ID_WIDTH:
                raise ValueError(f"id {text!r} has over {_ID_WIDTH - 1} characters")
            code[k] = position.setdefault(CanId.parse(text), len(position))
        except ValueError as exc:
            errors.append((file_line(first[k]), 1, str(exc)))
            break
    counter = rows["counter"]
    bad = np.flatnonzero((counter < 0) | (counter > 0xFFFFFFFF))  # the MAC input's 4 bytes
    if len(bad):
        errors.append((file_line(bad[0]), 2, f"counter {counter[bad[0]]} outside 0..2^32-1"))
    hex_texts = rows["payload_hex"]
    bad = np.flatnonzero(hex_texts.astype(f"S{_PAYLOAD_WIDTH - 1}") != hex_texts)  # filled
    if len(bad):
        errors.append((file_line(bad[0]), 3, f"payload of over {_PAYLOAD_WIDTH - 1} characters "
                       "exceeds the 8 bytes of a CAN frame"))
    # a text of hex digit pairs is decoded in numpy, any other by bytes.fromhex
    chars = np.ascontiguousarray(hex_texts).view(np.uint8).reshape(-1, _PAYLOAD_WIDTH)
    size, nibbles = np.count_nonzero(chars, axis=1), _NIBBLE[chars]  # no text holds a NUL
    payloads, lengths = nibbles[:, 0:16:2] << 4 | nibbles[:, 1:16:2], size // 2
    for row in np.flatnonzero((nibbles == 16).any(axis=1) | (size % 2 == 1)).tolist():
        try:
            payload = bytes.fromhex(hex_texts[row].decode())
        except ValueError as exc:
            errors.append((file_line(row), 4, str(exc)))
            break
        payloads[row], lengths[row] = np.frombuffer(payload.ljust(8, b"\0")[:8], np.uint8), \
            len(payload)
    if errors:
        at, _, message = min(errors)
        raise TraceFormatError(f"line {at}: {message}")

    return Trace(tuple(position), code[inverse], counter.copy(), rows["bus_time_us"] / 10.0,
                 np.zeros(len(rows)), payloads, lengths, rows["genuine"] != 0)


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


# Per section, each key the file may give -> (the field it sets, its converter).
# A key the file leaves out is not passed, so the field keeps its dataclass default.
_BUS_KEYS = {"duration_us": ("duration_us", float), "bitrate": ("bitrate_bps", int),
             "seed": ("seed", int), "stuffing": ("stuffing", str)}
_COVERT_KEYS = {"key_hex": ("key", bytes.fromhex), "level_bits": ("level_bits", int),
                "tolerance_us": ("tolerance_us", float),
                "frames_required": ("frames_required", int)}
_ALLOC_KEYS = {"algorithm": ("algorithm", str), "ifs_us": ("ifs_us", float),
               "grid_step_us": ("grid_step_us", float), "iterations": ("iterations", int),
               "seed": ("seed", int)}
_CLOCK_KEYS = {"skew_ppm": ("skew_ppm", float), "tick_ns": ("tick_ns", int),
               "jitter": ("jitter", Jitter.parse)}
_NODE_KEYS = {*_CLOCK_KEYS, "covert", "frames"}

_FRAME_RE = re.compile(r"^(0x[0-9A-Fa-f]+|[0-9A-Fa-f]+):(\d+(?:\.\d+)?):(\d+)"
                       r"(?::(\d+(?:\.\d+)?))?$")


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
    bus = _checked(cp["bus"], _BUS_KEYS, "duration_us")

    covert = None
    if "covert" in cp:
        sec = _checked(cp["covert"], _COVERT_KEYS, "key_hex")
        with _naming("covert"):  # range checks name their own key
            covert = CovertConfig(**_fields(sec, _COVERT_KEYS))

    allocator: dict = {}
    if "allocator" in cp:
        allocator = _fields(_checked(cp["allocator"], _ALLOC_KEYS, "algorithm"), _ALLOC_KEYS)

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
            enabled = sec.getboolean("covert", covert is not None)
        if enabled and covert is None:
            raise TraceFormatError(f"[{section}] covert: the node enables the covert "
                                   "channel but [covert] is missing")
        with _naming(section):
            clock = ClockModel(**clock_fields)
            nodes.append(NodeConfig(section[len("node."):], clock, tuple(frames),
                                    covert if enabled else None))
    if not nodes:
        raise TraceFormatError("no [node.*] sections")
    if allocator and offsets_given:
        raise TraceFormatError("offsets given both manually and via [allocator]")

    fields = _fields(bus, _BUS_KEYS)
    with _naming("bus"):  # BusConfig's checks name their own key or ids
        return ExperimentConfig(nodes=tuple(nodes), covert=covert, allocator=allocator,
                                **fields)
