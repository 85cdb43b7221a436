"""File formats: trace CSV, schedules, configs."""

import dataclasses
import io
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canto.bus_sim import BusConfig, NodeConfig, OversubscribedBusError, Trace, simulate
from canto.clock_model import ClockModel
from canto.frame_model import CanId, FrameSpec
from canto.incanta import CovertConfig, Receiver
from canto import scheduler, trace_io
from canto.scheduler import Schedule
from canto.trace_io import (ERROR_LIMIT_US, TRACE_HEADER, TraceFormatError, _parse_native,
                            export_trace, parse_experiment_config, parse_trace, read_schedule,
                            write_schedule, write_trace, write_verdicts)
from payload_rows import payload_columns, payload_list

MS = 1000.0


def small_trace():
    spec = FrameSpec(CanId(0x10), 10 * MS, 0.0, 64)
    cfg = BusConfig((NodeConfig("a", ClockModel(), (spec,)),), 50 * MS, stuffing="none")
    return simulate(cfg)


class TestNativeFormat:
    def test_round_trip_byte_identical(self, tmp_path):
        path = tmp_path / "t.csv"
        export_trace(small_trace(), path)
        original = path.read_bytes()
        reparsed = parse_trace(path)
        out = io.StringIO()
        write_trace(reparsed, out)
        assert out.getvalue().encode() == original

    def test_spec_line(self):
        line = ("bus_time_10ns,id_hex,counter,payload_hex,genuine\n"
                "100000,0x10,1,DEADBEEF00000001,1\n")
        trace = parse_trace(io.StringIO(line))
        assert trace.ids == (CanId(0x10),) and trace.id_index.tolist() == [0]
        assert trace.bus_ticks.tolist() == [100000]  # stored as ticks of 10 ns
        assert trace.counter.tolist() == [1] and trace.genuine.tolist() == [True]
        assert trace.payloads.tolist() == [list(bytes.fromhex("DEADBEEF00000001"))]
        assert trace.payload_len.tolist() == [8]
        assert trace.tx_ticks.tolist() == [0]  # the file stores no wire times

    def test_malformed_line_reports_number(self):
        bad = "bus_time_10ns,id_hex,counter,payload_hex,genuine\n10,0x10,1\n"
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace(io.StringIO(bad))

    def test_a_refusal_names_the_path_it_was_given(self, tmp_path):
        text = f"{TRACE_HEADER}\n100000,100,1,00,1\n110000,100,2,00,7\n"
        path = tmp_path / "t.csv"
        path.write_text(text)
        for source in (path, str(path)):
            with pytest.raises(TraceFormatError) as exc:
                parse_trace(source)
            assert str(exc.value) == f"{path}: line 3: genuine 7 is not 0 or 1"
        with pytest.raises(TraceFormatError, match="^line 3: genuine 7 is not 0 or 1$"):
            parse_trace(io.StringIO(text))  # a stream has no name to give

    @pytest.mark.parametrize("flag", ["7", "-1", "2"])
    def test_genuine_other_than_0_or_1_refused(self, flag):
        text = f"{TRACE_HEADER}\n100000,100,1,00,1\n200000,100,2,00,0\n300000,100,3,00,{flag}\n"
        with pytest.raises(TraceFormatError, match=f"^line 4: genuine {flag} is not 0 or 1$"):
            parse_trace(io.StringIO(text))

    # a NUL the fixed-width id field would drop, a separator numpy takes for
    # whitespace, a character numpy 2.4.6's reader crashed on
    @pytest.mark.parametrize("line", ["200000,100\0,2,00,1", "200000\x1f,100,2,00,1",
                                      "200000,100,2,00,\U0009C6CA"])
    def test_foreign_characters_rejected(self, line):
        text = f"{TRACE_HEADER}\n100000,100,1,00,1\n\n{line}\n"
        with pytest.raises(TraceFormatError, match="line 4"):
            parse_trace(io.StringIO(text))

    def test_undecodable_file_is_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(TRACE_HEADER.encode() + b"\n100000,1\xe900,1,00,1\n")
        with pytest.raises(TraceFormatError, match="encoding"):
            parse_trace(path)

    def test_time_a_tick_below_the_limit_round_trips(self):
        text = f"{TRACE_HEADER}\n1000000,100,1,00,1\n{2**53 - 1},100,2,00,1\n"
        assert _exported(parse_trace(io.StringIO(text))) == text.splitlines()

    def test_non_monotone_warns_and_sorts(self):
        text = ("bus_time_10ns,id_hex,counter,payload_hex,genuine\n"
                "200,010,2,00,1\n100,010,1,00,1\n")
        with pytest.warns(UserWarning, match="non-monotone"):
            trace = parse_trace(io.StringIO(text))
        assert trace.counter.tolist() == [1, 2]


class TestPayloadText:
    """The payload texts the reader takes, as the writer gives them back, and
    the messages naming the ones it refuses."""

    @pytest.mark.parametrize("text,written", [
        ("deadbeef0a", "DEADBEEF0A"), ("aBcD", "ABCD"), ("00 11", "0011"), ("", ""),
        ("0123456789abcdef", "0123456789ABCDEF")])
    def test_taken(self, text, written):
        out = io.StringIO()
        write_trace(parse_trace(io.StringIO(f"{TRACE_HEADER}\n10,100,1,{text},1\n")), out)
        assert out.getvalue() == f"{TRACE_HEADER}\n10,100,1,{written},1\n"

    @pytest.mark.parametrize("text,message", [
        ("ABC", "non-hexadecimal number found in fromhex() arg at position 3"),
        ("00G1", "non-hexadecimal number found in fromhex() arg at position 2"),
        ("0 0", "non-hexadecimal number found in fromhex() arg at position 1"),
        ("0" * 17, "payload of over 16 characters exceeds the 8 bytes of a CAN frame"),
        ("0" * 18, "payload of over 16 characters exceeds the 8 bytes of a CAN frame")],
        ids=["odd-length", "non-hex", "split-pair", "17-characters", "18-characters"])
    def test_refused(self, text, message):
        lines = f"{TRACE_HEADER}\n10,100,1,00,1\n20,100,2,{text},1\n30,100,3,zz,1\n"
        with pytest.raises(TraceFormatError, match=f"^line 3: {re.escape(message)}$"):
            parse_trace(io.StringIO(lines))


class TestReaderPastFirstChunk:
    """A bad line past the reader's first 64 KiB chunk, where whole chunks go
    to numpy, is named as the line-by-line path names it."""

    BAD = {"non-number": "1x,100,7,00,1", "few-fields": "10,100,7",
           "many-fields": "10,100,7,00,1,1", "unit-separator": "10\x1f,100,7,00,1"}

    @pytest.mark.parametrize("blank", ["before", "after", "none"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_line_named(self, bad, blank):
        lines = [TRACE_HEADER] + [f"{10 * k},100,{k},0011223344556677,1" for k in range(6000)]
        lines[4000] = self.BAD[bad]
        if blank != "none":
            lines.insert(4000 if blank == "before" else 4001, " \t")
        at = lines.index(self.BAD[bad]) + 1
        assert sum(map(len, lines[:at])) > 1 << 16  # past the first chunk
        with pytest.raises(TraceFormatError, match=f"^line {at}:"):
            parse_trace(io.StringIO("\n".join(lines) + "\n"))

    def test_earlier_column_check_named_before_later_unreadable_line(self):
        """numpy's reader stops at the non-number on line 5002; the counter out
        of range on line 4002, which only a column check refuses, comes first."""
        lines = [TRACE_HEADER] + [f"{10 * k},100,{k},0011223344556677,1" for k in range(6000)]
        lines[4001] = f"40010,100,{2**32},0011223344556677,1"
        lines[5001] = self.BAD["non-number"]
        assert sum(map(len, lines[:4002])) > 1 << 16  # past the first chunk
        with pytest.raises(TraceFormatError, match=r"^line 4002: counter 4294967296 outside"):
            parse_trace(io.StringIO("\n".join(lines) + "\n"))

    # bytes that are not UTF-8 after a refused line, where reading the file
    # again to name that line can meet them first
    @pytest.mark.parametrize("undecodable", [3942, 4127, 5000])
    def test_undecodable_bytes_after_a_refused_line(self, tmp_path, undecodable):
        lines = [TRACE_HEADER] + [f"{10 * k},0x100,{k},0011223344556677,1" for k in range(6000)]
        lines[3201] = self.BAD["non-number"]
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"\n".join(line.encode() for line in lines[:undecodable])
                         + b"\n1,1\xe9,1,00,1\n" + "\n".join(lines[undecodable + 1:]).encode())
        with pytest.raises(TraceFormatError,
                           match=f"^{re.escape(str(path))}: (line 3202: |not text in the file)"):
            parse_trace(path)


def long_trace(n: int) -> Trace:
    """n frames of three ids, with payloads of 0 to 8 bytes."""
    ids = (CanId(0x100), CanId(0x7FF), CanId(0x1FFFFFFF, extended=True))
    payloads = [bytes(range(k % 9)) for k in range(n)]
    return Trace(ids, np.arange(n) % 3, np.arange(n, dtype=np.int64),
                 np.arange(n) * 12550, np.zeros(n, np.int64), *payload_columns(payloads),
                 np.arange(n) % 4 != 0)


def test_clean_trace_is_read_once(monkeypatch):
    """A file that every check takes never reaches the search for a refused line."""
    trace = long_trace(6000)
    text = "\n".join(_exported(trace)) + "\n"

    def refuse(numbered, size=None):
        raise AssertionError("a clean file was read again")

    monkeypatch.setattr(trace_io, "_refusal", refuse)
    assert columns(parse_trace(io.StringIO(text))) == columns(trace)


_ROUND_TRIP_IDS = [CanId(0x0), CanId(0x100), CanId(0x7FF), CanId(0x800, extended=True),
                   CanId(0x1FFFFFFF, extended=True)]


@st.composite
def columnar_traces(draw):
    """Column-built traces, times non-decreasing, in ticks of 10 ns."""
    ids = tuple(draw(st.lists(st.sampled_from(_ROUND_TRIP_IDS), min_size=1, unique=True)))
    n = draw(st.integers(0, 12))
    rows = st.lists(st.integers(0, len(ids) - 1), min_size=n, max_size=n)
    steps = st.lists(st.integers(0, 10**13), min_size=n, max_size=n)
    ticks = np.array(sorted(draw(steps)), dtype=np.int64)
    return Trace(ids, np.array(draw(rows), dtype=np.int64),
                 np.array(draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)),
                          dtype=np.int64),
                 ticks, np.zeros(n, np.int64),
                 *payload_columns(draw(st.lists(st.binary(max_size=8), min_size=n, max_size=n))),
                 np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool))


def columns(trace):
    """Every column of a trace, ids resolved per frame, with each array's dtype."""
    return ([trace.ids[k] for k in trace.id_index.tolist()], trace.counter.tolist(),
            trace.bus_ticks.tolist(), trace.payloads.tolist(), trace.payload_len.tolist(),
            trace.genuine.tolist(),
            [a.dtype for a in (trace.id_index, trace.counter, trace.bus_ticks, trace.tx_ticks,
                       trace.payloads, trace.payload_len, trace.genuine)])


class TestColumnarRoundTrip:
    @given(columnar_traces())
    @settings(max_examples=200, deadline=None)
    def test_native(self, trace):
        out = io.StringIO()
        write_trace(trace, out)
        parsed = parse_trace(io.StringIO(out.getvalue()))
        assert columns(parsed) == columns(trace)
        assert parsed.tx_ticks.tolist() == [0] * len(trace)


class TestScheduleFile:
    def test_round_trip(self, tmp_path):
        frames = (FrameSpec(CanId(0x10), 10 * MS, 156.25, 64),
                  FrameSpec(CanId(0x1FFFFFFF, extended=True), 20 * MS, 500.0, 32))
        sched = Schedule(frames)
        path = tmp_path / "s.txt"
        write_schedule(sched, path)
        back = read_schedule(path)
        assert back.frames == frames

    def test_large_offsets_keep_precision(self, tmp_path):
        frames = (FrameSpec(CanId(0x10), 1_000_000.0, 999_999.75, 64),)
        sched = Schedule(frames)
        path = tmp_path / "s.txt"
        write_schedule(sched, path)
        assert read_schedule(path).frames[0].offset_us == 999_999.75

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(TraceFormatError, match="empty"):
            read_schedule(path)

    def test_corrupted_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("010 10000\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            read_schedule(path)

    def test_period_off_the_tenth_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("010 10000.05 156.25 64\n")
        with pytest.raises(TraceFormatError, match="line 1: period 10000.05 us is off"):
            read_schedule(path)


MINIMAL = """
[bus]
duration_us = 50000

[node.one]
frames = 0x10:10000:8
"""


class TestExperimentConfig:
    def test_minimal_parses_and_simulates(self):
        cfg = parse_experiment_config(MINIMAL)
        trace = simulate(cfg.to_bus_config())
        assert len(trace) == 5

    def test_keys_left_out_take_the_dataclass_defaults(self):
        key = bytes(range(16))
        cfg = parse_experiment_config(MINIMAL + f"\n[covert]\nkey_hex = {key.hex()}\n")
        assert cfg.covert == CovertConfig(key)
        assert cfg.receiver == Receiver({f.id: f.period_us for f in cfg.frame_specs()})
        assert (cfg.receiver.tolerance_us, cfg.receiver.frames_required) == (5.0, 6)
        assert [n.clock for n in cfg.nodes] == [ClockModel()]
        defaults = {f.name: f.default for f in dataclasses.fields(BusConfig)
                    if f.default is not dataclasses.MISSING}
        assert defaults.pop("covert") is None  # the bus's channel: [covert], not a [bus] key
        assert defaults.keys() == {"bitrate_bps", "seed", "stuffing"}
        assert {name: getattr(cfg, name) for name in defaults} == defaults

    def test_allocator_options_take_their_declared_types(self):
        # every allocator option but the seed, which comes from [bus] or --seed
        cases = {"iterations": ("random", "7", 7), "grid_step_us": ("greedy-ml", "0.5", 0.5),
                 "ifs_us": ("gcd", "600", 600.0)}
        options = {k for opts in scheduler.ALLOCATOR_OPTIONS.values() for k in opts}
        assert options - {"seed"} == cases.keys()
        for key, (algorithm, text, value) in cases.items():
            cfg = parse_experiment_config(MINIMAL + f"\n[allocator]\nalgorithm = {algorithm}\n"
                                          f"{key} = {text}\n")
            assert cfg.allocator == {"algorithm": algorithm, key: value}
            assert type(cfg.allocator[key]) is type(value)

    def test_paper_vector_ships_forty_frames(self):
        cfg = parse_experiment_config("configs/paper_vector.ini")
        specs = cfg.frame_specs()
        assert len(specs) == 40
        periods = sorted(f.period_us for f in specs)
        assert periods == [10 * MS] * 6 + [20 * MS] * 8 + [50 * MS] * 12 + [100 * MS] * 14
        assert cfg.covert is not None and cfg.allocator["algorithm"] == "gcd"

    def test_frame_ids_take_the_trace_grammar(self):
        cfg = parse_experiment_config(MINIMAL.replace("0x10:", "0X10:"))
        assert [f.id for f in cfg.frame_specs()] == [CanId(0x10)]

    def test_duplicate_id_rejected(self):
        text = MINIMAL + "\n[node.two]\nframes = 0x10:20000:8\n"
        with pytest.raises(TraceFormatError, match="duplicate"):
            parse_experiment_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown keys"):
            parse_experiment_config(MINIMAL + "\n[allocator]\nalgorithm = gcd\ncolor = red\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown section"):
            parse_experiment_config(MINIMAL + "\n[misc]\nx = 1\n")

    def test_missing_duration_rejected(self):
        with pytest.raises(TraceFormatError, match="duration_us"):
            parse_experiment_config("[bus]\nseed = 1\n\n[node.a]\nframes = 0x1:10000:8\n")

    def test_manual_offsets_conflict_with_allocator(self):
        text = """
[bus]
duration_us = 50000

[allocator]
algorithm = gcd

[node.one]
frames = 0x10:10000:8:2000
"""
        with pytest.raises(TraceFormatError, match="manually"):
            parse_experiment_config(text)

    def test_covert_node_requires_covert_section(self):
        text = MINIMAL.replace("frames =", "covert = true\nframes =")
        with pytest.raises(TraceFormatError, match="node one uses the covert channel"):
            parse_experiment_config(text)

    def test_schedule_override_applies_offsets(self):
        cfg = parse_experiment_config(MINIMAL)
        sched = Schedule((FrameSpec(CanId(0x10), 10 * MS, 2500.0, 64),))
        bus = cfg.to_bus_config(sched)
        assert bus.nodes[0].frames[0].offset_us == 2500.0


# Fuzzing: each key draws from a pool whose first value is valid and whose
# others are boundary or malformed (or, now and then, free text), so many
# documents get past the section checks. payload_mode is no longer a key,
# so any value of it must be rejected. Every valid period divides 20 ms,
# which keeps hyperperiods short.
_POOLS = {
    "duration_us": ["40000", "15000", "inf", "nan"],
    "bitrate": ["500000", "10000", "0", "1e3"],
    "seed": ["7", "-1"],
    "stuffing": ["payload", "none", "sampled", "bogus"],
    "payload_mode": ["counter", "random"],
    "key_hex": ["000102030405060708090A0B0C0D0E0F", "00", "zz"],
    "level_bits": ["8", "4", "40"],
    "tolerance_us": ["5", "0", "nan", "-1"],
    "frames_required": ["6", "1", "0"],
    "algorithm": ["gcd", "binary", "random", "greedy-ml", "magic"],
    "ifs_us": ["600", "15000", "0"],
    "grid_step_us": ["100", "0.05", "-1"],
    "iterations": ["10", "0"],
    "skew_ppm": ["2", "nan", "1e5"],
    "tick_ns": ["10", "0"],
    "jitter": ["steps", "none", "gaussian:1", "uniform:inf", "gaussian:-1", "steps:0.6,1,1"],
    "covert": ["true", "false", "maybe"],
}


def _mostly_first(pool, text=False):
    """The valid first value half the time, else any value (or free text)."""
    others = [st.sampled_from(pool[1:])]
    if text:
        others.append(st.text(st.characters(blacklist_characters="\r\n"), max_size=6))
    return st.integers(0, 5).flatmap(lambda k: st.just(pool[0]) if k < 3
                                     else st.one_of(*others))


_FRAME_TOKENS = st.builds(
    lambda i, p, n, o: f"{i}:{p}:{n}" + (f":{o}" if o is not None else ""),
    st.sampled_from(["0x10", "11", "12", "7FF", "800", "1FFFFFFF", "20000000"]),
    _mostly_first(["10000", "1000", "20000", "0.05", "10000.05", "0", "9" * 400]),
    _mostly_first(["8", "0", "2", "4", "9"]),
    _mostly_first([None, "0", "156.25", "500", "20000"]))
# per section: required keys, optional keys
_SECTIONS = {
    "bus": (["duration_us"], ["bitrate", "seed", "stuffing", "payload_mode"]),
    "covert": (["key_hex"], ["level_bits", "tolerance_us", "frames_required"]),
    "allocator": (["algorithm"], ["ifs_us", "grid_step_us", "iterations", "seed"]),
    "node.a": ([], ["skew_ppm", "tick_ns", "jitter", "covert"]),
    "node.b": ([], ["skew_ppm", "tick_ns", "jitter", "covert"]),
}


@st.composite
def config_documents(draw):
    lines = []
    for section, (required, optional) in _SECTIONS.items():
        if section not in ("bus", "node.a") and not draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        if section.startswith("node."):
            tokens = st.lists(_FRAME_TOKENS, min_size=section == "node.a", max_size=3)
            lines.append("frames = " + " ".join(draw(tokens)))
        for key in required + draw(st.lists(st.sampled_from(optional), max_size=3,
                                            unique=True)):
            lines.append(f"{key} = {draw(_mostly_first(_POOLS[key], text=True))}")
    return "\n".join(lines) + "\n"


class TestConfigFuzz:
    @given(config_documents())
    @settings(max_examples=400, deadline=None)
    def test_only_format_errors_escape(self, text):
        try:
            cfg = parse_experiment_config(text)
        except TraceFormatError:
            return
        bus = cfg.to_bus_config()
        releases = sum(cfg.duration_us / f.period_us for f in cfg.frame_specs())
        if releases <= 2000:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # collision-free or not
                try:
                    simulate(bus)
                except OversubscribedBusError:
                    pass

    @given(st.text(max_size=200).map(lambda t: "[bus]\n" + t + "\n"))
    @settings(max_examples=200, deadline=None)
    def test_free_text_only_format_errors(self, text):
        with pytest.raises(TraceFormatError):
            parse_experiment_config(text)


_TRACE_FIELDS = (
    st.one_of(st.integers(-5, 10**7).map(str), st.just("9" * 400), st.text(max_size=3)),
    st.one_of(st.sampled_from(["100", "0x7FF", "800", "1FFFFFFF", "20000000"]),
              st.text(max_size=3)),
    st.one_of(st.integers(-2, 2**64 + 2).map(str), st.sampled_from([str(2**32 - 1),
                                                                      str(2**32)])),
    st.one_of(st.binary(max_size=10).map(bytes.hex), st.text(max_size=3)),
    st.sampled_from(["0", "1", "2", "x", ""]),
)


class TestTraceFuzz:
    @given(st.lists(st.one_of(st.tuples(*_TRACE_FIELDS).map(",".join),
                              st.lists(_TRACE_FIELDS[0], max_size=6).map(",".join)),
                    max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_native_only_format_errors_escape(self, lines):
        text = TRACE_HEADER + "\n" + "\n".join(lines)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # non-monotone timestamps
            try:
                trace = parse_trace(io.StringIO(text))
            except TraceFormatError:
                return
        assert np.all((trace.counter >= 0) & (trace.counter < 2**32))


# The line-by-line reader that numpy's reader replaced, kept as the oracle.
def _line_reader(fh) -> Trace:
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
            ticks = int(parts[0])
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
            flag = int(parts[4])
            if flag not in (0, 1):
                raise ValueError(f"genuine {flag} is not 0 or 1")
        except (ValueError, OverflowError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        id_index.append(pos)
        counters.append(counter)
        times.append(ticks)
        payloads.append(payload)
        genuine.append(flag == 1)
    # int64 times, but as numpy takes a time past int64, which its reader refuses
    times = np.array(times) if times else np.zeros(0, np.int64)
    return Trace(tuple(position), np.array(id_index, dtype=np.int64),
                 np.array(counters, dtype=np.int64), times, np.zeros(len(times), np.int64),
                 *payload_columns(payloads), np.array(genuine, dtype=bool))


def _int_at_time_limit(text: str) -> bool:
    try:
        return not -2**53 < int(text) < 2**53
    except ValueError:
        return False


# Data lines the line-by-line reader accepts and numpy's reader rejects, by
# name; each test is on a line and its fields as that reader splits them.
KNOWN_DIFFERENCES = {
    "underscore in a number (int() reads 1_000)": lambda line, f: any(
        "_" in x for x in f[:3] + f[4:]),
    "non-ASCII character": lambda line, f: not line.isascii(),
    "0x1C-0x1F at a line's ends or around an id (str.strip takes them for whitespace)":
        lambda line, f: any(c in line for c in "\x1c\x1d\x1e\x1f"),
    "time integer 2^53 or more from 0 (bus_sim.TIME_LIMIT)":
        lambda line, f: _int_at_time_limit(f[0]),
    "id text over 10 characters": lambda line, f: len(f[1]) > 10,
    "payload text over 16 characters": lambda line, f: len(f[3]) > 16,
    "carriage return inside a line": lambda line, f: "\r" in line.strip(),
}


def known_differences(text: str) -> list[str]:
    lines = [(line, line.strip().split(",")) for line in io.StringIO(text)
             if line.strip() != TRACE_HEADER]
    return [name for name, test in KNOWN_DIFFERENCES.items()
            if any(len(f) == 5 and test(line, f) for line, f in lines)]


def _outcome(reader, text):
    """The columns, ids, id positions and wire times read, or the line named."""
    try:
        trace = reader(io.StringIO(text))
    except TraceFormatError as exc:
        return re.match(r"line \d+", str(exc)).group()
    return (columns(trace), trace.ids, trace.id_index.tolist(), trace.tx_ticks.tolist())


_BLANKS = st.lists(st.sampled_from(["", " ", "\t", " \x0c ", "\u3000"]), max_size=2)


@st.composite
def with_blanks(draw, lines):
    """The lines with blank and whitespace-only lines drawn before and after each."""
    out = []
    for line in draw(lines) + [None]:
        out += draw(_BLANKS) + ([] if line is None else [line])
    return "\n".join(out) + draw(st.sampled_from(["", "\n"]))


def _exported(trace):
    out = io.StringIO()
    write_trace(trace, out)
    return out.getvalue().splitlines()


_FUZZ_LINES = st.lists(st.one_of(st.tuples(*_TRACE_FIELDS).map(",".join),
                                 st.lists(_TRACE_FIELDS[0], max_size=6).map(",".join)),
                       max_size=6).map(lambda lines: [TRACE_HEADER] + lines)


class TestReaderMatchesLineReader:
    """numpy's reader against the line-by-line one it replaced: equal columns
    and ids, or the same line named, on all but the known differences."""

    def check(self, text):
        new = _outcome(_parse_native, text)
        if not isinstance(new, str):  # what numpy's reader accepts, both accept alike
            assert _outcome(_line_reader, text) == new
            return
        if not known_differences(text):
            assert _outcome(_line_reader, text) == new

    @given(with_blanks(columnar_traces().map(_exported)))
    @settings(max_examples=200, deadline=None)
    def test_exported_traces(self, text):
        assert not known_differences(text)
        self.check(text)

    @given(with_blanks(_FUZZ_LINES))
    @settings(max_examples=500, deadline=None)
    def test_fuzz_alphabet(self, text):
        self.check(text)

    @pytest.mark.parametrize("name,line", [
        ("underscore in a number (int() reads 1_000)", "1_000,100,1,00,1"),
        ("non-ASCII character", "\u0661,100,1,00,1"),
        ("0x1C-0x1F at a line's ends or around an id (str.strip takes them for whitespace)",
         "10,100\x1c,1,00,1"),
        ("time integer 2^53 or more from 0 (bus_sim.TIME_LIMIT)", f"{2**63},100,1,00,1"),
        ("time integer 2^53 or more from 0 (bus_sim.TIME_LIMIT)", f"-{2**53},100,1,00,1"),
        ("id text over 10 characters", "10,00000000100,1,00,1"),
        ("payload text over 16 characters", "10,100,1,00 00 00 00 00 00 00 00,1"),
        ("carriage return inside a line", "10,100\r,1,00,1"),
    ], ids=["underscore", "non-ascii", "0x1c", "beyond-int64", "at-minus-time-limit", "long-id",
            "long-payload", "cr"])
    def test_known_difference(self, name, line):
        text = f"{TRACE_HEADER}\n{line}\n"
        assert known_differences(text) == [name]
        assert not isinstance(_outcome(_line_reader, text), str)
        assert _outcome(_parse_native, text) == "line 2"


class TestReaderChunkMix:
    """Files of several 64 KiB chunks, where a chunk that cannot hold a
    whitespace-only line goes to numpy as it is and any other is filtered."""

    LINES = _exported(long_trace(6000))

    @staticmethod
    def chunks(text):
        fh = io.StringIO(text)
        fh.readline()
        return list(iter(lambda: fh.readlines(1 << 16), []))

    @pytest.mark.parametrize("blank", [" ", "\t", "\u3000"], ids=["space", "tab", "ideographic"])
    @pytest.mark.parametrize("at", [1, 3000, 6001], ids=["first", "middle", "last"])
    def test_whitespace_only_lines_in_one_chunk(self, at, blank):
        text = "\n".join(self.LINES[:at] + [blank, blank] + self.LINES[at:]) + "\n"
        chunks = self.chunks(text)
        assert len(chunks) > 2
        assert sum(any(line.isspace() for line in chunk) for chunk in chunks) == 1
        assert columns(parse_trace(io.StringIO(text))) == columns(long_trace(6000))

    @pytest.mark.parametrize("payload", ["deadbeef0a", "0a1B2c3D4e5F6a7b", "00 11 22", "abc"],
                             ids=["lowercase", "mixed-case", "space-separated", "odd-length"])
    def test_payload_texts_past_the_first_chunk(self, payload):
        lines = list(self.LINES)
        for at in (2500, 4000, 6000):
            time, id_text, counter, _, genuine = lines[at].split(",")
            lines[at] = ",".join((time, id_text, counter, payload, genuine))
        text = "\n".join(lines) + "\n"
        assert len(self.chunks(text)[0]) < 2500  # past the first chunk
        assert _outcome(_parse_native, text) == _outcome(_line_reader, text)

    # bytes that are not UTF-8 after the non-number on line 3202: they are named
    # wherever the text decoder's reads fall against the reader's blocks
    @pytest.mark.parametrize("undecodable", [3942, 4127, 5000, 5998])
    def test_undecodable_bytes_win_over_a_refused_line(self, tmp_path, undecodable):
        lines = [TRACE_HEADER] + [f"{10 * k},0x100,{k},0011223344556677,1" for k in range(6000)]
        lines[3201] = "1x,100,7,00,1"
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"\n".join(line.encode() for line in lines[:undecodable])
                         + b"\n1,1\xe9,1,00,1\n" + "\n".join(lines[undecodable + 1:]).encode())
        with pytest.raises(TraceFormatError,
                           match=f"^{re.escape(str(path))}: not text in the file's encoding"):
            parse_trace(path)


# The row-at-a-time writers that the block writers replaced, kept verbatim as oracles.
def _row_write_trace(trace: Trace, fh) -> None:
    fh.write(TRACE_HEADER + "\n")
    texts = [str(i) for i in trace.ids]
    ticks = trace.bus_ticks.tolist()
    fh.writelines(f"{t},{texts[k]},{c},{p.hex().upper()},{g}\n" for t, k, c, p, g in zip(
        ticks, trace.id_index.tolist(), trace.counter.tolist(),
        payload_list(trace.payloads, trace.payload_len), trace.genuine.astype(np.int64).tolist()))


def _row_write_verdicts(trace, decoded, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("bus_time_10ns,id_hex,counter,error_us,verdict\n")
        texts = [str(i) for i in trace.ids]
        for lo in range(0, len(trace), 4096):  # few number objects alive at a time
            rows = slice(lo, lo + 4096)
            ticks = trace.bus_ticks[rows].tolist()
            for t, k, c, err, ok in zip(ticks, trace.id_index[rows].tolist(),
                                        trace.counter[rows].tolist(),
                                        decoded.error_us[rows].tolist(),
                                        decoded.accepted[rows].tolist()):
                err = "" if math.isnan(err) else f"{err:.4f}"
                word = "accept" if ok else "intrusion"
                fh.write(f"{t},{texts[k]},{c},{err},{word}\n")


_TICKS = st.one_of(st.integers(0, 10**14),
                   st.sampled_from([10**k + d for k in range(15) for d in (-1, 0)]))
# ties of the tick grid, values next to a tie, next to ERROR_LIMIT_US (past
# which the writer calls `format`) and at the ends of the float range
_ERRORS = st.one_of(
    st.floats(-300.0, 300.0), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6).map(lambda k: k / 100 + 0.005),
    st.sampled_from([math.nan, 0.0, -0.0, -1e-5, 1e-5, 0.03125, -0.03125, 0.00015, 2.675,
                     1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf,
                     -math.inf, *(np.nextafter(2.0**40 / 1e4, d) for d in (0, math.inf)),
                     2.0**40 / 1e4, 2.0**53, -2.0**63])).map(float)
_LENGTHS = st.sampled_from([None, 1025, 2100])


@st.composite
def frame_columns(draw):
    """A trace and its verdict columns, drawn as up to 12 rows and, for some,
    repeated past the writers' block of rows; times are ticks of 10 ns."""
    ids = tuple(draw(st.lists(st.sampled_from(_ROUND_TRIP_IDS), min_size=1, unique=True)))
    n = draw(st.integers(0, 12))
    length = draw(_LENGTHS) if n else None

    def column(elements, dtype=None):
        values = draw(st.lists(elements, min_size=n, max_size=n))
        return np.resize(np.array(values, dtype=dtype), length or n)

    times = column(st.one_of(_TICKS, _TICKS.map(lambda t: -t), st.integers(-10**14, 10**14)),
                   np.int64)
    trace = Trace(ids, column(st.integers(0, len(ids) - 1), np.int64),
                  column(st.one_of(st.integers(0, 2**32 - 1), st.integers(-2**63, 2**63 - 1)),
                         np.int64),
                  times, np.zeros(len(times), np.int64),
                  *payload_columns(draw(st.lists(st.binary(max_size=8), min_size=n,
                                                 max_size=n))), column(st.booleans(), bool))
    trace.payloads = np.resize(trace.payloads, (len(times), 8))
    trace.payload_len = np.resize(trace.payload_len, len(times))
    decoded = SimpleNamespace(error_us=column(_ERRORS), accepted=column(st.booleans(), bool))
    return trace, decoded


class TestBlockWriters:
    """The block writers against the row-at-a-time ones they replaced."""

    @given(frame_columns())
    @settings(max_examples=150, deadline=None)
    def test_trace_bytes_identical(self, columns):
        trace, _ = columns
        want, got = io.StringIO(), io.StringIO()
        _row_write_trace(trace, want)
        write_trace(trace, got)
        assert got.getvalue() == want.getvalue()

    @given(frame_columns())
    @settings(max_examples=150, deadline=None)
    def test_verdicts_bytes_identical(self, tmp_path_factory, columns):
        trace, decoded = columns
        # the writer prints the digits of an error in whole ticks, as `decode` gives it
        fine = np.abs(decoded.error_us) < ERROR_LIMIT_US
        decoded.error_us[fine] = np.rint(decoded.error_us[fine] * 100) / 100 + 0.0
        out = tmp_path_factory.mktemp("verdicts")
        _row_write_verdicts(trace, decoded, out / "want.csv")
        write_verdicts(trace, decoded, out / "got.csv")
        assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_empty_trace_writes_the_header(self, tmp_path):
        trace = Trace((), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64),
                      np.zeros(0, np.int64), *payload_columns([]), np.zeros(0, bool))
        out = io.StringIO()
        write_trace(trace, out)
        assert out.getvalue() == TRACE_HEADER + "\n"
        nothing = SimpleNamespace(error_us=np.zeros(0), accepted=np.zeros(0, bool))
        write_verdicts(trace, nothing, tmp_path / "v.csv")
        assert (tmp_path / "v.csv").read_text() == \
            "bus_time_10ns,id_hex,counter,error_us,verdict\n"


class TestBlocksAndMemory:
    """The writers across their blocks of rows, and the tracemalloc peaks of
    the reader and writers on a 64000-frame trace, in units of its column
    bytes (49 a frame). Measured: parse_trace 2.85 (3.11 before whole-column
    decoding), the writers 0.26 and 0.28 with blocks of 4096 rows (0.07 with
    blocks of 1024). Decoding payloads through an index matrix cast to intp,
    8 bytes a character, takes the reader to 4.9; formatting a whole trace as
    one block takes a writer to 3.9."""

    @pytest.fixture(scope="class")
    def frames(self):
        rng = np.random.default_rng(7)
        n = 64000
        trace = Trace((CanId(0x100),), np.zeros(n, np.int64), np.arange(n, dtype=np.int64),
                      np.arange(n) * 1_000_000 + rng.integers(0, 50, n) * 10,
                      np.zeros(n, np.int64),
                      rng.integers(0, 256, (n, 8), dtype=np.uint8), np.full(n, 8),
                      np.ones(n, bool))
        decoded = SimpleNamespace(error_us=rng.uniform(-5, 5, n), accepted=np.ones(n, bool))
        size = sum(a.nbytes for a in (trace.id_index, trace.counter, trace.bus_ticks,
                                      trace.tx_ticks, trace.payloads, trace.payload_len,
                                      trace.genuine))
        return trace, decoded, size

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_reader_peak(self, frames, tmp_path):
        trace, _, size = frames
        export_trace(trace, tmp_path / "t.csv")
        assert self.peak(lambda: parse_trace(tmp_path / "t.csv")) < 3.25 * size

    def test_writer_peaks(self, frames, tmp_path):
        trace, decoded, size = frames
        with open(tmp_path / "t.csv", "w", newline="\n") as fh:
            assert self.peak(lambda: write_trace(trace, fh)) < size / 3
        assert self.peak(lambda: write_verdicts(trace, decoded, tmp_path / "v.csv")) < size / 3

    def test_rows_across_blocks(self, tmp_path):
        """Three blocks of rows, one of them with an error that only `format`
        writes, against the row-at-a-time writers."""
        trace = long_trace(2 * trace_io._BLOCK + 5)
        errors = np.where(np.arange(len(trace)) % 7 == 0, np.nan,
                          np.rint(np.arange(len(trace)) * 100 / 3) / 100)  # whole ticks
        errors[trace_io._BLOCK + 1] = 2.0**50
        decoded = SimpleNamespace(error_us=errors, accepted=np.arange(len(trace)) % 5 != 0)
        want, got = io.StringIO(), io.StringIO()
        _row_write_trace(trace, want)
        write_trace(trace, got)
        assert got.getvalue() == want.getvalue()
        arrived = dataclasses.replace(trace, bus_ticks=trace.bus_ticks - 5)
        _row_write_verdicts(arrived, decoded, tmp_path / "want.csv")
        write_verdicts(arrived, decoded, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
