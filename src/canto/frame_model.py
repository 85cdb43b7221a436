"""Bit-accurate CAN frame arithmetic.

Frame lengths are counted field by field for classic CAN data frames
(standard and extended identifiers). Stuffing is handled two ways: a
worst-case bound for planning, and the real insert-after-five-identical
rule applied to a concrete bit pattern when payload bytes are known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, total_ordering
from typing import Iterable

import numpy as np

CRC_BITS = 15
IFS_BITS = 3

# SOF + ID + RTR + (IDE, r0, DLC) for standard; extended adds SRR, IDE,
# 18 ID bits and an extra reserved bit.
_HEADER_BITS = {"standard": 1 + 11 + 1 + 6, "extended": 1 + 11 + 1 + 1 + 18 + 1 + 2 + 4}
_TRAILER_BITS = CRC_BITS + 1 + 1 + 1 + 7  # CRC, CRC delim, ACK slot, ACK delim, EOF


class FrameModelError(ValueError):
    """Invalid frame parameter (payload size, bitrate, identifier range)."""


@total_ordering
@dataclass(frozen=True)
class CanId:
    """CAN identifier with arbitration ordering (lower value wins the bus).

    Extended identifiers compare by their 11 leading bits first; on a tie
    the standard frame wins, then the remaining 18 bits decide.
    """

    value: int
    extended: bool = False

    def __post_init__(self):
        limit = 1 << (29 if self.extended else 11)
        if not 0 <= self.value < limit:
            raise FrameModelError(f"CAN id 0x{self.value:X} out of range for "
                                  f"{'extended' if self.extended else 'standard'} identifier")

    @property
    def kind(self) -> str:
        return "extended" if self.extended else "standard"

    def arbitration_key(self) -> tuple[int, int, int]:
        if self.extended:
            return (self.value >> 18, 1, self.value & 0x3FFFF)
        return (self.value, 0, 0)

    def __lt__(self, other: "CanId") -> bool:
        return self.arbitration_key() < other.arbitration_key()

    def __str__(self) -> str:
        return f"{self.value:08X}" if self.extended else f"{self.value:03X}"

    @classmethod
    def parse(cls, text: str) -> "CanId":
        """Parse a hex identifier; > 3 hex digits or > 0x7FF means extended."""
        t = text.strip().lower().removeprefix("0x")
        value = int(t, 16)
        return cls(value, extended=len(t) > 3 or value > 0x7FF)


@dataclass(frozen=True)
class FrameSpec:
    """One cyclic frame: identifier, period, schedule offset, payload size."""

    id: CanId
    period_us: float
    offset_us: float = 0.0
    payload_bits: int = 64

    def __post_init__(self):
        period_tenths(self.period_us)
        if not 0 <= self.offset_us < self.period_us:
            raise FrameModelError(f"offset {self.offset_us} outside [0, {self.period_us})")
        _check_payload(self.payload_bits)


def period_tenths(period_us: float) -> int:
    """A period in whole tenths of a microsecond. Hyperperiods are computed on
    that grid, so a period off it is rejected; offsets may take any value."""
    if not 0 < period_us < math.inf:
        raise FrameModelError(f"period must be positive and finite, got {period_us}")
    tenths = round(period_us * 10)
    if tenths / 10 != period_us:
        raise FrameModelError(f"period {period_us} us is off the 0.1 us grid")
    return tenths


def _check_payload(payload_bits: int) -> None:
    if payload_bits < 0 or payload_bits > 64 or payload_bits % 8:
        raise FrameModelError(f"payload must be 0..64 bits in whole bytes, got {payload_bits}")


def frame_bit_length(payload_bits: int, kind: str = "standard", with_ifs: bool = True) -> int:
    """Field-sum length of a data frame, stuff bits excluded.

    A standard frame with 64 payload bits totals 111 bits including the
    3-bit inter-frame space.
    """
    _check_payload(payload_bits)
    if kind not in _HEADER_BITS:
        raise FrameModelError(f"unknown identifier kind {kind!r}")
    bits = _HEADER_BITS[kind] + payload_bits + _TRAILER_BITS
    return bits + IFS_BITS if with_ifs else bits


def max_stuff_bits(stuffable_bits: int) -> int:
    """Worst-case stuff bits for a stuffable region: one per four bits
    after the first run of five."""
    if stuffable_bits <= 0:
        raise FrameModelError("stuffable region must be positive")
    return (stuffable_bits - 1) // 4


def frame_max_stuff_bits(payload_bits: int) -> int:
    """Worst-case stuff bits of a data frame.

    Counted over payload plus CRC (19 for a 64-bit payload); the
    fixed-form header fields are excluded from the bound.
    """
    _check_payload(payload_bits)
    return max_stuff_bits(payload_bits + CRC_BITS)


def transmission_time_us(bits: int, bitrate_bps: int) -> float:
    """Wire time of `bits` at `bitrate_bps`, rounded to the nearest 0.1 us.

    Exact integer arithmetic; a tie rounds to the even tenth.
    """
    if bitrate_bps <= 0:
        raise FrameModelError("bitrate must be positive")
    if bits < 0:
        raise FrameModelError("bit count must be nonnegative")
    tenths, rem = divmod(bits * 10_000_000, bitrate_bps)
    if 2 * rem > bitrate_bps or (2 * rem == bitrate_bps and tenths & 1):
        tenths += 1
    return float(tenths) / 10.0


def _stuff_walk(bits: Iterable[int], run_bit: int | None = None,
                run_len: int = 0) -> tuple[int, int | None, int]:
    """Stuff bits inserted into `bits`, continuing from a run of `run_len`
    copies of `run_bit`; returns (count, run_bit, run_len) at the end. After
    five identical bits one opposite bit is inserted, and it takes part in
    the runs that follow."""
    count = 0
    for b in bits:
        if b == run_bit:
            run_len += 1
        else:
            run_bit, run_len = b, 1
        if run_len == 5:
            count += 1
            run_bit, run_len = 1 - b, 1  # the inserted opposite bit
    return count, run_bit, run_len


# A run state packs the current bit and run length 1..4 as bit << 2 | (len - 1);
# a packed entry adds the stuff count above it: count << 3 | state.
def _pack(count: int, run_bit: int, run_len: int) -> int:
    return count << 3 | run_bit << 2 | (run_len - 1)


@cache
def _byte_table() -> np.ndarray:
    """Packed (stuff count, run state after) for every (run state, byte),
    indexed state << 8 | byte; built on first use."""
    return np.array([_pack(*_stuff_walk([(byte >> (7 - i)) & 1 for i in range(8)],
                                        state >> 2, (state & 3) + 1))
                     for state in range(8) for byte in range(256)], dtype=np.int64)


@lru_cache(maxsize=4096)
def _header_entry(value: int, extended: bool, dlc: int) -> int:
    """Packed (stuff count, run state after) of SOF, identifier, RTR/IDE/r0 and DLC."""
    bits: list[int] = [0]  # SOF dominant
    if extended:
        bits += [(value >> (28 - i)) & 1 for i in range(11)]
        bits += [1, 1]  # SRR, IDE recessive
        bits += [(value >> (17 - i)) & 1 for i in range(18)]
        bits += [0, 0, 0]  # RTR, r1, r0
    else:
        bits += [(value >> (10 - i)) & 1 for i in range(11)]
        bits += [0, 0, 0]  # RTR, IDE, r0
    bits += [(dlc >> (3 - i)) & 1 for i in range(4)]
    return _pack(*_stuff_walk(bits))


def _stuff_counts(entries: np.ndarray, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Stuff bits of frames whose payloads are the first lengths[i] bytes of the
    rows of an (n, L) uint8 array, each walk starting from its header's packed
    entry: a table lookup per byte column. The CRC is excluded."""
    count, state = entries >> 3, entries & 7
    for j in range(int(lengths.max(initial=0))):
        # past its length a row's entry is its bare state, which counts no bits
        entry = np.where(j < lengths, _byte_table()[state << 8 | rows[:, j]], state)
        count += entry >> 3
        state = entry & 7
    return count


def frame_stuff_bits(can_id: CanId, payload: bytes) -> int:
    """Stuff bits of one concrete frame, from its header and payload pattern. It
    stays while perfbench/tracer.py's TARGETS bind it."""
    entry = _header_entry(can_id.value, can_id.extended, len(payload))
    return int(_stuff_counts(np.array([entry]), np.frombuffer(payload, dtype=np.uint8)[None],
                             np.array([len(payload)]))[0])


def frame_wire_times_us(ids, id_index: np.ndarray, rows: np.ndarray, lengths: np.ndarray,
                        bitrate_bps: int, stuffed: bool = True) -> np.ndarray:
    """Wire times of frames, frame i of identifier ids[id_index[i]] with the first
    lengths[i] bytes of row i of an (n, L) uint8 array as its payload: field-sum
    length plus, if `stuffed`, its stuff bits, each distinct total priced once."""
    if bitrate_bps <= 0:  # also with no frames to price
        raise FrameModelError("bitrate must be positive")
    pair = id_index << 4 | lengths
    fixed, entries = np.zeros((2, pair.max(initial=0) + 1), dtype=np.int64)
    for p in np.flatnonzero(np.bincount(pair)).tolist():  # each (ID, length) once
        can_id, size = ids[p >> 4], p & 15
        fixed[p] = frame_bit_length(8 * size, can_id.kind)
        entries[p] = _header_entry(can_id.value, can_id.extended, size)
    bits = fixed[pair] + (_stuff_counts(entries[pair], rows, lengths) if stuffed else 0)
    price = np.zeros(bits.max(initial=0) + 1)
    for b in np.flatnonzero(np.bincount(bits)).tolist():  # each distinct total once
        price[b] = transmission_time_us(b, bitrate_bps)
    return price[bits]
