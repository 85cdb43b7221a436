"""Frame length, stuffing and wire-time arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canto.frame_model import (CanId, FrameModelError, FrameSpec, _stuff_walk,
                               frame_bit_length, frame_max_stuff_bits, frame_stuff_bits,
                               frame_wire_times_us, max_stuff_bits, transmission_time_us)

# Independent field-sum oracle: SOF, arbitration, control, data, CRC,
# CRC delimiter, ACK slot, ACK delimiter, EOF, IFS.
STD_FIELDS = (1, 11 + 1, 6, 15, 1, 1, 1, 7)
EXT_FIELDS = (1, 11 + 1 + 1 + 18 + 1, 2 + 4, 15, 1, 1, 1, 7)


def oracle_length(payload_bits, kind, with_ifs):
    fields = STD_FIELDS if kind == "standard" else EXT_FIELDS
    return sum(fields) + payload_bits + (3 if with_ifs else 0)


class TestFrameBitLength:
    def test_paper_value_111(self):
        assert frame_bit_length(64, "standard", with_ifs=True) == 111

    def test_empty_payload(self):
        assert frame_bit_length(0, "standard", with_ifs=True) == 47

    def test_without_ifs(self):
        assert frame_bit_length(64, "standard", with_ifs=False) == 108

    @pytest.mark.parametrize("payload", range(0, 72, 8))
    @pytest.mark.parametrize("kind", ["standard", "extended"])
    @pytest.mark.parametrize("with_ifs", [True, False])
    def test_matches_field_sum_oracle(self, payload, kind, with_ifs):
        assert frame_bit_length(payload, kind, with_ifs) == oracle_length(payload, kind, with_ifs)

    def test_monotone_in_payload(self):
        lengths = [frame_bit_length(p) for p in range(0, 72, 8)]
        assert lengths == sorted(lengths)

    @pytest.mark.parametrize("bad", [-8, 7, 65, 72])
    def test_rejects_bad_payload(self, bad):
        with pytest.raises(FrameModelError):
            frame_bit_length(bad)

    def test_rejects_bad_kind(self):
        with pytest.raises(FrameModelError):
            frame_bit_length(64, "canfd")


class TestMaxStuffBits:
    def test_paper_value_19(self):
        assert frame_max_stuff_bits(64) == 19

    def test_region_of_five(self):
        assert max_stuff_bits(5) == 1

    def test_region_of_one(self):
        assert max_stuff_bits(1) == 0

    def test_rejects_empty_region(self):
        with pytest.raises(FrameModelError):
            max_stuff_bits(0)


class TestTransmissionTime:
    @pytest.mark.parametrize("bits,rate,expect", [
        (111, 500_000, 222.0),
        (111, 1_000_000, 111.0),
        (111, 125_000, 888.0),
    ])
    def test_paper_rates(self, bits, rate, expect):
        assert transmission_time_us(bits, rate) == expect

    @given(bits=st.integers(1, 200), rate=st.sampled_from([125_000, 250_000, 500_000, 800_000, 1_000_000]))
    def test_matches_rational_oracle(self, bits, rate):
        exact = Fraction(bits * 1_000_000, rate)
        got = transmission_time_us(bits, rate)
        assert abs(got - float(exact)) <= 0.05 + 1e-9

    @given(bits=st.integers(0, 100_000), rate=st.integers(1, 2_000_000))
    @example(bits=1, rate=160_000)  # 62.5 tenths: the tie goes to the even 62
    @example(bits=3, rate=160_000)  # 187.5 tenths: the tie goes to the even 188
    @example(bits=2, rate=3)  # remainder just above half an odd rate rounds up
    def test_rounds_exactly_like_fraction(self, bits, rate):
        # round() on a Fraction is round-half-even on the exact quotient
        assert transmission_time_us(bits, rate) == \
            float(round(Fraction(bits * 10_000_000, rate))) / 10.0

    @given(bits=st.integers(1, 130), rate=st.sampled_from([125_000, 500_000, 1_000_000]))
    def test_stuffing_never_shortens(self, bits, rate):
        stuffed = bits + max_stuff_bits(bits)
        assert transmission_time_us(stuffed, rate) >= transmission_time_us(bits, rate)

    def test_rejects_zero_bitrate(self):
        with pytest.raises(FrameModelError):
            transmission_time_us(111, 0)


ids = st.one_of(
    st.integers(0, 2**11 - 1).map(lambda v: CanId(v)),
    st.integers(0, 2**29 - 1).map(lambda v: CanId(v, extended=True)),
)


class TestCanIdOrdering:
    @given(a=ids, b=ids)
    def test_antisymmetric_total(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(a=ids, b=ids, c=ids)
    def test_transitive(self, a, b, c):
        if a < b and b < c:
            assert a < c

    def test_standard_beats_extended_on_equal_prefix(self):
        std = CanId(0x123)
        ext = CanId((0x123 << 18) | 0x5, extended=True)
        assert std < ext

    def test_range_checks(self):
        with pytest.raises(FrameModelError):
            CanId(2**11)
        with pytest.raises(FrameModelError):
            CanId(2**29, extended=True)
        CanId(2**11, extended=True)  # fine as extended

    @given(a=ids)
    def test_parse_round_trip(self, a):
        assert CanId.parse(str(a)) == a


def oracle_stuff_count(bits):
    """Actually perform the insertions and count them."""
    out = []
    inserted = 0
    run = 0
    prev = None
    for b in bits:
        out.append(b)
        run = run + 1 if b == prev else 1
        prev = b
        if run == 5:
            opposite = 1 - b
            out.append(opposite)
            inserted += 1
            prev, run = opposite, 1
    return inserted


def frame_bit_pattern(can_id, payload):
    """SOF, identifier, RTR/IDE/r0 (or SRR/IDE/RTR/r1/r0), DLC and payload
    bits of a data frame, most significant bit first; the CRC is excluded."""
    bits = [0]
    if can_id.extended:
        bits += [(can_id.value >> (28 - i)) & 1 for i in range(11)]
        bits += [1, 1]
        bits += [(can_id.value >> (17 - i)) & 1 for i in range(18)]
        bits += [0, 0, 0]
    else:
        bits += [(can_id.value >> (10 - i)) & 1 for i in range(11)]
        bits += [0, 0, 0]
    bits += [(len(payload) >> (3 - i)) & 1 for i in range(4)]
    for byte in payload:
        bits += [(byte >> (7 - i)) & 1 for i in range(8)]
    return bits


class TestRealStuffing:
    @pytest.mark.parametrize("pattern,expect", [
        ([0] * 5, 1),
        ([0] * 4 + [1] * 4, 0),
        ([0] * 10, 2),
        ([1] * 5 + [0] * 5, 2),  # inserted bits join the following run
    ])
    def test_small_patterns(self, pattern, expect):
        assert _stuff_walk(pattern)[0] == expect

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
    def test_matches_insertion_oracle(self, bits):
        assert _stuff_walk(bits)[0] == oracle_stuff_count(bits)

    @given(can_id=ids, payload=st.binary(max_size=8))
    # runs that start in the header and carry through every payload byte
    @example(can_id=CanId(0), payload=bytes(8))
    @example(can_id=CanId(0x7FF), payload=b"\xff" * 8)
    @example(can_id=CanId(0x1FFFFFFF, extended=True), payload=b"\x0f" * 7)
    def test_frame_table_matches_bit_list(self, can_id, payload):
        assert frame_stuff_bits(can_id, payload) == \
            _stuff_walk(frame_bit_pattern(can_id, payload))[0]

    def test_wire_time_adds_stuff_bits_to_field_sum(self):
        bits = frame_bit_length(64) + frame_stuff_bits(CanId(0), bytes(8))
        assert frame_wire_times_us((CanId(0),), np.zeros(1, dtype=np.int64),
                                   np.zeros((1, 8), dtype=np.uint8), np.array([8]), 500_000) \
            .tolist() == [transmission_time_us(bits, 500_000)]

    def test_zero_payload_frame_stuffs_header_runs(self):
        # id 0 gives a long dominant run through SOF+ID+RTR+IDE+r0
        n = frame_stuff_bits(CanId(0), bytes(8))
        assert n >= 10

    def test_alternating_payload_stuffs_little(self):
        n = frame_stuff_bits(CanId(0x555), bytes([0xAA] * 8))
        assert n <= 2


# bytes with long runs of equal bits, and any byte
payload_bytes = st.one_of(st.sampled_from([0x00, 0xFF, 0x0F, 0xF0, 0x80, 0x01]),
                          st.integers(0, 255))


class TestWireTimeBatches:
    @settings(max_examples=300, deadline=None)
    @given(can_ids=st.lists(ids, min_size=1, max_size=3, unique=True), n=st.integers(0, 12),
           data=st.data(), stuffed=st.booleans(), wide=st.booleans(),
           # 160 kbit/s and 800 kbit/s put an odd bit count on a .05 us tie
           rate=st.one_of(st.sampled_from([160_000, 800_000, 125_000, 500_000, 1_000_000]),
                          st.integers(1, 2_000_000)))
    def test_rows_match_bit_list_and_fraction_oracles(self, can_ids, n, data, stuffed, wide,
                                                      rate):
        """Frames of several IDs and payload lengths in one batch, the bytes past a
        frame's length drawn too (they must not count)."""
        which = data.draw(st.lists(st.integers(0, len(can_ids) - 1), min_size=n, max_size=n))
        lengths = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        rows = np.array(data.draw(st.lists(st.lists(payload_bytes, min_size=9, max_size=9),
                                           min_size=n, max_size=n)), dtype=np.uint8)
        rows = rows.reshape(n, 9)[:, :9 if wide else 8]
        want = []
        for k, size, row in zip(which, lengths, rows):
            bits = oracle_length(8 * size, can_ids[k].kind, True)
            if stuffed:
                bits += _stuff_walk(frame_bit_pattern(can_ids[k], bytes(row[:size])))[0]
            want.append(float(round(Fraction(bits * 10_000_000, rate))) / 10.0)
        got = frame_wire_times_us(tuple(can_ids), np.array(which, dtype=np.int64), rows,
                                  np.array(lengths, dtype=np.int64), rate, stuffed)
        assert got.shape == (n,) and got.tolist() == want

    def test_ties_round_to_even_per_row(self):
        # at 800 kbit/s a bit lasts 12.5 tenths of a us, so an odd bit count ties
        rows = np.array([[0x00] * 8, [0x55] * 8, [0xFF] * 8, [0x0F] * 8], dtype=np.uint8)
        bits = [frame_bit_length(64) + frame_stuff_bits(CanId(0x555), bytes(r)) for r in rows]
        assert any(b % 2 for b in bits)
        assert frame_wire_times_us((CanId(0x555),), np.zeros(4, dtype=np.int64), rows,
                                   np.full(4, 8), 800_000).tolist() == \
            [float(round(Fraction(b * 10_000_000, 800_000))) / 10.0 for b in bits]

    def test_rejects_what_the_scalar_rejects(self):
        with pytest.raises(FrameModelError):
            frame_wire_times_us((CanId(1),), np.zeros(2, dtype=np.int64),
                                np.zeros((2, 9), dtype=np.uint8), np.full(2, 9), 500_000)
        with pytest.raises(FrameModelError):
            frame_wire_times_us((CanId(1),), np.zeros(0, dtype=np.int64),
                                np.zeros((0, 8), dtype=np.uint8), np.zeros(0, dtype=np.int64), 0)


class TestFrameSpec:
    def test_valid(self):
        FrameSpec(CanId(0x10), 10_000.0, 500.0, 64)

    @pytest.mark.parametrize("period,offset", [(0, 0), (-1, 0), (100, 100), (100, -1),
                                               (0.05, 0), (10000.05, 0), (math.inf, 0)])
    def test_invalid(self, period, offset):
        with pytest.raises(FrameModelError):
            FrameSpec(CanId(0x10), period, offset, 64)
