"""Time-covert authentication over frame delays.

The sender of a cyclic frame delays each transmission by the low bits of
an HMAC tag over (counter, id, payload), interpreted as whole
microseconds. The receiver recomputes the tag and accepts a frame when
the observed same-ID inter-arrival matches the expected period plus the
covert-delay difference within a tolerance. Differencing consecutive
timestamps cancels sender clock skew. Security accumulates over windows
of consecutive frames.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from canto.frame_model import CanId
from canto.scheduler import MAX_INSTANTS, _periods

if TYPE_CHECKING:
    from canto.bus_sim import Trace


@dataclass(frozen=True)
class CovertConfig:
    """The channel that the senders and the receiver share: key and bits per frame."""

    key: bytes
    level_bits: int = 8

    def __post_init__(self):
        if not 16 <= len(self.key) <= 32:
            raise ValueError("key must be 16..32 bytes")
        if not 1 <= self.level_bits <= 32:
            raise ValueError("level_bits must be 1..32")


@dataclass(frozen=True)
class Receiver:
    """What the receiver alone knows and decides: each ID's period, the
    tolerance and the window size. No sender holds these."""

    periods_us: dict[CanId, float]
    tolerance_us: float = 5.0
    frames_required: int = 6

    def __post_init__(self):
        if not self.tolerance_us >= 0:  # NaN fails too
            raise ValueError("tolerance must be nonnegative")
        # a bus releases at most MAX_INSTANTS frames, so a longer window never fills
        if not 1 <= self.frames_required <= MAX_INSTANTS:
            raise ValueError(f"frames_required must be 1..{MAX_INSTANTS}")


def mac_input(counter: int, can_id: CanId, payload: bytes) -> bytes:
    """Canonical MAC input: counter and id as 4-byte big-endian, then payload."""
    return counter.to_bytes(4, "big") + can_id.value.to_bytes(4, "big") + payload


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_HASH_BLOCK = 1024  # frames hashed per block: bounds the live message and tag bytes


@lru_cache(maxsize=64)
def _hmac_pads(key: bytes):
    """SHA-256 states after absorbing the key's inner and outer pads (RFC 2104)."""
    if len(key) > 64:  # the SHA-256 block size
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\0")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def covert_delays(key: bytes, counters, id_values, payloads: np.ndarray, lengths,
                  level_bits: int = 8) -> np.ndarray:
    """Covert delays of a batch of frames in microseconds, as int64: frame i's is
    the low `level_bits` bits of the HMAC-SHA256 tag over mac_input(counters[i],
    id, payload), its id's value `id_values[i]` and its payload the first
    lengths[i] bytes of row i of the uint8 matrix `payloads` (a scalar
    `id_values` or `lengths` holds for every frame). The tag equals
    hmac.new(key, msg, sha256): the pad states are kept per key; numpy makes each
    block of message rows one `bytes` per frame (a `V` dtype keeps trailing zero
    bytes), cut to length only in blocks with a short row, and each block's tags
    are joined once. A counter outside 0..2^32-1 raises OverflowError, as 4
    bytes cannot hold it.
    """
    counters = np.asarray(counters, dtype=np.int64)
    if len(counters) and not (counters.min() >= 0 and counters.max() <= 0xFFFFFFFF):
        raise OverflowError("counter outside 0..2^32-1 does not fit the MAC input's 4 bytes")
    heads = np.stack(np.broadcast_arrays(counters, id_values), axis=1).astype(">u4")
    messages = np.hstack([heads.view(np.uint8), payloads])
    n, width = messages.shape
    texts, sizes = messages.view(f"V{width}").ravel(), 8 + np.broadcast_to(lengths, n)
    inner_copy, outer_copy = (pad.copy for pad in _hmac_pads(key))
    delays = np.empty(n, dtype=np.int64)
    for rows in (slice(lo, lo + _HASH_BLOCK) for lo in range(0, n, _HASH_BLOCK)):
        block = texts[rows].tolist()
        if sizes[rows].min() < width:
            block = [text[:size] for text, size in zip(block, sizes[rows].tolist())]
        tags = []
        append = tags.append
        for text in block:
            inner = inner_copy()
            inner.update(text)
            outer = outer_copy()
            outer.update(inner.digest())
            append(outer.digest())
        delays[rows] = np.frombuffer(b"".join(tags), dtype=">u4")[7::8]
    return delays & ((1 << level_bits) - 1)


def covert_delay(key: bytes, counter: int, can_id: CanId, payload: bytes,
                 level_bits: int = 8) -> int:
    """One frame's covert delay: the low `level_bits` bits of the stdlib one-shot
    HMAC-SHA256 over mac_input(counter, can_id, payload), so it shares no code
    with `covert_delays`. A counter outside 0..2^32-1 raises OverflowError. It
    stays while perfbench/tracer.py's TARGETS bind it."""
    tag = hmac.digest(key, mac_input(counter, can_id, payload), "sha256")
    return int.from_bytes(tag[-4:], "big") & ((1 << level_bits) - 1)


def mac_fingerprint(trace: Trace, covert: CovertConfig) -> bytes:
    """SHA-256 over the channel's `level_bits` and key, then each column of a
    trace that makes up a frame's MAC input (counter, the id values by `ids`
    and `id_index`, payload rows and lengths), each after its dtype and shape:
    equal fingerprints mean equal covert delays."""
    digest = hashlib.sha256(f"{covert.level_bits}:{covert.key.hex()}".encode())
    ids = np.array([i.value for i in trace.ids], dtype=np.int64)
    for column in (trace.counter, ids, trace.id_index, trace.payloads, trace.payload_len):
        column = np.ascontiguousarray(column)
        digest.update(f"{column.dtype.str}{column.shape}".encode())
        digest.update(column)
    return digest.digest()


def embed_counters(payloads: np.ndarray, lengths: np.ndarray, counters) -> np.ndarray:
    """A copy of the uint8 payload rows with counters[i] written, big-endian, into
    the last 4 of the first lengths[i] bytes of row i."""
    if len(lengths) and lengths.min() < 4:
        raise ValueError("payload too short to carry a 4-byte counter")
    rows, counters = payloads.copy(), np.asarray(counters, dtype=np.int64) & 0xFFFFFFFF
    rows[np.arange(len(rows))[:, None], lengths[:, None] + np.arange(-4, 0)] = \
        counters.astype(">u4").view(np.uint8).reshape(-1, 4)
    return rows


def adversary_advantage(tolerance_us: float, level_bits: int, frames: int = 1) -> float:
    """Chance that blindly timed frames pass verification.

    The acceptance window is two-sided, so a single frame lands inside it
    with probability 2*rho/2^l; over a window of k frames the advantage
    is that probability to the k-th power.
    """
    if 2 * tolerance_us >= (1 << level_bits):
        raise ValueError("tolerance window covers the whole delay alphabet")
    if frames < 1:
        raise ValueError("frames must be >= 1")
    return ((2.0 * tolerance_us) / (1 << level_bits)) ** frames


def ecu_success(per_frame_acceptance: float, frames: int) -> float:
    """Probability that all frames of a window from a genuine sender pass."""
    if not 0.0 <= per_frame_acceptance <= 1.0:
        raise ValueError("acceptance probability must be in [0, 1]")
    if frames < 1:
        raise ValueError("frames must be >= 1")
    return per_frame_acceptance ** frames


@dataclass
class Verdict:
    """Outcome for one received frame.

    `accepted` covers the timing check; `reason` is "" on accept,
    "first" for the unscored bootstrap frame, "timing" or "replay"
    otherwise. `window_authenticated` is set once frames_required
    verdicts exist for the ID.
    """

    can_id: CanId
    counter: int
    ticks: int
    accepted: bool
    error_us: float | None = None
    reason: str = ""
    window_authenticated: bool | None = None


@dataclass
class _IdState:
    counter: int
    last_ticks: int
    last_xi: int
    recent: deque = field(default_factory=deque)


class Verifier:
    """Per-ID receiver state machine for the covert channel.

    The first frame of an ID only initializes state (there is no previous
    covert delay to difference against) and is reported as an unscored
    accept. Timestamps of every frame, accepted or not, advance the state
    so that differencing stays between consecutive frames, in ticks of 10 ns. `decode` is the
    pipeline's receiver; this one stays while perfbench/tracer.py's TARGETS bind it.
    """

    def __init__(self, channel: CovertConfig, receiver: Receiver):
        self.channel, self.receiver = channel, receiver
        self._states: dict[CanId, _IdState] = {}

    def verify(self, can_id: CanId, counter: int, payload: bytes, ticks: int) -> Verdict:
        if can_id not in self.receiver.periods_us:
            raise KeyError(f"unknown id {can_id} (not in the config)")
        xi = covert_delay(self.channel.key, counter, can_id, payload, self.channel.level_bits)
        state = self._states.get(can_id)
        if state is None:
            state = self._states[can_id] = _IdState(counter, ticks, xi)
            verdict = Verdict(can_id, counter, ticks, True, None, "first")
        elif counter <= state.counter:
            # stale counter: drop without touching the timing reference,
            # otherwise a replay would poison the next genuine check
            verdict = Verdict(can_id, counter, ticks, False, None, "replay")
        else:
            period = int(_periods([self.receiver.periods_us[can_id]])[0])
            expected = period * (counter - state.counter) + 100 * (xi - state.last_xi)
            error = ((ticks - state.last_ticks) - expected) / 100
            ok = abs(error) <= self.receiver.tolerance_us
            verdict = Verdict(can_id, counter, ticks, ok, error, "" if ok else "timing")
            state.counter = counter
            state.last_ticks = ticks
            state.last_xi = xi
        state.recent.append(verdict.accepted)
        if len(state.recent) > self.receiver.frames_required:
            state.recent.popleft()
        if len(state.recent) == self.receiver.frames_required:
            verdict.window_authenticated = all(state.recent)
        return verdict


@dataclass(frozen=True)
class Decoded:
    """Per-frame outcome of `decode`, each array in trace order.

    `error_us` (observed minus expected spacing, whole ticks of 10 ns in us: what `accepted`
    judges) and `symbol` (the decoded delay, unclamped) are NaN for a first frame and a replay.
    """

    xi: np.ndarray
    ref: np.ndarray         # last earlier non-replay frame of the same ID, or -1
    error_us: np.ndarray
    symbol: np.ndarray
    accepted: np.ndarray
    window: np.ndarray      # -1 before frames_required verdicts, else 0 or 1


def decode(trace: Trace, channel: CovertConfig, receiver: Receiver) -> Decoded:
    """Every frame of a trace through `Verifier`'s receiver rule at once, each
    frame arriving at its `bus_ticks`, in exact integer arithmetic.

    Each covert delay is computed once: a frame whose delay the simulator
    hashed under `channel` (`_sent_delays`) keeps it, and every other frame is
    hashed in one `covert_delays` call.
    """
    n, id_index, periods_us = len(trace), trace.id_index, receiver.periods_us
    if not (known := np.array([i in periods_us for i in trace.ids], dtype=bool)[id_index]).all():
        raise KeyError(f"unknown id {trace.ids[id_index[np.argmin(known)]]} (not in the config)")
    period = _periods([periods_us.get(i, 1.0) for i in trace.ids])[id_index]  # 1.0: no frames
    counter, ticks = trace.counter, trace.bus_ticks
    id_values = np.array([i.value for i in trace.ids], dtype=np.int64)[id_index]
    xi = _sent_delays(trace, channel)
    if xi is None:
        xi = covert_delays(channel.key, counter, id_values, trace.payloads, trace.payload_len,
                           channel.level_bits)
    else:
        rest = np.flatnonzero(xi < 0)
        xi[rest] = covert_delays(channel.key, counter[rest], id_values[rest], trace.payloads[rest],
                                 trace.payload_len[rest], channel.level_bits)

    by_id = np.argsort(id_index, kind="stable")  # the one sort by ID
    grouped = id_index[by_id]  # each ID's first frame heads its group
    ref, replay = _references(by_id, grouped, counter)
    s = np.flatnonzero((ref >= 0) & ~replay)
    r = ref[s]
    p, steps = period[s], counter[s] - counter[r]
    if int(p.max(initial=0)) * int(steps.max(initial=0)) >> 62:  # an int64 product would wrap:
        # Python ints, as scheduler._steps, and periods capped so that error / 100 is a float
        p, steps = np.minimum(p.astype(object), 2 ** 990), steps.astype(object)
    error = (ticks[s] - ticks[r]) - (p * steps + 100 * (xi[s] - xi[r]))  # exact, in ticks
    error_us, symbol = np.full(n, np.nan), np.full(n, np.nan)
    error_us[s], symbol[s] = error / 100, (error + 100 * xi[s]) / 100
    del s, r, p, steps, error
    symbol = np.rint(symbol)  # half to even: a tick count below 2^53 makes exact ties
    accepted = (ref < 0) | (np.abs(error_us) <= receiver.tolerance_us)
    window = _windows(by_id, grouped, accepted, receiver.frames_required)
    return Decoded(xi, ref, error_us, symbol, accepted, window)


def _sent_delays(trace: Trace, channel: CovertConfig) -> np.ndarray | None:
    """A copy of the covert delays that `bus_sim.simulate` hashed for this
    trace, -1 for a plain sender's frame; None unless they were hashed under
    `channel`'s key and level_bits from the MAC inputs the trace holds now."""
    if trace.sent is None or trace.sent[1] != mac_fingerprint(trace, channel):
        return None
    return trace.sent[0].copy()


def _references(order: np.ndarray, ids: np.ndarray, counter: np.ndarray):
    """Each frame's reference (the first earlier frame of its ID with the highest
    counter so far, -1 for none) and replay flag (counter not above the reference's);
    `order` sorts the frames stably by ID position, `ids` in that order. The key
    packs ID position (< 2^30) << 32 | counter (< 2^32, as `covert_delays` checks),
    so its running maximum over the frames grouped by ID restarts per ID."""
    key = ids << 32 | counter[order]
    rises = np.diff(np.maximum.accumulate(key), prepend=-1) > 0
    holder = order[np.maximum.accumulate(np.where(rises, np.arange(len(key)), 0))]
    ref, replay = np.empty_like(order), np.empty_like(rises)
    ref[order] = np.where(np.diff(ids, prepend=-1) != 0, -1, np.roll(holder, 1))
    replay[order] = ~rises
    return ref, replay


def _windows(order: np.ndarray, ids: np.ndarray, accepted: np.ndarray, need: int) -> np.ndarray:
    """1 where a frame and the need - 1 frames of its ID before it were all
    accepted, else 0; -1 before its ID has need verdicts. `order` and `ids` as
    in `_references`: sorted, so equal ends mean one ID throughout."""
    full = np.flatnonzero(ids[need - 1:] == ids[:max(len(ids) - need + 1, 0)]) + need - 1
    rejects = np.concatenate(([0], np.cumsum(~accepted[order])))
    window = np.full(len(order), -1, dtype=np.int8)
    window[order[full]] = rejects[full + 1] == rejects[full + 1 - need]
    return window
