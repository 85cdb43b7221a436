"""Per-node oscillator models and clock offset metrics.

A node's clock is an ideal clock scaled by a ppm skew, quantized to the
timer tick (a multiple of 10 ns, 10 ns by default; counters count whole
ticks so values are floored), plus a per-event jitter draw. The offset
helpers turn a recording of same-ID inter-arrivals into a cumulative
offset against a given per-step slope, and classify deliberately forced
tick-level period adjustments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Jitter:
    """Per-event timing noise, drawn in microseconds.

    Kinds: "none"; "uniform" (half_width); "gaussian" (sigma);
    "steps" -- rare +-step_us excursions (probability `prob` each side,
    interrupt-latency style) smeared by a +-spread_us/2 uniform component.
    The steps model is what the calibrated covert-channel scenarios use.
    """

    kind: str = "none"
    half_width_us: float = 0.0
    sigma_us: float = 0.0
    step_us: float = 2.0
    prob: float = 0.028
    spread_us: float = 0.7

    def __post_init__(self):
        if self.kind not in ("none", "uniform", "gaussian", "steps"):
            raise ValueError(f"unknown jitter kind {self.kind!r}")
        if self.kind == "steps" and not 0 <= 2 * self.prob <= 1:
            raise ValueError("step probability out of range")
        if not all(0 <= v < math.inf for v in (self.half_width_us, self.sigma_us,
                                               self.step_us, self.spread_us)):
            raise ValueError("jitter widths must be finite and nonnegative")

    @classmethod
    def parse(cls, text: str) -> "Jitter":
        """Parse "none", "uniform:A", "gaussian:S" or "steps[:p,step,spread]"."""
        head, colon, args = text.strip().partition(":")
        if head == "none" and not colon:
            return cls()
        if head == "uniform":
            return cls(head, half_width_us=float(args))
        if head == "gaussian":
            return cls(head, sigma_us=float(args))
        if head == "steps":
            if not args:
                return cls(head)
            p, step, spread = (float(x) for x in args.split(","))
            return cls(head, prob=p, step_us=step, spread_us=spread)
        raise ValueError(f"unknown jitter spec {text!r}")

    def draws(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """`n` draws in order; numpy's array draws equal as many scalar ones bit for bit."""
        if self.kind == "none":
            return np.zeros(n)
        if self.kind == "uniform":
            return rng.uniform(-self.half_width_us, self.half_width_us, n)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma_us, n)
        # each draw takes two doubles: one picks the step, the next smears it
        u, d = rng.random(2 * n).reshape(n, 2).T
        level = np.where(u < self.prob, -self.step_us,
                         np.where(u < 2 * self.prob, self.step_us, 0.0))
        low, high = -self.spread_us / 2, self.spread_us / 2
        return level + (low + (high - low) * d)

    @property
    def bound_us(self) -> float:
        """Hard support bound on |draw| (inf for gaussian)."""
        if self.kind == "none":
            return 0.0
        if self.kind == "uniform":
            return self.half_width_us
        if self.kind == "steps":
            return self.step_us + self.spread_us / 2
        return math.inf


def oscillator_times(local, skew_ppm, tick) -> np.ndarray:
    """floor(local * (1 + skew_ppm * 1e-6) / tick) * tick: local times on skewed oscillators,
    floored to their ticks, in the unit of `tick`; skew and tick are per row or scalars."""
    return np.floor(local * (1.0 + skew_ppm * 1e-6) / tick) * tick


@dataclass(frozen=True)
class ClockModel:
    """Skewed, quantized oscillator: bus time = local * (1 + skew) floored
    to the tick grid, a multiple of 10 ns, plus one jitter draw."""

    skew_ppm: float = 0.0
    tick_ns: int = 10
    jitter: Jitter = Jitter()

    def __post_init__(self):
        if not 0 < self.tick_ns <= 2**63 - 1:  # numpy's int64
            raise ValueError(f"tick_ns {self.tick_ns} must be 1..2^63-1")
        if self.tick_ns % 10:
            raise ValueError(f"tick_ns {self.tick_ns} must be a multiple of 10")
        if not abs(self.skew_ppm) < 1e4:  # NaN fails too
            raise ValueError("skew beyond +-10000 ppm is not an oscillator model")

    def local_to_bus_time(self, t_local_us: float, rng: np.random.Generator | None = None) -> float:
        """`bus_times` of one time; it stays while perfbench/tracer.py's TARGETS bind it."""
        return float(self.bus_times([t_local_us], rng)[0])

    def bus_times(self, t_local_us, rng: np.random.Generator | None = None) -> np.ndarray:
        """Bus times of a sequence of local times, one jitter draw each, in order."""
        local = np.asarray(t_local_us, dtype=np.float64)
        if (local < 0).any():
            raise ValueError("local time must be nonnegative")
        quantized = oscillator_times(local, self.skew_ppm, self.tick_ns / 1000)
        return quantized if rng is None else quantized + self.jitter.draws(rng, local.size)


def cumulative_offset(inter_arrivals_us, slope_us: float) -> np.ndarray:
    """Cumulative clock offset series: sum of inter-arrivals minus t*slope."""
    rec = np.asarray(inter_arrivals_us, dtype=np.float64)
    if rec.size == 0:
        raise ValueError("empty recording")
    t = np.arange(1, rec.size + 1, dtype=np.float64)
    return np.cumsum(rec) - t * slope_us


def forced_delay_ticks(base_period_us: float, ticks: int, tick_ns: int = 10) -> float:
    """Period adjusted by a signed number of timer ticks."""
    adjusted = base_period_us + ticks * tick_ns / 1000.0
    if adjusted <= 0:
        raise ValueError(f"adjustment {ticks} ticks leaves no positive period")
    return adjusted


DEFAULT_TICK_CLASSES = (-500, -250, -100, 0, 100, 250, 500)


def classify_forced_delay(inter_arrivals_us, base_period_us: float,
                          classes: tuple[int, ...] = DEFAULT_TICK_CLASSES,
                          tick_ns: int = 10) -> int:
    """Recover which forced tick adjustment a recording was sent with.

    The measured per-frame slope (mean inter-arrival minus the base
    period) is matched to the nearest class slope.
    """
    rec = np.asarray(inter_arrivals_us, dtype=np.float64)
    if rec.size == 0:
        raise ValueError("empty recording")
    slope = float(rec.mean()) - base_period_us
    tick_us = tick_ns / 1000.0
    return min(classes, key=lambda c: abs(slope - c * tick_us))
