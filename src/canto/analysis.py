"""Post-hoc trace analytics for the covert timing channel.

Reads a trace and its `incanta.Decoded` as per-ID deviation series and
empirical channel matrices (sent covert delay vs. decoded delay); scores
blind adversaries exactly and by Monte Carlo; computes channel capacity via
the Blahut-Arimoto iteration; and bins histograms.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from canto.bus_sim import Trace
from canto.frame_model import CanId
from canto.incanta import Decoded
from canto.scheduler import MAX_INSTANTS


class CapacityError(RuntimeError):
    """Blahut-Arimoto could not run or converge on the given matrix."""


# a row thinner than this is flagged; every entry gets the smoothing mass
# so that later logarithms stay finite
MIN_SAMPLES_PER_SYMBOL = 100
SMOOTHING = 1e-9
# Blahut-Arimoto's step grows x1.1 while the lower bound rises, up to 8, else
# restarts at 1; it shrinks no mass by over e^-30, so none underflows at once
STEP_GROWTH, MAX_STEP, MIN_EXPONENT = 1.1, 8.0, -30.0
MC_DRAWS = 4_000_000  # draws per Monte Carlo chunk, which holds whole windows only


def _genuine_pairs(trace: Trace, decoded: Decoded) -> np.ndarray:
    """The scored frames that are genuine with a genuine reference."""
    return ~np.isnan(decoded.error_us) & trace.genuine & trace.genuine[decoded.ref]


def deviation_series(trace: Trace, decoded: Decoded) -> dict[CanId, np.ndarray]:
    """Observed minus expected inter-arrival per genuine same-ID pair, for
    each ID the trace lists.

    The expected spacing is the frame period (scaled by any counter gap)
    plus the difference of the two covert delays.
    """
    pairs = _genuine_pairs(trace, decoded)
    return {can_id: decoded.error_us[pairs & (trace.id_index == k)]
            for k, can_id in enumerate(trace.ids)}


def extract_channel_matrix(trace: Trace, decoded: Decoded, level_bits: int) -> np.ndarray:
    """Empirical row-stochastic matrix P[decoded | sent] over the 2^level_bits
    delay alphabet.

    Each genuine pair's decoded symbol (observed inter-arrival - period +
    previous delay, to the nearest microsecond, clamped to [0, 2^l)) is
    counted against the sent delay. Sparse rows are flagged and the whole
    matrix gets a tiny additive smoothing.
    """
    pairs = _genuine_pairs(trace, decoded)
    size = 1 << level_bits
    sent = decoded.xi[pairs]
    # before the size^2 counts exist: their cells are bounded, and each row needs a sample
    if len(sent) >= size:
        if size * size > MAX_INSTANTS:
            raise ValueError(f"level_bits {level_bits}: channel matrix over {MAX_INSTANTS} cells")
        per_symbol = np.bincount(sent, minlength=size)
    if len(sent) < size or per_symbol.min() == 0:
        raise ValueError("no samples for some delay symbols; trace too short")
    symbol = np.clip(decoded.symbol[pairs], 0, size - 1).astype(np.int64)
    counts = np.bincount(sent * size + symbol, minlength=size * size)
    counts = counts.reshape(size, size).astype(np.float64)
    if per_symbol.min() < MIN_SAMPLES_PER_SYMBOL:
        warnings.warn(f"sparse channel matrix: thinnest row has {per_symbol.min()} "
                      f"samples (< {MIN_SAMPLES_PER_SYMBOL}); rows are smoothed", stacklevel=2)
    counts += SMOOTHING
    return counts / counts.sum(axis=1, keepdims=True)


def blahut_arimoto(matrix: np.ndarray, tolerance: float = 1e-9,
                   max_iterations: int = 10_000) -> tuple[float, int]:
    """Capacity of a discrete memoryless channel, in bits per use.

    Sets the input distribution r to r * exp(mu * (D - max D)) / Z, D being
    each input's divergence, with Matz and Duhamel's over-relaxed mu (ITW 2004;
    mu = 1 is the classic step) until Arimoto's bounds, which hold for any r,
    are under `tolerance` bits apart. Returns (capacity, iterations used).
    """
    p = np.asarray(matrix, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 1:
        raise CapacityError("channel matrix must be 2-D")
    if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise CapacityError("channel matrix rows must be probability distributions")
    m = p.shape[0]
    r = np.full(m, 1.0 / m)
    # sum of p log p per input symbol, with 0 log 0 = 0
    plogp = np.sum(p * np.where(p > 0, np.log(np.maximum(p, 1e-300)), 0.0), axis=1)
    ln2 = math.log(2.0)
    step, last, gap = 1.0, -math.inf, math.inf  # gap: the smallest bound gap yet
    for iteration in range(1, max_iterations + 1):
        q_y = r @ p
        # D(p(y|x) || q(y)) per input symbol
        div = plogp - p @ np.log(np.maximum(q_y, 1e-300))
        lower = math.log(float(np.sum(r * np.exp(div))))
        upper = float(np.max(div))
        gap = min(gap, upper - lower)  # below tolerance only if this iteration's is
        if gap < tolerance * ln2:
            return lower / ln2, iteration
        step, last = (min(step * STEP_GROWTH, MAX_STEP) if lower >= last else 1.0), lower
        weighted = r * np.exp(np.maximum(step * (div - upper), MIN_EXPONENT))
        r = weighted / np.sum(weighted)
    raise CapacityError(f"no convergence to {tolerance} bits within {max_iterations} iterations "
                        f"(smallest bound gap {gap / ln2:.3g} bits)")


def mc_adversary_rate(tolerance_us: float, level_bits: int = 8, frames: int = 1,
                      trials: int = 1_000_000, seed: int = 0) -> float:
    """Monte Carlo acceptance rate of blindly timed frames.

    Each trial draws the genuine covert delay uniformly from the alphabet
    and the adversary's timing uniformly over the delay window; a window
    of `frames` trials must pass entirely.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xA77))))
    window = 1 << level_bits
    hits = 0
    chunk = max(1, min(trials, MC_DRAWS // max(frames, 1)))
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        xi = rng.integers(0, window, size=(n, frames))
        adv = rng.uniform(0.0, window, size=(n, frames))
        ok = np.abs(adv - xi) <= tolerance_us
        hits += int(np.count_nonzero(ok.all(axis=1)))
        done += n
    return hits / trials


def exact_adversary_rate(tolerance_us: float, level_bits: int = 8, frames: int = 1) -> float:
    """Exact pass rate of `mc_adversary_rate`'s trial.

    With W = 2^l, a genuine delay xi passes the guesses in
    [max(xi - rho, 0), min(xi + rho, W)], that is 2*rho less the parts
    clipped at either edge. The clipped parts are sum_j max(rho - j, 0)
    over j = 0..W-1 and j = 1..W, so in closed form the rate is
    (rho*(2W - 2n - 1) + n*(n + 1)) / W^2 with n = ceil(rho) - 1 and rho
    capped at W. For integer rho <= W this is 2*rho/W - (rho/W)^2. A
    window of `frames` frames passes with that rate to the power `frames`.
    """
    if not tolerance_us >= 0:  # NaN fails too
        raise ValueError(f"tolerance must be nonnegative, got {tolerance_us}")
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    window = 1 << level_bits
    rho = min(tolerance_us, window)
    n = max(math.ceil(rho) - 1, 0)
    per_frame = (rho * (2 * window - 2 * n - 1) + n * (n + 1)) / window / window
    return per_frame ** frames


def histogram(series, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts over half-open bins of the given width, aligned to multiples
    of the width. Returns (bin start values, counts); more than MAX_INSTANTS
    bins raise ValueError before any is counted."""
    if not bin_width > 0:  # NaN fails too
        raise ValueError("bin width must be positive")
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    # bin numbers stay floats: the first may lie beyond int64, and relative
    # to it each is an exact integer below MAX_INSTANTS
    lo, hi = np.floor(x.min() / bin_width), np.floor(x.max() / bin_width)
    if not hi - lo < MAX_INSTANTS:  # inf and NaN fail too
        raise ValueError(f"{hi - lo + 1:.3g} bins of width {bin_width:g} exceed {MAX_INSTANTS}")
    counts = np.bincount((np.floor(x / bin_width) - lo).astype(np.int64))
    starts = (lo + np.arange(len(counts))) * bin_width
    return starts, counts
