"""Small statistics helpers (no numpy dependency in the core library)."""

from __future__ import annotations

import sys
from typing import Iterable, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, ``pct`` in [0, 100]."""
    if not 0 <= pct <= 100:
        raise ValueError(f"pct must be within [0, 100]: {pct}")
    data = sorted(values)
    if not data:
        raise ValueError("percentile of empty sequence")
    if len(data) == 1:
        return float(data[0])
    rank = pct / 100 * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1 - frac) + data[hi] * frac


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for plotting/printing a CDF."""
    data = sorted(values)
    n = len(data)
    return [(v, (i + 1) / n) for i, v in enumerate(data)]


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index over per-flow throughputs: 1 is perfect."""
    values = [v for v in values]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares < sys.float_info.min:
        # zero, or subnormal: squares that underflowed have lost the
        # precision the ratio needs ([3.4e-158] * 2 read 1.000000002)
        return 1.0
    return (total * total) / (len(values) * squares)


def ewma(samples: Iterable[float], gain: float) -> float:
    """Exponentially weighted moving average of a sample stream."""
    if not 0 < gain <= 1:
        raise ValueError(f"gain must be in (0, 1]: {gain}")
    avg = None
    for sample in samples:
        avg = sample if avg is None else (1 - gain) * avg + gain * sample
    if avg is None:
        raise ValueError("ewma of empty sequence")
    return avg
