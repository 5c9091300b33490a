"""Small statistics helpers (no numpy dependency in the core library)."""

from __future__ import annotations

import sys
from typing import Sequence


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


