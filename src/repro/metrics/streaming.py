"""Bounded-memory run collectors for datacenter-scale sweeps.

A 128-host trace-driven run produces hundreds of thousands of mice
FCTs; keeping every sample (as the 16-host experiments do) makes the
per-cell result grow with simulated time.  These collectors keep O(1)
state instead:

- :class:`P2Quantile` — the P-square algorithm (Jain & Chlamtac 1985):
  one quantile tracked with five markers, no stored samples.
- :class:`StreamingQuantiles` — a fixed battery of P² estimators plus
  count/mean/min/max, summarizing a stream as the paper-style
  p50/p90/p99/p99.9 report.
- :class:`TopK` — the k largest samples via a min-heap (e.g. worst
  FCTs with their flow labels for post-mortem).

Estimates converge on the exact percentile as the stream grows; tests
bound the error against :func:`repro.metrics.stats.percentile` on
reference streams.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

DEFAULT_QUANTILES = (0.50, 0.90, 0.99, 0.999)


class P2Quantile:
    """Single-quantile estimator using the P-square algorithm.

    Tracks quantile ``q`` (0 < q < 1) of a stream with five markers
    whose heights are adjusted by piecewise-parabolic interpolation.
    Exact for the first five observations, then O(1) per update.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: List[float] = []
        # marker positions (1-based, as in the paper)
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._want = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._dwant = [0.0, q / 2, q, (1 + q) / 2, 1.0]
        self.count = 0

    def add(self, x: float) -> None:
        self.count += 1
        h = self._heights
        if len(h) < 5:
            h.append(x)
            h.sort()
            return
        # locate the cell containing x, clamping the extremes
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._pos[i] += 1
        for i in range(5):
            self._want[i] += self._dwant[i]
        # nudge interior markers toward their desired positions
        for i in (1, 2, 3):
            d = self._want[i] - self._pos[i]
            if (d >= 1 and self._pos[i + 1] - self._pos[i] > 1) or (
                d <= -1 and self._pos[i - 1] - self._pos[i] < -1
            ):
                step = 1.0 if d >= 1 else -1.0
                cand = self._parabolic(i, step)
                if h[i - 1] < cand < h[i + 1]:
                    h[i] = cand
                else:
                    h[i] = self._linear(i, step)
                self._pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> Optional[float]:
        """Current estimate, or None before any samples.  With fewer
        than five samples, falls back to the exact small-sample
        percentile (nearest-rank interpolation)."""
        h = self._heights
        if not h:
            return None
        if len(h) < 5 or self.count < 5:
            rank = self.q * (len(h) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(h) - 1)
            return h[lo] + (rank - lo) * (h[hi] - h[lo])
        return h[2]


class StreamingQuantiles:
    """A battery of P² estimators plus count/mean/min/max.

    ``summary()`` reports the same keys as
    :func:`repro.experiments.common.fct_percentiles` — plus
    count/mean/min/max — without holding the samples.
    """

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self.quantiles = tuple(quantiles)
        self._estimators = [P2Quantile(q) for q in self.quantiles]
        self.count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, x: float) -> None:
        self.count += 1
        self._sum += x
        self._min = x if self._min is None else min(self._min, x)
        self._max = x if self._max is None else max(self._max, x)
        for est in self._estimators:
            est.add(x)

    def extend(self, xs: Sequence[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> Optional[float]:
        return self._sum / self.count if self.count else None

    def summary(self) -> Dict[str, Any]:
        """Plain-dict summary (JSON-ready) of the stream so far."""
        out: Dict[str, Any] = {
            "count": self.count,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
        }
        for est in self._estimators:
            # 0.999 -> "p99.9", 0.5 -> "p50"
            label = f"p{est.q * 100:g}"
            out[label] = est.value()
        return out


class TopK:
    """The k largest (value, item) samples seen, via a min-heap.

    Ties are broken by insertion order (earlier samples win), so the
    result is deterministic for deterministic streams.
    """

    def __init__(self, k: int = 16) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._heap: List[Tuple[float, int, Any]] = []
        self._n = 0

    def add(self, value: float, item: Any = None) -> None:
        # negate the sequence number so earlier entries sort *larger*
        # at equal value and survive the pushpop
        entry = (value, -self._n, item)
        self._n += 1
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def items(self) -> List[Tuple[float, Any]]:
        """(value, item) pairs, largest first (ties: earliest first)."""
        return [(v, item) for v, _, item in
                sorted(self._heap, key=lambda e: (-e[0], -e[1]))]
