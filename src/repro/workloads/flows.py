"""Distribution machinery shared by the trace-driven workloads."""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple


class EmpiricalDistribution:
    """Piecewise log-linear inverse-CDF sampler.

    Defined by ``(value, cumulative_probability)`` knots; sampling draws
    a uniform u and interpolates between knots in log-value space, which
    suits the heavy-tailed flow-size distributions measured in
    datacenters (Kandula et al., IMC'09; Benson et al., IMC'10).
    """

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if len(points) < 2:
            raise ValueError("need at least two (value, cdf) points")
        prev_v, prev_p = None, -1.0
        for value, prob in points:
            if value <= 0:
                raise ValueError(f"values must be positive: {value}")
            if prob <= prev_p:
                raise ValueError("cdf probabilities must be increasing")
            if prev_v is not None and value <= prev_v:
                raise ValueError("values must be increasing")
            prev_v, prev_p = value, prob
        if abs(points[-1][1] - 1.0) > 1e-9:
            raise ValueError("last cdf point must have probability 1.0")
        self.points = list(points)

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        pts = self.points
        if u <= pts[0][1]:
            return pts[0][0]
        for (v0, p0), (v1, p1) in zip(pts, pts[1:]):
            if u <= p1:
                frac = (u - p0) / (p1 - p0)
                return math.exp(
                    math.log(v0) + frac * (math.log(v1) - math.log(v0))
                )
        return pts[-1][0]

    def scaled(self, factor: float) -> "EmpiricalDistribution":
        """Same shape with every value multiplied by ``factor`` (the
        paper scales its trace's flow sizes by 10)."""
        if factor <= 0:
            raise ValueError(f"factor must be positive: {factor}")
        return EmpiricalDistribution(
            [(v * factor, p) for v, p in self.points]
        )
