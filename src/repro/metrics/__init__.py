"""Measurement utilities: statistics, run collectors, reordering metrics."""

from repro.metrics.stats import cdf_points, ewma, jain_fairness, mean, percentile
from repro.metrics.collectors import Counters, Window
from repro.metrics.reordering import ReorderTracker
from repro.metrics.streaming import P2Quantile, StreamingQuantiles, TopK

__all__ = [
    "percentile",
    "mean",
    "cdf_points",
    "jain_fairness",
    "ewma",
    "Counters",
    "Window",
    "ReorderTracker",
    "P2Quantile",
    "StreamingQuantiles",
    "TopK",
]
