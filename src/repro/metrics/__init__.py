"""Measurement utilities: statistics, run collectors, reordering metrics."""
