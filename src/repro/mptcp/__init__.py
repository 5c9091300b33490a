"""Multipath TCP baseline: subflows over ECMP paths with coupled
congestion control (LIA / OLIA-style)."""
