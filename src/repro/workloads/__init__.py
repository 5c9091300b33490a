"""Workload generators for the paper's evaluation."""
