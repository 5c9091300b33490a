"""Experiment harness and one module per paper table/figure."""
