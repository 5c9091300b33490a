"""Deterministic discrete-event simulation kernel."""
