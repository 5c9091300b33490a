"""Shared helpers for the benchmark suite."""

import os

from repro.runner.cli import save_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(name: str, text: str, data=None) -> None:
    """Persist a rendered table under benchmarks/results/ and echo it.

    Alongside the human-readable ``<name>.txt`` a machine-readable
    ``<name>.json`` is written; pass the experiment's structured result
    as ``data`` to include it (encoded with the runner's serialization
    helpers, so ``repro.runner.serialize.from_jsonable`` restores the
    original dataclasses).  The files are written by the same function
    ``runner run`` saves its tables with.
    """
    save_table(os.path.join(RESULTS_DIR, name), name, text, data)
    print(f"\n=== {name} ===\n{text}")
