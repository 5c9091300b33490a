"""The import contract of ``benchmarks/ledger/direct.py``: the four
timed loops it takes from :mod:`repro.perf.suite` exist under those
names and return ``(wall seconds, work units)``."""

import pytest

from repro.perf import suite


@pytest.mark.parametrize("name", [
    "bench_event_churn", "bench_tso_fanout", "bench_gro_merge",
    "bench_scalability_8host"])
def test_ledger_loop_runs_and_counts_work(name):
    wall, units = getattr(suite, name)(0.01)
    assert wall > 0 and units > 0
