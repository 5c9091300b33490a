"""Determinism harness: byte-identical results across reruns, across
serial/parallel execution, and against committed golden fixtures.

The fixtures in ``tests/golden/`` were generated *before* the hot-path
optimization pass (heap compaction, Packet/Segment pooling, callback
flattening); re-running the same tiny configs on the current code and
comparing bytes is what proves those optimizations behavior-preserving.
Any event reordered, any float expression regrouped, any RNG draw moved
shows up here as a diff.

Regenerate intentionally-changed goldens with ``python
tools/gen_golden.py`` and review the fixture diff like any other code
change.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.goldens import FLOW_GOLDENS, golden_bytes, golden_run
from repro.experiments.schemes import scheme_names
from repro.runner.jobspec import JobSpec
from repro.runner.pool import collect_results, run_jobs
from repro.runner.serialize import artifact_json, movement
from repro.telemetry.core import TelemetryConfig
from tests.gen_golden_tool import gen_golden

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCHEMES = scheme_names()


def test_serial_rerun_is_byte_identical():
    assert golden_bytes("presto") == golden_bytes("presto")


def test_parallel_matches_serial():
    """The same runs through the sweep runner's worker pool produce the
    same bytes: forked workers inherit nothing that changes results."""
    schemes = ["presto", "ecmp"]
    serial = [golden_bytes(s) for s in schemes]
    specs = [JobSpec.make(golden_run, s, label=s) for s in schemes]
    results = collect_results(run_jobs(specs, jobs=2))
    assert [artifact_json(r) for r in results] == serial


def test_every_scheme_has_a_golden_fixture():
    """The files under tests/golden/ are exactly the ``tests/golden/``
    rows of the one ``PINNED`` table, the rows ``golden_bytes`` makes
    are every scheme and flow cell, and the figures row holds one entry
    per figure of its generator's table."""
    rows = {path: make for path, make in gen_golden.PINNED.items()
            if path.startswith("tests/golden/")}
    assert ({f"tests/golden/{p.name}" for p in GOLDEN_DIR.glob("*.json")}
            == set(rows))
    assert ({make.args[0] for make in rows.values()
             if getattr(make, "func", None) is golden_bytes}
            == set(SCHEMES) | set(FLOW_GOLDENS))
    figures = json.loads((GOLDEN_DIR / "figures.json").read_text())
    assert set(figures) == set(gen_golden.PORTED)


@pytest.mark.parametrize("scheme", SCHEMES + FLOW_GOLDENS)
def test_golden_fixture_unchanged(scheme):
    fixture = (GOLDEN_DIR / f"{scheme}.json").read_text()
    new = golden_bytes(scheme)
    assert new == fixture, "\n".join([
        f"simulation behavior changed for {scheme!r}; if intentional, "
        f"re-pin with python tools/gen_golden.py tests/golden/{scheme}.json "
        "and review the fixture diff",
        *movement(json.loads(fixture), json.loads(new))])


@pytest.mark.parametrize("cell", ["presto", "flow_presto"])
def test_telemetry_snapshot_keeps_every_parent_metric(cell):
    """``telemetry_snapshot.json`` was written by the code before the
    samplers mirrored ``plane.counters()`` (ISSUE 24): every metric it
    reported is still reported, with the same value."""
    pinned = json.loads(
        (GOLDEN_DIR / "telemetry_snapshot.json").read_text())[cell]
    metrics = golden_run(cell, TelemetryConfig(metrics=True)).metrics
    assert {key: metrics.get(key) for key in pinned} == pinned


@pytest.mark.tier2
def test_oracle_reports_byte_identical_across_runs_and_serial_vs_parallel():
    """The verdicts of the claim rows that run seed sweeps are
    byte-identical across two runs and between serial and pooled
    execution (store disabled so nothing is cached away)."""
    from repro.runner.serialize import canonical_json
    from repro.runner.sweeps import SWEEPS

    rows = ("fct_ordering", "fct_ordering_flow", "failover", "failover_flow",
            "gro_reordering", "tournament_ordering")

    def payload_bytes(jobs):
        return canonical_json(
            SWEEPS["claims"].run(claims=rows, jobs=jobs, store=None))

    first = payload_bytes(jobs=1)
    second = payload_bytes(jobs=1)
    pooled = payload_bytes(jobs=2)
    assert first == second
    assert first == pooled
