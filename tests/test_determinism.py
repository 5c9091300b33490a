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
from repro.runner import JobSpec, collect_results, run_jobs, to_jsonable
from repro.telemetry import TelemetryConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCHEMES = scheme_names()


def result_bytes(result) -> str:
    """Serialize a RunResult exactly as the fixtures store it."""
    return json.dumps(to_jsonable(result), indent=2, sort_keys=True) + "\n"


def test_serial_rerun_is_byte_identical():
    assert golden_bytes("presto") == golden_bytes("presto")


def test_parallel_matches_serial():
    """The same runs through the sweep runner's worker pool produce the
    same bytes: forked workers inherit nothing that changes results."""
    schemes = ["presto", "ecmp"]
    serial = [golden_bytes(s) for s in schemes]
    specs = [JobSpec.make(golden_run, s, label=s) for s in schemes]
    results = collect_results(run_jobs(specs, jobs=2))
    assert [result_bytes(r) for r in results] == serial


def test_every_scheme_has_a_golden_fixture():
    # sweep_specs.json and figures.json are tests/test_sweeps.py's,
    # fabric_tables.json is tests/test_fabrics.py's, lb_sequences.json
    # is tests/test_lb.py's, telemetry_snapshot.json is checked below
    assert ({p.stem for p in GOLDEN_DIR.glob("*.json")}
            - {"sweep_specs", "figures", "fabric_tables", "lb_sequences",
               "telemetry_snapshot"}
            == set(SCHEMES) | set(FLOW_GOLDENS))


@pytest.mark.parametrize("scheme", SCHEMES + FLOW_GOLDENS)
def test_golden_fixture_unchanged(scheme):
    fixture = (GOLDEN_DIR / f"{scheme}.json").read_text()
    assert golden_bytes(scheme) == fixture, (
        f"simulation behavior changed for {scheme!r}; if intentional, "
        "regenerate with tools/gen_golden.py and review the fixture diff"
    )


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
    """Every figure oracle's OracleReport JSON is byte-identical across
    two runs and between serial and pooled execution (store disabled so
    nothing is cached away)."""
    from repro.runner.serialize import canonical_json
    from repro.validate import oracles

    kw = dict(seeds=(1, 2), scale=0.1, store=None)

    def payload_bytes(jobs):
        return canonical_json([
            oracle.run(jobs=jobs, **kw) for oracle in (
                oracles.FCT_ORDERING, oracles.TOURNAMENT_ORDERING,
                oracles.GRO_REORDERING, oracles.FAILOVER)])

    first = payload_bytes(jobs=1)
    second = payload_bytes(jobs=1)
    pooled = payload_bytes(jobs=2)
    assert first == second
    assert first == pooled
