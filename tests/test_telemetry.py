"""Tests for the telemetry subsystem (repro.telemetry).

Covers the ISSUE-mandated behaviors: telemetry is a pure observer
(simulation results byte-identical with it on or off, and the off
path serializes exactly as before); metric snapshots are deterministic
across serial and parallel runs; the exported Chrome trace is valid,
Perfetto-loadable JSON; and the config validation raises actionable
errors.
"""

import json

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.scalability import (
    SCALABILITY,
    run_scalability_seed,
    scalability_config,
)
from repro.runner.pool import collect_results, run_jobs
from repro.runner.serialize import canonical_json, to_jsonable
from repro.runner.store import ResultStore
from repro.sim.engine import Simulator
from repro.telemetry.core import (
    NULL_TELEMETRY,
    TelemetryConfig,
    per_cell_telemetry,
)
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.trace import Tracer
from repro.units import msec

TINY = dict(warm_ns=msec(2), measure_ns=msec(3))


# --- metric primitives ------------------------------------------------------

def test_counter_monotonic():
    c = Counter("c")
    c.inc()
    c.inc(4)
    assert c.snapshot() == 5
    c.record_total(9)
    assert c.snapshot() == 9
    with pytest.raises(ValueError):
        c.record_total(3)


def test_histogram_buckets_and_stats():
    h = Histogram("h", edges=(10, 100, 1000))
    for v in (5, 10, 11, 5000):
        h.observe(v)
    snap = h.snapshot()
    # bisect_right semantics: a value equal to an edge falls below it
    assert snap["counts"] == [2, 1, 0, 1]
    assert snap["count"] == 4
    assert snap["sum"] == 5026
    assert snap["min"] == 5 and snap["max"] == 5000


def test_registry_snapshot_sorted_and_typed():
    reg = MetricsRegistry()
    reg.counter("z.last").inc()
    reg.gauge("a.first").set(3)
    reg.histogram("m.mid", edges=(1, 2)).observe(1)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    with pytest.raises(ValueError):
        reg.gauge("z.last")  # name already registered as a counter


# --- tracer -----------------------------------------------------------------

def test_tracer_chrome_export_is_valid_json(tmp_path):
    sim = Simulator()
    tr = Tracer(sim)
    sim.run(until=1500)
    tr.instant("gro", "flush", "h0", {"n": 3})
    tr.complete("nic", "poll", "h0", start_ns=2000, dur_ns=500, args={})
    path = tmp_path / "t.trace.json"
    tr.write_chrome(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    # one thread_name metadata record plus the two events
    phases = sorted(e["ph"] for e in events)
    assert phases == ["M", "X", "i"]
    inst = next(e for e in events if e["ph"] == "i")
    assert inst["ts"] == 1.5 and inst["s"] == "t"
    span = next(e for e in events if e["ph"] == "X")
    assert span["ts"] == 2.0 and span["dur"] == 0.5


def test_tracer_bounded():
    sim = Simulator()
    tr = Tracer(sim, max_events=2)
    for i in range(5):
        sim.run(until=i)
        tr.instant("c", "n", "x", {})
    assert len(tr.events) == 2
    assert tr.dropped_events == 3


def test_per_cell_telemetry_names_traces():
    cfg = TelemetryConfig(trace=True, trace_dir="out")
    cell = per_cell_telemetry(cfg, "sweep/presto/paths2/seed1")
    assert cell.trace_name == "sweep_presto_paths2_seed1"
    assert per_cell_telemetry(None, "x") is None
    # tracing off: nothing to name, config passes through untouched
    plain = TelemetryConfig()
    assert per_cell_telemetry(plain, "x") is plain


# --- pure-observer guarantees ----------------------------------------------

def _strip_metrics(result):
    encoded = to_jsonable(result)
    encoded["fields"].pop("metrics", None)
    return json.dumps(encoded, sort_keys=True)


def test_results_identical_with_telemetry_on_and_off():
    cfg = scalability_config("presto", 2, 1)
    off = run_scalability_seed(cfg, **TINY)
    on = run_scalability_seed(cfg, **TINY, telemetry=TelemetryConfig())
    assert off.metrics is None
    assert on.metrics, "telemetry on must produce a snapshot"
    assert _strip_metrics(off) == _strip_metrics(on)


def test_telemetry_off_serialization_has_no_metrics_key():
    result = run_scalability_seed(scalability_config("presto", 2, 1), **TINY)
    assert "metrics" not in to_jsonable(result)["fields"]


def test_snapshot_deterministic_serial_vs_parallel(tmp_path):
    specs_kwargs = dict(
        schemes=("presto",), path_counts=(2,), seeds=(1, 2),
        telemetry=TelemetryConfig(),
        **TINY,
    )
    serial = collect_results(run_jobs(
        SCALABILITY.specs(**specs_kwargs), jobs=1,
        store=ResultStore(str(tmp_path / "serial")),
    ))
    parallel = collect_results(run_jobs(
        SCALABILITY.specs(**specs_kwargs), jobs=2,
        store=ResultStore(str(tmp_path / "parallel")),
    ))
    assert [canonical_json(r) for r in serial] == \
           [canonical_json(r) for r in parallel]
    assert all(r.metrics for r in serial)


def test_metric_snapshots_land_in_result_store(tmp_path):
    store = ResultStore(str(tmp_path))
    specs = SCALABILITY.specs(
        schemes=("presto",), path_counts=(2,), seeds=(1,),
        telemetry=TelemetryConfig(), **TINY,
    )
    run_jobs(specs, jobs=1, store=store)
    record = store.load_record(specs[0])
    metrics = record["result"]["fields"]["metrics"]
    assert any(name.startswith("host.h0.gro.") for name in metrics)
    assert any(name.startswith("switch.") for name in metrics)


# --- testbed integration ----------------------------------------------------

def test_testbed_defaults_to_null_telemetry():
    tb = Testbed(TestbedConfig(scheme="presto"))
    assert tb.telemetry is NULL_TELEMETRY
    assert not tb.telemetry.enabled
    assert tb.telemetry.snapshot() == {}
    assert tb.telemetry.export_trace() is None


def test_trace_export_end_to_end(tmp_path):
    telemetry = TelemetryConfig(
        trace=True, trace_dir=str(tmp_path), trace_name="cell")
    run_scalability_seed(
        scalability_config("presto", 2, 1), **TINY, telemetry=telemetry)
    doc = json.loads((tmp_path / "cell.trace.json").read_text())
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] != "M"}
    assert {"gro", "nic", "presto"} <= cats
    # every complete span carries a duration, instants never do
    for e in doc["traceEvents"]:
        assert ("dur" in e) == (e["ph"] == "X")
    assert (tmp_path / "cell.jsonl").exists()


def test_drop_causes_counted():
    # tiny switch buffers force drops; the cause taxonomy must see them
    cfg = TestbedConfig(scheme="ecmp", switch_pool_bytes=40_000, seed=3)
    tb = Testbed(cfg, telemetry=TelemetryConfig())
    rng = tb.streams.stream("starts")
    for src, dst in ((0, 8), (1, 9), (2, 10), (3, 11)):
        tb.add_elephant(src, dst, start_ns=rng.randrange(1000))
    tb.run(msec(6))
    snap = tb.telemetry.snapshot()
    dropped = sum(v for k, v in snap.items()
                  if k.endswith(".drops.total"))
    by_cause = sum(v for k, v in snap.items()
                   if ".drops." in k and not k.endswith(".total"))
    assert dropped > 0, "workload was sized to overflow the shared pool"
    assert by_cause == dropped


# --- config validation ------------------------------------------------------

def test_config_validation_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        TestbedConfig(scheme="warp-drive")


@pytest.mark.parametrize("kwargs", [
    dict(n_spines=0),
    dict(link_rate_bps=0),
    dict(flowcell_bytes=-1),
    dict(prop_delay_ns=-5),
    dict(presto_mode="psychic"),
    dict(gro_override="nope"),
])
def test_config_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TestbedConfig(scheme="presto", **kwargs)
