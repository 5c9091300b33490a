"""Opt-in checks of the ledger itself: ``pytest benchmarks/ledger``.

Outside tier-1 ``testpaths`` on purpose — the ledger measures the
system from outside and must not slow the push gate.  Each test runs a
reduced-size pass (``small=True``: same shape, a handful of cells).
"""

import json
import math
import os
import re
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from direct import direct_timings  # noqa: E402
from fold import OTHER, PACKAGES, WAIT  # noqa: E402
from harness import execute  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def traced():
    """One reduced-size traced record per workload, the direct timings
    merged in as ``run.py --trace`` does."""
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        direct = direct_timings(7, tmp, scale=0.1)
        for name in WORKLOADS:
            records[name] = execute(
                name, 7, "trace", os.path.join(tmp, name), small=True)
            records[name]["layer"].update(direct)
    return records


def test_benchmark_json_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert "setup_s" in names


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_present_and_finite(traced, name):
    record = traced[name]
    assert record["failed"] == 0, record["checks"]
    for metric in SPEC["end_to_end"]:
        value = record[metric["name"]]
        assert math.isfinite(value) and value >= 0, metric
    assert 0.0 <= record["failed_share"] <= 1.0
    layer = dict(record["layer"], **{"trace.overhead_x": 1.0})
    measured = [m["name"] for m in SPEC["per_layer"] if m["name"] in layer]
    assert all(math.isfinite(layer[n]) for n in measured)
    # what a workload does not measure is exactly the other workloads'
    # own phase metrics
    own = {"runner.serial_ms_per_job", "runner.warm_us_per_job",
           "runner.pool_ms_per_job", "service.http_ms_per_job",
           "service.submit_us_per_spec", "service.requeues",
           "experiments.reduce_s", "search.overhead_s"}
    missing = {m["name"] for m in SPEC["per_layer"]} - set(measured)
    assert missing <= own, missing


def test_every_per_layer_metric_measured_somewhere(traced):
    seen = {"trace.overhead_x"}
    for record in traced.values():
        seen.update(record["layer"])
    assert {m["name"] for m in SPEC["per_layer"]} <= seen


@pytest.mark.parametrize("name", WORKLOADS)
def test_fold_accounts_for_all_self_time(traced, name):
    layer = traced[name]["layer"]
    folded = sum(layer[f"{p}.self_s"] for p in PACKAGES + (WAIT, OTHER))
    assert folded == pytest.approx(layer["trace.total_s"], rel=0.01)


def test_wrong_expected_digest_counts_as_failure(tmp_path):
    good = execute("packet_faults", 7, "run", str(tmp_path / "a"), small=True)
    assert good["failed_share"] == 0
    bad = execute("packet_faults", 7, "run", str(tmp_path / "b"), small=True,
                  expected={"packet_faults": "0" * 64})
    assert bad["sim_digest"] == good["sim_digest"]
    assert bad["failed"] == 1 and bad["failed_share"] > 0
