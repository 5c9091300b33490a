"""Smoke tests for every experiment module at miniature scale.

These guard the benchmark entry points against bit-rot: each paper
experiment's runner must build, run, and produce the right result
structure.  Numbers here are NOT meaningful (tiny windows); the
benchmarks assert the paper shapes at proper scale.
"""

import pytest

from repro.experiments.failure import STAGES, run_failure_timeline
from repro.experiments.flowlet_cmp import run_flowlet_cmp, run_perhop_cmp
from repro.experiments.flowlet_sizes import run_flowlet_sizes, slice_flowlets
from repro.experiments.gro_micro import run_fig5, run_figure6
from repro.experiments.northsouth import run_table2
from repro.experiments.oversub import run_oversub
from repro.experiments.scalability import run_scalability
from repro.experiments.synthetic import run_figure15_16
from repro.experiments.trace import run_table1
from repro.units import MB, msec, usec

FAST = dict(seeds=(1,), warm_ns=msec(4), measure_ns=msec(6))


def test_slice_flowlets_pure():
    events = [(0, 100), (usec(10), 50), (usec(900), 200)]
    sizes = slice_flowlets(events, gap_ns=usec(500))
    assert sizes == [150, 200]
    assert slice_flowlets([], usec(500)) == []


def test_flowlet_sizes_runner():
    res = run_flowlet_sizes(1, transfer_bytes=2 * MB, duration_ns=msec(8))
    assert res.competing_flows == 1
    assert sum(res.flowlet_sizes) > 0
    assert res.flowlet_sizes == sorted(res.flowlet_sizes, reverse=True)


def test_fig5_runner():
    res = run_fig5("presto", duration_ns=msec(8))
    assert res.gro == "presto"
    assert res.throughput_bps > 1e9
    assert 0 <= res.cpu_utilization <= 1
    assert res.ooo_counts


def test_fig6_runner():
    res = run_figure6(duration_ns=msec(6), sample_ns=msec(2))
    assert set(res.mean_util) == {"presto", "official"}
    assert all(0 < u <= 1 for u in res.mean_util.values())
    assert res.series["presto"]


def test_scalability_point():
    # a one-point grid is the serial per-cell path
    p = run_scalability(("presto",), (2,), **FAST, with_probes=False)["presto"][0]
    assert p.n_paths == 2
    assert p.mean_tput_bps > 1e9
    assert 0 <= p.fairness <= 1


def test_oversub_point():
    p = run_oversub(("ecmp",), (2,), **FAST, with_probes=False)["ecmp"][0]
    assert p.oversubscription == 1.0
    assert p.mean_tput_bps > 0


def test_flowlet_cmp_runner():
    res = run_flowlet_cmp(schemes=("flowlet500us",), **FAST)
    assert "flowlet500us" in res
    assert res["flowlet500us"].mean_tput_bps > 0


def test_perhop_cmp_runner():
    res = run_perhop_cmp(schemes=("presto",), **FAST)
    assert res["presto"].mean_tput_bps > 1e9


def test_synthetic_runner_stride():
    res = run_figure15_16(("presto",), ("stride",), **FAST,
                          with_mice=False)[("presto", "stride")]
    assert res.workload == "stride"
    assert res.mean_elephant_tput_bps > 1e9


def test_synthetic_runner_shuffle():
    res = run_figure15_16(("ecmp",), ("shuffle",), **FAST,
                          with_mice=False)[("ecmp", "shuffle")]
    assert res.workload == "shuffle"
    assert res.mean_elephant_tput_bps > 0


def test_synthetic_rejects_unknown_workload():
    with pytest.raises(ValueError):
        run_figure15_16(("presto",), ("zigzag",), **FAST)


def test_trace_runner():
    res = run_table1(("presto",), (1,), duration_ns=msec(15))["presto"]
    assert res.flows > 0
    # structure only; tails need longer runs
    assert isinstance(res.mice_fcts_ns, list)


def test_northsouth_runner():
    res = run_table2(("presto",), **FAST)["presto"]
    assert res.mean_elephant_tput_bps > 0
    assert 0 <= res.mice_timeout_fraction <= 1


def test_failure_stages():
    timeline = run_failure_timeline("L1->L4", 1, warm_ns=msec(4),
                                    measure_ns=msec(6))
    assert tuple(timeline.phases) == STAGES
    for stage in STAGES:
        phase = timeline.phases[stage]
        assert phase.name == stage
        assert phase.mean_flow_tput_bps >= 0
    with pytest.raises(KeyError):
        timeline.phases["chaos"]
    with pytest.raises(ValueError):
        run_failure_timeline("zigzag")
