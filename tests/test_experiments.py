"""Smoke tests for every experiment module at miniature scale.

These guard the benchmark entry points against bit-rot: each paper
experiment's runner must build, run, and produce the right result
structure.  Numbers here are NOT meaningful (tiny windows); the
benchmarks assert the paper shapes at proper scale.
"""

import pytest

from repro.experiments.common import RunResult, fct_percentiles, pool
from repro.experiments.failure import STAGES, run_failure_timeline
from repro.experiments.flowlet_cmp import FLOWLET_CMP, PERHOP_CMP
from repro.experiments.flowlet_sizes import run_flowlet_sizes, slice_flowlets
from repro.experiments.gro_micro import CPU_OVERHEAD, run_fig5
from repro.experiments.northsouth import NORTHSOUTH, mice_timeout_fraction
from repro.experiments.oversub import OVERSUB
from repro.experiments.scalability import SCALABILITY
from repro.experiments.synthetic import SYNTHETIC
from repro.experiments.trace import TRACE
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
    res = CPU_OVERHEAD.run(duration_ns=msec(6), sample_ns=msec(2))
    assert set(res.mean_util) == {"presto", "official"}
    assert all(0 < u <= 1 for u in res.mean_util.values())
    assert res.series["presto"]


def test_pool_matches_the_per_sweep_formulas():
    """Two hand-made seeds, pooled: the mean and Jain index over their
    per-pair rates together, the mean of their loss rates, and their
    samples concatenated in seed order."""
    runs = [RunResult("presto", 1, {}, [4e9, 6e9], 0.01, [10, 30], [7]),
            RunResult("presto", 2, {}, [8e9], 0.04, [20], [5, 9])]
    point = pool(runs)
    assert point.mean_tput_bps == pytest.approx(6e9)
    assert point.fairness == pytest.approx(18e9 ** 2 / (3 * 116e18))
    assert point.loss_rate == pytest.approx(0.025)
    assert point.rtts_ns == [10, 30, 20]
    assert point.mice_fcts_ns == [7, 5, 9]
    assert point.mice_percentiles_ms() == fct_percentiles([7, 5, 9])


def test_scalability_point():
    # a one-point grid is the serial per-cell path
    grid = SCALABILITY.run(("presto",), (2,), **FAST, with_probes=False)
    assert list(grid) == [("presto", 2)]
    p = grid[("presto", 2)]
    assert p.mean_tput_bps > 1e9
    assert 0 <= p.fairness <= 1


def test_oversub_point():
    p = OVERSUB.run(("ecmp",), (2,), **FAST, with_probes=False)[("ecmp", 2)]
    assert p.mean_tput_bps > 0
    assert 0 <= p.loss_rate <= 1


def test_flowlet_cmp_runner():
    res = FLOWLET_CMP.run(schemes=("flowlet500us",), **FAST)
    assert "flowlet500us" in res
    assert res["flowlet500us"].mean_tput_bps > 0


def test_perhop_cmp_runner():
    res = PERHOP_CMP.run(schemes=("presto",), **FAST)
    assert res["presto"].mean_tput_bps > 1e9


def test_synthetic_runner_stride():
    grid = SYNTHETIC.run(("presto",), ("stride",), **FAST, with_mice=False)
    assert list(grid) == [("stride", "presto")]
    assert grid[("stride", "presto")].mean_tput_bps > 1e9


def test_synthetic_runner_shuffle():
    res = SYNTHETIC.run(("ecmp",), ("shuffle",), **FAST,
                        with_mice=False)[("shuffle", "ecmp")]
    assert res.mean_tput_bps > 0
    assert 0 <= res.fairness <= 1


def test_synthetic_rejects_unknown_workload():
    with pytest.raises(ValueError):
        SYNTHETIC.run(("presto",), ("zigzag",), **FAST)


def test_trace_runner():
    res = TRACE.run(("presto",), (1,), duration_ns=msec(15))["presto"]
    assert res.flows > 0
    # structure only; tails need longer runs
    assert isinstance(res.mice_fcts_ns, list)


def test_northsouth_runner():
    res = NORTHSOUTH.run(("presto",), **FAST)["presto"]
    assert res.mean_tput_bps > 0
    assert 0 <= mice_timeout_fraction(res) <= 1


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
