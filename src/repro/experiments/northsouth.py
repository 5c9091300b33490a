"""Table 2: east-west traffic coexisting with north-south cross
traffic.

A stride(8) elephant workload plus periodic mice runs while every
server also sends ECMP-balanced flows to WAN-limited (100 Mbps) remote
users hanging off the spines.  Reported: east-west mice FCT percentiles
(normalized to ECMP) and mean elephant throughput.  Paper: Presto cuts
tail FCT ~86-87%, MPTCP hits RTO timeouts at the tail, and throughputs
are 5.7 / 7.4 / 8.2 / 8.9 Gbps for ECMP / MPTCP / Presto / Optimal.

The unit of work is one (scheme, seed) simulation,
:func:`run_northsouth`; the grid is the :data:`NORTHSOUTH` declaration.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.common import (
    DEFAULT_MEASURE_NS,
    DEFAULT_WARM_NS,
    MEASURE,
    PAPER_SCHEMES,
    WARM,
    Pooled,
    RunResult,
    mice_vs_ecmp,
    reduce_pooled,
    run_elephant_workload,
    schemes_param,
    vs_ecmp_cell,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.runner.jobspec import JobSpec, cell
from repro.runner.sweep import Sweep, seeds_param
from repro.workloads.northsouth import NorthSouthWorkload
from repro.workloads.synthetic import stride_pairs


@cell
def run_northsouth(
    cfg: TestbedConfig,
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
) -> RunResult:
    """One (scheme, seed) trial — the picklable job unit: the stride(8)
    elephant run with mice on every fourth pair, under cross traffic."""
    def cross_traffic(tb: Testbed) -> None:
        # north-south users hang off spines; the single switch has none
        if cfg.scheme != "optimal":
            NorthSouthWorkload(tb, tb.streams.stream("northsouth")).start()

    pairs = stride_pairs(16, 8)
    return run_elephant_workload(
        cfg, pairs, warm_ns, measure_ns, mice_pairs=pairs[::4],
        setup=cross_traffic)


def _cell(scheme: str, seed: int, p: Dict[str, Any]) -> JobSpec:
    return JobSpec.make(
        run_northsouth, cfg=TestbedConfig(scheme=scheme, seed=seed),
        label=f"northsouth/{scheme}/seed{seed}",
        warm_ns=p["warm_ns"], measure_ns=p["measure_ns"])


def mice_timeout_fraction(point: Pooled) -> float:
    """Table 2's "TIMEOUT" row: the share of mice FCTs that ate at
    least one RTO floor."""
    min_rto_ns = TestbedConfig().tcp.min_rto_ns
    fcts = point.mice_fcts_ns
    return sum(1 for f in fcts if f >= min_rto_ns) / max(1, len(fcts))


def _table(results):
    normalized = mice_vs_ecmp(results)
    rows = []
    for scheme, res in results.items():
        pct = res.mice_percentiles_ms()
        rows.append([
            scheme,
            f"{res.mean_tput_bps / 1e9:.2f}",
            f"{pct.get('p50', float('nan')):.2f}",
            f"{pct.get('p99.9', float('nan')):.2f}",
            vs_ecmp_cell(normalized, scheme, "p99.9"),
            f"{mice_timeout_fraction(res):.1%}",
        ])
    return ["scheme", "eleph Gbps", "mice p50 ms", "mice p99.9 ms",
            "p99.9 vs ecmp", "RTO-hit mice"], rows


#: keyed scheme -> Pooled
NORTHSOUTH = Sweep(
    name="northsouth",
    description="Table 2: stride(8) elephants + mice under north-south "
                "cross traffic, mice FCT tail vs ECMP",
    params=(schemes_param(PAPER_SCHEMES), seeds_param((1, 2)), WARM, MEASURE),
    axes=("schemes",),
    cell=_cell,
    reduce=reduce_pooled,
    table=_table,
)
