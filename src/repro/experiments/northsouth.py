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

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.experiments.common import (
    DEFAULT_MEASURE_NS,
    DEFAULT_WARM_NS,
    MEASURE,
    PAPER_SCHEMES,
    WARM,
    RunResult,
    fct_percentiles,
    mice_vs_ecmp,
    run_elephant_workload,
    schemes_param,
    vs_ecmp_cell,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.stats import mean
from repro.runner.jobspec import JobSpec, cell
from repro.runner.sweep import Sweep, seeds_param
from repro.workloads.northsouth import NorthSouthWorkload
from repro.workloads.synthetic import stride_pairs


@dataclass
class NorthSouthResult:
    scheme: str
    mean_elephant_tput_bps: float
    mice_fcts_ns: List[int] = field(default_factory=list)
    mice_timeout_fraction: float = 0.0

    def mice_percentiles_ms(self) -> Dict[str, float]:
        return fct_percentiles(self.mice_fcts_ns)


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


def _reduce(cells, p) -> Dict[str, NorthSouthResult]:
    # "TIMEOUT" detection: FCTs that ate at least one RTO floor
    min_rto_ns = TestbedConfig().tcp.min_rto_ns
    out = {}
    for (scheme,), runs in cells:
        fcts = [f for run in runs for f in run.mice_fcts_ns]
        out[scheme] = NorthSouthResult(
            scheme,
            mean([r for run in runs for r in run.per_pair_rates_bps]),
            fcts,
            sum(1 for f in fcts if f >= min_rto_ns) / max(1, len(fcts)))
    return out


def _table(results):
    normalized = mice_vs_ecmp(results)
    rows = []
    for scheme, res in results.items():
        pct = res.mice_percentiles_ms()
        rows.append([
            scheme,
            f"{res.mean_elephant_tput_bps / 1e9:.2f}",
            f"{pct.get('p50', float('nan')):.2f}",
            f"{pct.get('p99.9', float('nan')):.2f}",
            vs_ecmp_cell(normalized, scheme, "p99.9"),
            f"{res.mice_timeout_fraction:.1%}",
        ])
    return ["scheme", "eleph Gbps", "mice p50 ms", "mice p99.9 ms",
            "p99.9 vs ecmp", "RTO-hit mice"], rows


#: keyed scheme -> that scheme's samples pooled over seeds
NORTHSOUTH = Sweep(
    name="northsouth",
    description="Table 2: stride(8) elephants + mice under north-south "
                "cross traffic, mice FCT tail vs ECMP",
    params=(schemes_param(PAPER_SCHEMES), seeds_param((1, 2)), WARM, MEASURE),
    axes=("schemes",),
    cell=_cell,
    reduce=_reduce,
    table=_table,
)
