"""Figs 13-14: Presto against its nearest alternatives under stride(8)
on the 16-host Clos — one comparison, two scheme lists.

Fig 13 (``flowlet_cmp``): Presto vs flowlet switching with 100 us and
500 us timers.  The paper's numbers: 9.3 Gbps (Presto) vs 7.6 (500 us)
vs 4.3 (100 us); Presto's 99.9th-percentile RTT is 2-3.6x lower than
the flowlet schemes.

Fig 14 (``perhop_cmp``): Presto + shadow MACs (end-to-end paths) vs
Presto + per-hop ECMP hashing on the flowcell ID.  Paper: 9.3 vs 8.9
Gbps, and the shadow-MAC variant's RTT distribution is visibly better
because deterministic round robin avoids the transient collisions
random per-hop hashing allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.experiments.common import (
    MEASURE,
    WARM,
    pct_ms,
    run_elephant_workload,
    schemes_param,
)
from repro.experiments.harness import TestbedConfig
from repro.metrics.stats import mean
from repro.runner import JobSpec
from repro.runner.sweep import Sweep, seeds_param
from repro.workloads.synthetic import stride_pairs


@dataclass
class StrideCmpResult:
    scheme: str
    mean_tput_bps: float
    rtts_ns: List[int] = field(default_factory=list)


def stride_cmp_sweep(name: str, description: str,
                     schemes: Sequence[str]) -> Sweep:
    def cell(scheme: str, seed: int, p: Dict[str, Any]) -> JobSpec:
        return JobSpec.make(
            run_elephant_workload,
            cfg=TestbedConfig(scheme=scheme, seed=seed),
            label=f"{name}/{scheme}/seed{seed}",
            pairs=stride_pairs(16, 8),
            warm_ns=p["warm_ns"],
            measure_ns=p["measure_ns"],
            probe_pairs=[(0, 8), (5, 13)],
        )

    def reduce(cells, p) -> Dict[str, StrideCmpResult]:
        return {
            scheme: StrideCmpResult(
                scheme,
                mean([r for run in runs for r in run.per_pair_rates_bps]),
                [r for run in runs for r in run.rtts_ns])
            for (scheme,), runs in cells
        }

    def table(results):
        return (["scheme", "tput Gbps", "rtt p50 ms", "rtt p99 ms",
                 "rtt p99.9 ms"],
                [[scheme, f"{res.mean_tput_bps / 1e9:.2f}",
                  *(pct_ms(res.rtts_ns, pct) for pct in (50, 99, 99.9))]
                 for scheme, res in results.items()])

    return Sweep(
        name=name,
        description=description,
        params=(schemes_param(schemes), seeds_param((1, 2, 3)), WARM, MEASURE),
        axes=("schemes",),
        cell=cell,
        reduce=reduce,
        table=table,
    )


FLOWLET_CMP = stride_cmp_sweep(
    "flowlet_cmp", "Fig 13: Presto vs flowlet switching (100/500 us "
    "timers), stride(8) on the 16-host Clos",
    ("flowlet100us", "flowlet500us", "presto"))
PERHOP_CMP = stride_cmp_sweep(
    "perhop_cmp", "Fig 14: Presto + shadow MACs vs per-hop ECMP on the "
    "flowcell ID, stride(8) on the 16-host Clos",
    ("presto", "presto_ecmp"))
run_flowlet_cmp = FLOWLET_CMP.run
run_perhop_cmp = PERHOP_CMP.run
