"""Table 1: trace-driven workload (Kandula et al. distributions x10).

Mice (<100 KB) FCT percentiles, normalized to ECMP.  Paper: Presto cuts
p99 by 56% and p99.9 by 60% while matching ECMP at the median; its
elephant throughput tracks Optimal within 2% and beats ECMP by >10%.
MPTCP is omitted, as in the paper (unstable under many small flows).

The unit of work is one (scheme, seed) simulation, :func:`run_trace`;
the grid is the :data:`TRACE` declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.experiments.common import (
    fct_percentiles,
    mice_vs_ecmp,
    schemes_param,
    vs_ecmp_cell,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.stats import mean
from repro.runner import JobSpec
from repro.runner.sweep import Param, Sweep, seeds_param
from repro.units import SEC, msec
from repro.workloads.tracedriven import TraceWorkload


@dataclass
class TraceResult:
    """One trial's samples, or a scheme's samples pooled over seeds."""

    scheme: str
    mice_fcts_ns: List[int] = field(default_factory=list)
    elephant_tputs_bps: List[float] = field(default_factory=list)
    flows: int = 0

    def mice_percentiles_ms(self) -> Dict[str, float]:
        return fct_percentiles(self.mice_fcts_ns)

    @property
    def mean_elephant_tput_bps(self) -> float:
        return mean(self.elephant_tputs_bps)


def run_trace(
    cfg: TestbedConfig,
    duration_ns: int = msec(100),
    size_scale: float = 10.0,
    load_scale: float = 0.8,
    max_size: int = 30 * 1024 * 1024,
) -> TraceResult:
    """One (scheme, seed) trial — the picklable job unit.

    ``load_scale``/``max_size`` are calibrated so fabric hotspots
    (where load balancing matters) rather than receiver-port sharing
    (identical across schemes) dominate the mice tail, mirroring the
    regime of the paper's testbed (see EXPERIMENTS.md)."""
    tb = Testbed(cfg)
    wl = TraceWorkload(
        tb, tb.streams.stream("trace"),
        size_scale=size_scale, load_scale=load_scale,
        stop_ns=duration_ns, max_size=max_size,
    )
    wl.start()
    tb.run(duration_ns)
    return TraceResult(
        cfg.scheme,
        list(wl.mice_fcts_ns),
        [size * 8 * SEC / fct for size, fct in wl.elephant_records if fct > 0],
        wl.flows_started,
    )


def _cell(scheme: str, seed: int, p: Dict[str, Any]) -> JobSpec:
    return JobSpec.make(
        run_trace, cfg=TestbedConfig(scheme=scheme, seed=seed),
        label=f"trace/{scheme}/seed{seed}", duration_ns=p["duration_ns"])


def _reduce(cells, p) -> Dict[str, TraceResult]:
    return {
        scheme: TraceResult(
            scheme,
            [f for run in runs for f in run.mice_fcts_ns],
            [t for run in runs for t in run.elephant_tputs_bps],
            sum(run.flows for run in runs))
        for (scheme,), runs in cells
    }


def _table(results):
    normalized = mice_vs_ecmp(results)
    rows = []
    for scheme, res in results.items():
        pct = res.mice_percentiles_ms()
        rows.append([
            scheme, len(res.mice_fcts_ns),
            *(f"{pct.get(key, float('nan')):.2f}"
              for key in ("p50", "p99", "p99.9")),
            vs_ecmp_cell(normalized, scheme, "p99"),
            vs_ecmp_cell(normalized, scheme, "p99.9"),
            f"{res.mean_elephant_tput_bps / 1e9:.2f}",
        ])
    return ["scheme", "mice", "p50 ms", "p99 ms", "p99.9 ms",
            "p99 vs ecmp", "p99.9 vs ecmp", "eleph Gbps"], rows


#: keyed scheme -> that scheme's samples pooled over seeds
TRACE = Sweep(
    name="trace",
    description="Table 1: trace-driven workload, mice FCT percentiles "
                "vs ECMP + elephant throughput",
    params=(
        schemes_param(("ecmp", "presto", "optimal")),
        seeds_param((1, 2)),
        Param("duration_ns", msec(80), "--duration-ms", "ms",
              "offered-load window, simulated ms (default: 80)"),
    ),
    axes=("schemes",),
    cell=_cell,
    reduce=_reduce,
    table=_table,
)
run_table1 = TRACE.run
