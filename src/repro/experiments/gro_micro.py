"""Fig 5 + Fig 6: GRO microbenchmarks.

Fig 5 (a/b): two senders on L1 spray flowcells over two paths to two
receivers on L2 (Fig 4b topology).  Comparing Presto GRO against the
unmodified ("official") GRO at the receiver yields the out-of-order
segment count CDF (5a), the pushed-segment size CDF (5b), plus the
throughput/CPU operating points the paper quotes in the text
(9.3 Gbps @ 69+6% vs 4.6 Gbps @ 86%).

Fig 6: receiver CPU utilization time series for Presto GRO (stride on
the Clos, reordering present) vs official GRO (stride on a
non-blocking switch, no reordering) — the paper's +6% overhead claim.

Each figure is a two-cell sweep (one cell per GRO flavour):
:data:`GRO_MICRO` over :func:`run_fig5`, :data:`CPU_OVERHEAD` over
:func:`run_fig6`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.reordering import ReorderTracker
from repro.metrics.stats import mean, percentile
from repro.net.fabrics import TopologySpec
from repro.runner import JobSpec
from repro.runner.sweep import Param, Sweep
from repro.units import SEC, msec
from repro.workloads.synthetic import stride_pairs

GROS = ("presto", "official")
DURATION = Param("duration_ns", msec(40), "--duration-ms", "ms",
                 "simulated run length, ms (default: 40)")
SEED = Param("seed", 0, "--seed", "int", "simulator seed (default: 0)")


@dataclass
class GroMicroResult:
    gro: str
    throughput_bps: float       # mean per-flow goodput
    cpu_utilization: float      # receive-core utilization, busiest host
    ooo_counts: List[int]       # Fig 5a samples
    segment_sizes: List[int]    # Fig 5b samples
    retx_bytes: int
    fast_retransmits: int

    @property
    def frac_zero_ooo(self) -> float:
        if not self.ooo_counts:
            return 1.0
        return sum(1 for c in self.ooo_counts if c == 0) / len(self.ooo_counts)


def run_fig5(gro: str, duration_ns: int = msec(40), seed: int = 0) -> GroMicroResult:
    """One curve of Fig 5a/5b: ``gro`` is "presto" or "official".

    This experiment pins the receive window to 1 MB (vs the harness's
    scaled 640 KB): with tiny windows the two-path queues stay so short
    and symmetric that spraying barely reorders — the testbed's
    autotuned windows are what make its queues breathe enough to
    reorder, and that oscillation is the phenomenon under test."""
    cfg = TestbedConfig(scheme="presto",
                        topology=TopologySpec.clos(2, 2, 2),
                        gro_override=gro, seed=seed)
    cfg = replace(cfg, tcp=replace(cfg.tcp, rcv_wnd=1024 * 1024))
    tb = Testbed(cfg)
    trackers = []
    for dst in (2, 3):
        tracker = ReorderTracker()
        tb.hosts[dst].segment_tap = tracker.observe
        trackers.append(tracker)
    apps = [tb.add_elephant(0, 2), tb.add_elephant(1, 3)]
    tb.run(duration_ns)
    rates = [a.delivered_bytes() * 8 * SEC / duration_ns for a in apps]
    senders = [tb.hosts[i].senders[a.flow_id] for i, a in enumerate(apps)]
    return GroMicroResult(
        gro=gro,
        throughput_bps=mean(rates),
        cpu_utilization=max(
            tb.hosts[dst].cpu.utilization(0, duration_ns) for dst in (2, 3)
        ),
        ooo_counts=[c for t in trackers for c in t.out_of_order_counts()],
        segment_sizes=[s for t in trackers for s in t.segment_sizes()],
        retx_bytes=sum(s.bytes_retx for s in senders),
        fast_retransmits=sum(s.fast_retransmits for s in senders),
    )


def _fig5_table(results):
    return (["gro", "tput", "cpu", "frac OoO=0", "avg seg", "p50 seg",
             "spurious FR"],
            [[gro, f"{res.throughput_bps / 1e9:.2f} Gbps",
              f"{res.cpu_utilization:.0%}", f"{res.frac_zero_ooo:.2f}",
              f"{mean(res.segment_sizes) / 1024:.1f}K",
              f"{percentile(res.segment_sizes or [0], 50) / 1024:.1f}K",
              res.fast_retransmits]
             for gro, res in results.items()])


#: keyed gro flavour -> GroMicroResult
GRO_MICRO = Sweep(
    name="gro_micro",
    description="Fig 5: Presto GRO vs official GRO under flowcell "
                "spraying over two paths (reordering, segment sizes, "
                "throughput, CPU)",
    params=(DURATION, SEED),
    axes=(lambda p: GROS,),
    # every parameter is run_fig5's keyword
    cell=lambda gro, p: JobSpec.make(
        run_fig5, label=f"gro_micro/{gro}", gro=gro, **p),
    reduce=lambda cells, p: {gro: res for (gro,), (res,) in cells},
    table=_fig5_table,
)
run_figure5 = GRO_MICRO.run


@dataclass
class CpuOverheadResult:
    series: Dict[str, List[Tuple[int, float]]]  # label -> (t, util)
    mean_util: Dict[str, float]

    @property
    def overhead(self) -> float:
        """Presto-GRO mean utilization minus official baseline (paper: ~6%)."""
        return self.mean_util["presto"] - self.mean_util["official"]


def run_fig6(gro: str, duration_ns: int = msec(40), sample_ns: int = msec(2),
             seed: int = 0) -> CpuOverheadResult:
    """One curve of Fig 6: receive-core utilization under the stride
    workload.  The official baseline runs on the non-blocking switch
    (no reordering), as in the paper."""
    scheme = "presto" if gro == "presto" else "optimal"
    tb = Testbed(TestbedConfig(scheme=scheme, gro_override=gro, seed=seed))
    n = len(tb.hosts)
    for src, dst in stride_pairs(n, 8):
        tb.add_elephant(src, dst)
    tb.run(duration_ns)
    # all 16 hosts receive one stride flow; report the mean receiver
    utils = [h.cpu.utilization(0, duration_ns) for h in tb.hosts]
    busiest = max(range(n), key=lambda i: utils[i])
    return CpuOverheadResult(
        series={gro: tb.hosts[busiest].cpu.utilization_series(sample_ns)},
        mean_util={gro: mean(utils)})


def _fig6_reduce(cells, p) -> CpuOverheadResult:
    merged = CpuOverheadResult(series={}, mean_util={})
    for _, (curve,) in cells:
        merged.series.update(curve.series)
        merged.mean_util.update(curve.mean_util)
    return merged


def _fig6_table(result):
    rows = [[gro, f"{util:.1%}"] for gro, util in sorted(result.mean_util.items())]
    return (["gro", "mean receive-core util"],
            rows + [["overhead", f"{result.overhead:+.1%}"]])


CPU_OVERHEAD = Sweep(
    name="cpu_overhead",
    description="Fig 6: receiver CPU overhead of Presto GRO (stride on "
                "the Clos) vs official GRO (stride, non-blocking switch)",
    params=(DURATION,
            Param("sample_ns", msec(2), "--sample-ms", "ms",
                  "utilization sampling window, ms (default: 2)"),
            SEED),
    axes=(lambda p: GROS,),
    cell=lambda gro, p: JobSpec.make(
        run_fig6, label=f"cpu_overhead/{gro}", gro=gro, **p),
    reduce=_fig6_reduce,
    table=_fig6_table,
)
run_figure6 = CPU_OVERHEAD.run
