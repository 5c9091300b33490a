"""Fig 1: flowlet-size analysis.

A 1 GB-class transfer shares a single switch with 0-8 competing flows
to the same receiver; the sender's outgoing segment stream is sliced
into flowlets by an inactivity timer (500 us by default, 100 us as the
paper's secondary analysis) and the top-10 flowlet sizes per competing
count reproduce the stacked histogram: with few competitors most of the
transfer is ONE giant flowlet, so flowlet switching degenerates to
per-flow placement.

One bar is one :func:`run_flowlet_sizes` job; the figure is the
:data:`FLOWLET_SIZES` sweep over 0..``max_competing`` competitors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.experiments.harness import Testbed, TestbedConfig
from repro.net.fabrics import TopologySpec
from repro.runner.jobspec import JobSpec, cell
from repro.runner.sweep import Param, Sweep
from repro.units import MB, msec, usec


@dataclass
class FlowletSizeResult:
    competing_flows: int
    transfer_bytes: int
    flowlet_sizes: List[int]  # descending

    def top(self, n: int = 10) -> List[int]:
        return self.flowlet_sizes[:n]

    def head_fraction(self) -> float:
        """Fraction of the transfer carried by the single largest flowlet."""
        if not self.flowlet_sizes:
            return 0.0
        return self.flowlet_sizes[0] / max(1, sum(self.flowlet_sizes))


def slice_flowlets(events: List[Tuple[int, int]], gap_ns: int) -> List[int]:
    """Split a (time, bytes) emission stream into flowlet byte counts."""
    sizes: List[int] = []
    last_t = None
    for t, nbytes in events:
        if last_t is None or t - last_t > gap_ns:
            sizes.append(nbytes)
        else:
            sizes[-1] += nbytes
        last_t = t
    return sizes


@cell
def run_flowlet_sizes(
    competing: int,
    transfer_bytes: int = 64 * MB,
    gap_ns: int = usec(500),
    duration_ns: int = msec(120),
    seed: int = 0,
) -> FlowletSizeResult:
    """One bar of Fig 1 (paper: 1 GB scp; scaled default 64 MB)."""
    cfg = TestbedConfig(
        scheme="optimal",
        topology=TopologySpec.clos(4, 1, competing + 2),
        seed=seed)
    tb = Testbed(cfg)
    events: List[Tuple[int, int]] = []

    def tap(seg):
        if seg.kind == "data" and seg.flow_id == main_flow:
            events.append((tb.sim.now, seg.payload_len))

    main = tb.add_elephant(0, 1, size_bytes=transfer_bytes)
    main_flow = main.flow_id
    tb.hosts[0].tx_tap = tap
    for i in range(competing):
        tb.add_elephant(2 + i, 1)  # unbounded competitors to the receiver
    tb.run(duration_ns)
    sizes = sorted(slice_flowlets(events, gap_ns), reverse=True)
    return FlowletSizeResult(competing, transfer_bytes, sizes)


def _cell(competing: int, p: Dict[str, Any]) -> JobSpec:
    # every parameter but the axis bound is run_flowlet_sizes's keyword
    kwargs = {name: value for name, value in p.items()
              if name != "max_competing"}
    return JobSpec.make(run_flowlet_sizes, competing=competing,
                        label=f"flowlet_sizes/competing{competing}", **kwargs)


def _table(results):
    return (["competing", "head_frac", "top-10 flowlet sizes"],
            [[n, f"{res.head_fraction():.2f}",
              " ".join(f"{s / 1024:.0f}K" for s in res.top(10))]
             for n, res in sorted(results.items())])


#: keyed competing-flow count -> FlowletSizeResult
FLOWLET_SIZES = Sweep(
    name="flowlet_sizes",
    description="Fig 1: flowlet sizes of one large transfer vs 0..N "
                "competing flows to the same receiver",
    params=(
        Param("max_competing", 8, "--max-competing", "int",
              "sweep 0..N competing flows (default: 8)"),
        Param("transfer_bytes", 64 * MB, "--transfer-bytes", "int",
              "size of the measured transfer (default: 64 MB; paper: "
              "1 GB)"),
        Param("gap_ns", usec(500), "--gap-ms", "ms",
              "flowlet inactivity gap, ms (default: 0.5; the paper's "
              "secondary analysis: 0.1)"),
        Param("duration_ns", msec(120), "--duration-ms", "ms",
              "simulated run length, ms (default: 120)"),
        Param("seed", 0, "--seed", "int", "simulator seed (default: 0)"),
    ),
    axes=(lambda p: range(p["max_competing"] + 1),),
    cell=_cell,
    reduce=lambda cells, p: {n: res for (n,), (res,) in cells},
    table=_table,
)
