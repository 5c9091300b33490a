#!/usr/bin/env python
"""The small-segment-flooding problem, live (paper S2.2 / Fig 5).

Two senders spray 64 KB flowcells over two network paths.  With the
stock Linux GRO the receiver cannot merge out-of-order packets: tiny
segments flood TCP, the CPU burns, duplicate ACKs trigger spurious fast
retransmits and throughput collapses.  Presto's GRO (Algorithm 2) keeps
per-flowcell segment lists and releases them in order — line rate, zero
reordering exposed.

Run:  python examples/gro_reordering_demo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.reordering import ReorderTracker
from repro.metrics.stats import mean, percentile
from repro.units import msec


def run(gro: str) -> None:
    from dataclasses import replace

    # Fig 4b topology: 2 leaves, 2 spines, 2 hosts per leaf.  The
    # receive window is pinned to 1 MB (testbed-autotuned scale): with
    # the harness's scaled-down windows the two-path queues are too
    # short/symmetric to reorder at all (see EXPERIMENTS.md, Fig 5).
    cfg = TestbedConfig(
        scheme="presto", n_spines=2, n_leaves=2, hosts_per_leaf=2,
        gro_override=gro, seed=0,
    )
    cfg = replace(cfg, tcp=replace(cfg.tcp, rcv_wnd=1024 * 1024))
    tb = Testbed(cfg)
    trackers = {}
    for dst in (2, 3):
        trackers[dst] = ReorderTracker()
        tb.hosts[dst].segment_tap = trackers[dst].observe

    apps = [tb.add_elephant(0, 2), tb.add_elephant(1, 3)]
    duration = msec(30)
    tb.run(duration)

    tput = mean([a.delivered_bytes() * 8 / (duration / 1e9) / 1e9 for a in apps])
    ooo = [c for t in trackers.values() for c in t.out_of_order_counts()]
    sizes = [s for t in trackers.values() for s in t.segment_sizes()]
    masked = sum(1 for c in ooo if c == 0) / max(1, len(ooo))
    spurious = sum(
        tb.hosts[i].senders[a.flow_id].fast_retransmits
        for i, a in enumerate(apps)
    )
    cpu = max(tb.hosts[d].cpu.utilization(0, duration) for d in (2, 3))

    print(f"--- {gro} GRO ---")
    print(f"  throughput          {tput:5.2f} Gbps per flow")
    print(f"  receive-core usage  {cpu:5.0%}")
    print(f"  flowcells w/o reordering exposed to TCP: {masked:.0%}")
    print(f"  median segment pushed to TCP: {percentile(sizes, 50) / 1024:.1f} KB")
    print(f"  spurious fast retransmits: {spurious}")
    print()


def main() -> None:
    print(__doc__)
    for gro in ("official", "presto"):
        run(gro)


if __name__ == "__main__":
    main()
