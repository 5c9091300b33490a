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

from repro.experiments.gro_micro import run_fig5
from repro.metrics.stats import percentile
from repro.units import msec


def run(gro: str) -> None:
    # Fig 4b topology: 2 leaves, 2 spines, 2 hosts per leaf, receive
    # window pinned to 1 MB (see EXPERIMENTS.md, Fig 5).
    cell = run_fig5(gro, duration_ns=msec(30))

    print(f"--- {gro} GRO ---")
    print(f"  throughput          {cell.throughput_bps / 1e9:5.2f} Gbps per flow")
    print(f"  receive-core usage  {cell.cpu_utilization:5.0%}")
    print(f"  flowcells w/o reordering exposed to TCP: {cell.frac_zero_ooo:.0%}")
    print(f"  median segment pushed to TCP: "
          f"{percentile(cell.segment_sizes, 50) / 1024:.1f} KB")
    print(f"  spurious fast retransmits: {cell.fast_retransmits}")
    print()


def main() -> None:
    print(__doc__)
    for gro in ("official", "presto"):
        run(gro)


if __name__ == "__main__":
    main()
