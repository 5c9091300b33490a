#!/usr/bin/env python
"""Quickstart: Presto vs ECMP on the paper's 16-host Clos testbed.

Builds the Fig 3 topology, runs one stride(8) elephant per host under
each load-balancing scheme, and prints per-flow goodput plus Jain's
fairness — the essence of the paper's headline result (Presto tracks a
non-blocking switch; ECMP loses throughput to hash collisions).

Run:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Testbed, TestbedConfig
from repro.metrics.collectors import Window
from repro.metrics.stats import jain_fairness
from repro.units import msec, usec
from repro.workloads.synthetic import stride_pairs


def run_scheme(scheme: str, warm_ms: int = 15, measure_ms: int = 25) -> None:
    tb = Testbed(TestbedConfig(scheme=scheme, seed=42))
    rng = tb.streams.stream("starts")

    apps = [tb.add_elephant(src, dst, start_ns=rng.randrange(usec(500)))
            for src, dst in stride_pairs(n_hosts=16, stride=8)]

    tb.run(msec(warm_ms))                  # let windows converge
    window = Window(tb, apps)
    tb.run(msec(warm_ms + measure_ms))     # measurement window
    window.close()

    # rate_bps aggregates MPTCP subflows back per connection
    rates = [window.rate_bps(app) / 1e9 for app in apps]
    print(
        f"{scheme:>8}: mean {sum(rates) / len(rates):5.2f} Gbps/flow   "
        f"Jain fairness {jain_fairness(rates):.3f}   "
        f"loss {window.loss_rate():.4%}"
    )


def main() -> None:
    print("stride(8) elephants, 16 hosts, 4x4 leaf-spine Clos, 10 Gbps links")
    for scheme in ("ecmp", "mptcp", "presto", "optimal"):
        run_scheme(scheme)
    print("\n'optimal' = all 16 hosts on one non-blocking switch (upper bound).")
    print("Presto should track it within a few percent; ECMP should not.")


if __name__ == "__main__":
    main()
