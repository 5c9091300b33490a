#!/usr/bin/env python
"""Mice flow completion time under elephant cross-traffic (Fig 16).

Latency-sensitive 50 KB "mice" RPCs share the fabric with stride
elephants.  Under ECMP, a mouse whose flow hashes onto a congested
path waits behind a deep queue (or a loss); under Presto, every flow
is spread over all paths so the tail collapses toward the non-blocking
optimum.

Run:  python examples/mice_latency_demo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.stats import percentile
from repro.units import msec, usec
from repro.workloads.synthetic import stride_pairs


def run_scheme(scheme: str):
    tb = Testbed(TestbedConfig(scheme=scheme, seed=5))
    rng = tb.streams.stream("starts")
    for src, dst in stride_pairs(16, 8):
        tb.add_elephant(src, dst, start_ns=rng.randrange(usec(500)))
    mice = [
        tb.add_mice(src, dst, interval_ns=msec(2), start_ns=msec(8))
        for src, dst in stride_pairs(16, 8)[::4]
    ]
    tb.run(msec(60))
    fcts = [f for m in mice for f in m.fcts_ns]
    return fcts


def main() -> None:
    print(__doc__)
    print(f"{'scheme':>8} {'n':>4} {'p50 ms':>8} {'p99 ms':>8} {'p99.9 ms':>9}")
    for scheme in ("ecmp", "presto", "optimal"):
        fcts = run_scheme(scheme)
        if not fcts:
            print(f"{scheme:>8}  (no mice completed)")
            continue
        print(
            f"{scheme:>8} {len(fcts):>4} "
            f"{percentile(fcts, 50) / 1e6:8.2f} "
            f"{percentile(fcts, 99) / 1e6:8.2f} "
            f"{percentile(fcts, 99.9) / 1e6:9.2f}"
        )


if __name__ == "__main__":
    main()
