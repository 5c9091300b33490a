"""Fig 5a/5b + S5 text: Presto GRO vs official GRO under flowcell
spraying over two paths.

Paper shape: Presto GRO completely masks reordering (OoO segment count
CDF at 0) and pushes large segments at ~9.3 Gbps; official GRO leaks
heavy reordering, pushes small segments, and throughput collapses to
~4.6 Gbps (half) with worse CPU cost per byte.
"""

from benchlib import save_result

from repro.experiments.gro_micro import GRO_MICRO
from repro.experiments.harness import format_table
from repro.metrics.stats import mean
from repro.units import msec


def test_fig5_gro_reordering(benchmark):
    results = benchmark.pedantic(
        GRO_MICRO.run, kwargs=dict(duration_ns=msec(40)), rounds=1, iterations=1
    )
    save_result("fig05_gro_reordering",
                format_table(*GRO_MICRO.table(results)))
    presto, official = results["presto"], results["official"]
    # Fig 5a: Presto GRO masks reordering completely; official does not.
    assert presto.frac_zero_ooo >= 0.99
    assert official.frac_zero_ooo < 0.9
    # Fig 5b: Presto pushes much larger segments.
    assert mean(presto.segment_sizes) > 1.5 * mean(official.segment_sizes)
    # S5 text: ~2x throughput gap (9.3 vs 4.6 Gbps).
    assert presto.throughput_bps > 1.6 * official.throughput_bps
    # Reordering causes spurious fast retransmits only under official GRO.
    assert presto.fast_retransmits == 0
    assert official.fast_retransmits > 0
