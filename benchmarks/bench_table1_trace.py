"""Table 1: trace-driven workload — mice FCT percentiles vs ECMP.

Paper shape: Presto ~= ECMP at the median but cuts p99 by ~56% and
p99.9 by ~60%; Optimal cuts slightly more; Presto's elephant throughput
tracks Optimal (within 2%) and beats ECMP by >10%.
"""

from benchlib import save_result

from repro.experiments.common import mice_vs_ecmp
from repro.experiments.harness import format_table
from repro.experiments.trace import TRACE
from repro.units import msec


def test_table1_trace(benchmark):
    results = benchmark.pedantic(
        TRACE.run,
        kwargs=dict(seeds=(1, 2), duration_ns=msec(100)),
        rounds=1,
        iterations=1,
    )
    normalized = mice_vs_ecmp(results)
    save_result("table1_trace", format_table(*TRACE.table(results)))
    # Paper shape: Presto's mice FCT tail clearly below ECMP's.  (The
    # simulator shows -17..-30% at p90-p99.9 vs the paper's -32..-60%;
    # receiver-port sharing, identical across schemes, makes up a larger
    # share of our tail — see EXPERIMENTS.md.)
    assert normalized["presto"]["p90"] < -0.1
    assert normalized["presto"]["p99"] < -0.1
    # Optimal also clearly better than ECMP at the tail.
    assert normalized["optimal"]["p99"] < 0.0
    # Elephants: Presto above ECMP.
    assert (
        results["presto"].mean_elephant_tput_bps
        > results["ecmp"].mean_elephant_tput_bps
    )
