"""Table 2: east-west mice FCT with north-south cross traffic.

Paper shape: ECMP < MPTCP < Presto < Optimal on elephant throughput
(5.7/7.4/8.2/8.9 Gbps); Presto cuts the mice FCT tail by ~86-87% vs
ECMP; MPTCP's tail is dominated by RTO timeouts.
"""

from benchlib import save_result

from repro.experiments.common import mice_vs_ecmp
from repro.experiments.harness import format_table
from repro.experiments.northsouth import NORTHSOUTH
from repro.units import msec


def test_table2_northsouth(benchmark):
    results = benchmark.pedantic(
        NORTHSOUTH.run,
        kwargs=dict(seeds=(1, 2), warm_ns=msec(15), measure_ns=msec(25)),
        rounds=1,
        iterations=1,
    )
    normalized = mice_vs_ecmp(results)
    save_result("table2_northsouth", format_table(*NORTHSOUTH.table(results)))
    # Throughput ordering (paper: 5.7 / 7.4 / 8.2 / 8.9).
    assert (
        results["presto"].mean_elephant_tput_bps
        > results["ecmp"].mean_elephant_tput_bps
    )
    assert (
        results["optimal"].mean_elephant_tput_bps
        >= 0.95 * results["presto"].mean_elephant_tput_bps
    )
    # Presto improves the mice tail over ECMP.
    assert normalized["presto"]["p99.9"] < -0.1
    # MPTCP mice hit RTOs more than Presto mice (the TIMEOUT row).
    assert (
        results["mptcp"].mice_timeout_fraction
        >= results["presto"].mice_timeout_fraction
    )
