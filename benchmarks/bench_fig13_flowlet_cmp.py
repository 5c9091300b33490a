"""Fig 13: Presto vs flowlet switching (stride workload).

Paper shape: throughputs 9.3 (Presto) > 7.6 (flowlet 500 us) > 4.3
(flowlet 100 us) Gbps; Presto's RTT tail is 2-3.6x lower than either
flowlet configuration (100 us reorders heavily, 500 us collides on
giant head flowlets).
"""

from benchlib import save_result

from repro.experiments.flowlet_cmp import FLOWLET_CMP
from repro.experiments.harness import format_table
from repro.units import msec


def test_fig13_flowlet_cmp(benchmark):
    results = benchmark.pedantic(
        FLOWLET_CMP.run,
        kwargs=dict(seeds=(1, 2), warm_ns=msec(15), measure_ns=msec(25)),
        rounds=1,
        iterations=1,
    )
    save_result("fig13_flowlet_cmp",
                format_table(*FLOWLET_CMP.table(results)))
    presto = results["presto"]
    f100 = results["flowlet100us"]
    f500 = results["flowlet500us"]
    # Fig 13 ordering: presto > flowlet500 > flowlet100 on throughput.
    assert presto.mean_tput_bps > f500.mean_tput_bps > f100.mean_tput_bps
    # The 100us timer costs dearly (paper: 4.3 vs 9.3 Gbps).
    assert f100.mean_tput_bps < 0.75 * presto.mean_tput_bps
