"""Fig 1: stacked histogram of flowlet sizes vs competing flow count.

Paper shape: with up to ~3 competing flows, more than half of a large
transfer rides in a single flowlet (500 us inactivity timer), so
flowlet switching degenerates toward per-flow placement.
"""

from benchlib import save_result

from repro.experiments.flowlet_sizes import FLOWLET_SIZES
from repro.experiments.harness import format_table
from repro.units import MB, msec, usec


def test_fig1_flowlet_sizes(benchmark):
    results = benchmark.pedantic(
        FLOWLET_SIZES.run,
        kwargs=dict(
            max_competing=8,
            transfer_bytes=16 * MB,
            gap_ns=usec(500),
            duration_ns=msec(60),
        ),
        rounds=1,
        iterations=1,
    )
    save_result("fig01_flowlet_sizes",
                format_table(*FLOWLET_SIZES.table(results)))
    # Paper: up to 3 competing flows, >50% of the transfer in one flowlet.
    for n in (0, 1, 2, 3):
        assert results[n].head_fraction() > 0.5, (
            f"{n} competitors: head flowlet only "
            f"{results[n].head_fraction():.0%} of transfer"
        )
    # And flowlet sizes are wildly non-uniform: top flowlet dwarfs the 10th.
    sizes = results[2].top(10)
    assert sizes[0] > 10 * sizes[-1] or len(sizes) < 10
