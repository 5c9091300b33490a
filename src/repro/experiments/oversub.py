"""Figs 10-12: the oversubscription benchmark (Fig 4b topology).

Two spines, two leaves; the host-pair count sweeps 2..8 so the
leaf-to-spine fabric is 1x to 4x oversubscribed.  Reported per scheme:
mean elephant throughput (Fig 10), RTT samples (Fig 11), loss rate
(Fig 12a), fairness (Fig 12b).

Like the scalability sweep, the unit of work is one (scheme, pair
count, seed) simulation — :func:`run_oversub_seed` — and the grid is
the :data:`OVERSUB` declaration.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import (
    DEFAULT_MEASURE_NS,
    DEFAULT_WARM_NS,
    RunResult,
    elephant_grid_sweep,
    run_elephant_workload,
)
from repro.experiments.harness import TestbedConfig
from repro.runner.jobspec import cell
from repro.telemetry.core import TelemetryConfig


def oversub_config(
    scheme: str, n_pairs: int, seed: int,
    fidelity: Optional[str] = None,
) -> TestbedConfig:
    """The Fig 4b testbed for one sweep cell: 2 spines, n_pairs host
    pairs per leaf."""
    return TestbedConfig(
        scheme=scheme, n_spines=2, n_leaves=2, hosts_per_leaf=n_pairs,
        seed=seed, fidelity=fidelity,
    )


@cell
def run_oversub_seed(
    cfg: TestbedConfig,
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    with_probes: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunResult:
    """One (scheme, pair count, seed) trial — the picklable job unit."""
    n_pairs = cfg.hosts_per_leaf
    pairs = [(i, n_pairs + i) for i in range(n_pairs)]
    probe_pairs = [(0, n_pairs)] if with_probes else []
    return run_elephant_workload(
        cfg, pairs, warm_ns, measure_ns, probe_pairs=probe_pairs,
        telemetry=telemetry,
    )


#: grid order scheme > pair count > seed; keyed (scheme, pair count) -> Pooled
OVERSUB = elephant_grid_sweep(
    "oversub",
    "Figs 10-12: the same metrics as the fabric oversubscribes 1x-4x "
    "(2 spines, N host pairs)",
    points_name="pair_counts", point_word="pairs",
    cell_fn=run_oversub_seed, config_fn=oversub_config,
)
