"""Figs 7-9: the scalability benchmark (Fig 4a topology).

Path count (= spine count) sweeps 2..8 with one L1->L2 host pair per
path.  Per scheme we report mean elephant throughput (Fig 7), RTT
samples (Fig 8), loss rate (Fig 9a) and Jain fairness (Fig 9b).

The sweep's unit of work is one (scheme, path count, seed) simulation
— :func:`run_scalability_seed` — which the parallel runner
(:mod:`repro.runner`) executes across worker processes.  The grid
itself is the :data:`SCALABILITY` declaration: ``SCALABILITY.specs``
lists its cells and ``SCALABILITY.run`` runs them.
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


def scalability_config(
    scheme: str, n_paths: int, seed: int,
    fidelity: Optional[str] = None,
) -> TestbedConfig:
    """The Fig 4a testbed for one sweep cell: n_paths spines, one
    L1->L2 host pair per path.  ``fidelity="packet"`` normalizes to the
    None default inside TestbedConfig, so explicit-packet cells hash —
    and hit the ResultStore — exactly like historic ones."""
    return TestbedConfig(
        scheme=scheme, n_spines=n_paths, n_leaves=2, hosts_per_leaf=n_paths,
        seed=seed, fidelity=fidelity,
    )


@cell
def run_scalability_seed(
    cfg: TestbedConfig,
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    with_probes: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunResult:
    """One (scheme, path count, seed) trial — the picklable job unit."""
    n_paths = cfg.n_spines
    pairs = [(i, n_paths + i) for i in range(n_paths)]
    probe_pairs = [(0, n_paths)] if with_probes else []
    return run_elephant_workload(
        cfg, pairs, warm_ns, measure_ns, probe_pairs=probe_pairs,
        telemetry=telemetry,
    )


#: grid order scheme > path count > seed; keyed (scheme, path count) -> Pooled
SCALABILITY = elephant_grid_sweep(
    "scalability",
    "Figs 7-9: throughput/RTT/loss/fairness vs path count "
    "(2 leaves, N spines)",
    points_name="path_counts", point_word="paths",
    cell_fn=run_scalability_seed, config_fn=scalability_config,
)
