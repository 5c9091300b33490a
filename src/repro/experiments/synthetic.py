"""Figs 15-16: the synthetic workload suite on the 16-host Clos.

Fig 15: mean elephant throughput for shuffle / random / stride /
random-bijection under ECMP, MPTCP, Presto and Optimal.

Fig 16: mice (50 KB) flow completion time CDFs alongside the stride,
random-bijection and shuffle elephants.

The sweep's unit of work is one (scheme, workload, seed) simulation —
:func:`run_synthetic_seed` — submitted through the parallel runner; the
grid is the :data:`SYNTHETIC` declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import (
    DEFAULT_MEASURE_NS,
    DEFAULT_WARM_NS,
    MEASURE,
    PAPER_SCHEMES,
    WARM,
    each_in,
    fct_percentiles,
    fidelity_param,
    run_elephant_workload,
    schemes_param,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.collectors import Window
from repro.metrics.stats import mean
from repro.runner import JobSpec
from repro.runner.sweep import TELEMETRY, Param, Sweep, seeds_param
from repro.sim.rand import RandomStreams
from repro.telemetry import TelemetryConfig
from repro.units import KB, MB, msec
from repro.workloads.synthetic import (
    random_bijection_pairs,
    random_pairs,
    shuffle_workload,
    stride_pairs,
)

WORKLOADS = ("shuffle", "random", "stride", "bijection")


@dataclass
class SyntheticResult:
    scheme: str
    workload: str
    mean_elephant_tput_bps: float
    mice_fcts_ns: List[int] = field(default_factory=list)

    def mice_percentiles_ms(self) -> Dict[str, float]:
        return fct_percentiles(self.mice_fcts_ns)


@dataclass
class SyntheticSeedRun:
    """One (scheme, workload, seed) trial's raw samples."""

    scheme: str
    workload: str
    seed: int
    rates_bps: List[float] = field(default_factory=list)
    mice_fcts_ns: List[int] = field(default_factory=list)
    #: telemetry snapshot (omitted from serialized output when off)
    metrics: Optional[Dict] = field(
        default=None, metadata={"omit_if_none": True})


def _stride_for(n_hosts: int) -> int:
    """The paper's stride(8) on the 16-host testbed; scaled-down
    fabrics fall back to half the host count so the pattern still
    crosses racks."""
    return 8 if n_hosts > 8 else max(1, n_hosts // 2)


def _pairs_for(workload: str, n_hosts: int, hosts_per_pod: int, seed: int):
    rng = RandomStreams(seed).stream(f"workload-{workload}")
    if workload == "stride":
        return stride_pairs(n_hosts, _stride_for(n_hosts))
    if workload == "random":
        return random_pairs(n_hosts, hosts_per_pod, rng)
    if workload == "bijection":
        return random_bijection_pairs(n_hosts, hosts_per_pod, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _check_workload(workload: str) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")


def run_synthetic_seed(
    cfg: TestbedConfig,
    workload: str,
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    with_mice: bool = True,
    mice_interval_ns: int = msec(5),
    shuffle_transfer_bytes: int = 8 * MB,
    telemetry: Optional[TelemetryConfig] = None,
) -> SyntheticSeedRun:
    """One (scheme, workload, seed) trial — the picklable job unit."""
    _check_workload(workload)
    if workload == "shuffle":
        return _run_shuffle_seed(
            cfg, warm_ns, measure_ns, with_mice, mice_interval_ns,
            shuffle_transfer_bytes, telemetry=telemetry,
        )
    spec = cfg.topology_spec()
    pairs = _pairs_for(workload, spec.n_hosts(), spec.hosts_per_edge(),
                       cfg.seed)
    mice_pairs = pairs[::4] if with_mice else []
    run = run_elephant_workload(
        cfg, pairs, warm_ns, measure_ns,
        mice_pairs=mice_pairs, mice_interval_ns=mice_interval_ns,
        telemetry=telemetry,
    )
    return SyntheticSeedRun(
        scheme=cfg.scheme, workload=workload, seed=cfg.seed,
        rates_bps=list(run.per_pair_rates_bps),
        mice_fcts_ns=list(run.mice_fcts_ns),
        metrics=run.metrics,
    )


def _run_shuffle_seed(
    cfg: TestbedConfig,
    warm_ns: int,
    measure_ns: int,
    with_mice: bool,
    mice_interval_ns: int,
    transfer_bytes: int,
    telemetry: Optional[TelemetryConfig] = None,
) -> SyntheticSeedRun:
    """Shuffle is closed-loop (2 concurrent sized transfers per host), so
    it cannot reuse the open-loop elephant runner.  Throughput is the
    aggregate receive rate per host over the measurement window (the
    receiver NIC is the bottleneck, as the paper notes)."""
    tb = Testbed(cfg, telemetry=telemetry)
    rng = tb.streams.stream("shuffle")
    wl = shuffle_workload(tb, transfer_bytes, concurrent=2, rng=rng)
    wl.start()
    mice_apps = []
    if with_mice:
        n_hosts = cfg.topology_spec().n_hosts()
        for src, dst in stride_pairs(n_hosts, _stride_for(n_hosts))[::4]:
            mice_apps.append(
                tb.add_mice(src, dst, size_bytes=50 * KB,
                            interval_ns=mice_interval_ns,
                            start_ns=warm_ns // 2)
            )
    tb.run(warm_ns)
    window = Window(tb)
    tb.run(warm_ns + measure_ns)
    window.close()
    snapshot = tb.telemetry.snapshot() if tb.telemetry.enabled else None
    tb.telemetry.export_trace()
    return SyntheticSeedRun(
        scheme=cfg.scheme, workload="shuffle", seed=cfg.seed,
        rates_bps=list(window.host_rates_bps().values()),
        mice_fcts_ns=[f for m in mice_apps for f in m.fcts_ns],
        metrics=snapshot,
    )


def _cell(workload: str, scheme: str, seed: int, p: Dict[str, Any]) -> JobSpec:
    return JobSpec.make(
        run_synthetic_seed,
        cfg=TestbedConfig(scheme=scheme, seed=seed, fidelity=p["fidelity"]),
        label=f"synthetic/{workload}/{scheme}/seed{seed}",
        workload=workload,
        warm_ns=p["warm_ns"],
        measure_ns=p["measure_ns"],
        with_mice=p["with_mice"],
        mice_interval_ns=p["mice_interval_ns"],
    )


def _reduce(cells, p) -> Dict[Tuple[str, str], SyntheticResult]:
    return {
        (scheme, workload): SyntheticResult(
            scheme, workload,
            mean([r for run in runs for r in run.rates_bps]),
            [f for run in runs for f in run.mice_fcts_ns])
        for (workload, scheme), runs in cells
    }


def _table(grid):
    rows = []
    for (scheme, workload), res in grid.items():
        pct = res.mice_percentiles_ms()
        rows.append([
            scheme, workload,
            f"{res.mean_elephant_tput_bps / 1e9:.2f}",
            f"{pct['p50']:.2f}" if pct else "nan",
            f"{pct['p99']:.2f}" if pct else "nan",
        ])
    return ["scheme", "workload", "tput Gbps",
            "mice p50 ms", "mice p99 ms"], rows


#: grid order workload > scheme > seed; keyed (scheme, workload)
SYNTHETIC = Sweep(
    name="synthetic",
    description="Figs 15-16: shuffle/random/stride/bijection elephants "
                "+ mice FCTs on the 16-host Clos",
    params=(
        schemes_param(PAPER_SCHEMES),
        Param("workloads", WORKLOADS, coerce=each_in(WORKLOADS, "workload")),
        seeds_param((1, 2, 3)),
        WARM,
        MEASURE,
        Param("with_mice", True),
        Param("mice_interval_ns", msec(5)),
        TELEMETRY,
        fidelity_param(),
    ),
    axes=("workloads", "schemes"),
    cell=_cell,
    reduce=_reduce,
    table=_table,
)
synthetic_specs = SYNTHETIC.specs
run_figure15_16 = SYNTHETIC.run
