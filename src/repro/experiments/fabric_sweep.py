"""Datacenter-scale fabric sweep: trace + incast workloads on fat-trees.

The paper's testbed tops out at 16 hosts; this sweep is the scale-out
counterpart, driving published trace workloads (web-search / data-
mining flow-size mixes) and an incast fan-in pattern over k-ary
fat-tree and leaf-spine fabrics built from :class:`TopologySpec` —
16 hosts at k=4 up to 128 at k=8 — normally at flow fidelity, where a
128-host run is tractable.

The unit of work is one (topology, workload, scheme, seed) simulation,
:func:`run_fabric_cell`, submitted through the parallel runner like
every other sweep; the grid is the :data:`FABRIC` declaration (the
tournament reuses its parameters and cell builder).  FCT populations at this scale are too large to
keep as lists, so cells aggregate on the fly with the bounded-memory
collectors in :mod:`repro.metrics.streaming` and return summaries plus
a worst-FCT top-k.

``validate=True`` arms the spanning-tree oracle inside each cell:
:func:`repro.net.routing.validate_trees` checks every tree reaches
every host and that trunk links stay disjoint across trees before any
traffic is offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    each_in,
    fidelity_param,
    known_topology,
    schemes_param,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.streaming import StreamingQuantiles, TopK
from repro.net.fabrics import as_spec
from repro.net.routing import validate_trees
from repro.runner.jobspec import JobSpec, cell
from repro.runner.sweep import TELEMETRY, Param, Sweep, seeds_param
from repro.telemetry.core import TelemetryConfig
from repro.units import msec
from repro.workloads.tracedriven import (
    INCAST_FANIN,
    IncastWorkload,
    TraceWorkload,
    trace_profile,
)

DEFAULT_TOPOLOGIES = ("fat-tree:k=4", "fat-tree:k=8")
DEFAULT_WORKLOADS = ("websearch", "datamining", "incast")
DEFAULT_SCHEMES = ("ecmp", "presto")
DEFAULT_DURATION_NS = msec(30)

TRACE_WORKLOADS = ("websearch", "datamining", "kandula")
WORKLOADS = TRACE_WORKLOADS + ("incast",)


@dataclass
class FabricCellResult:
    """One (topology, workload, scheme, seed) cell's summaries."""

    scheme: str
    topology: str
    workload: str
    seed: int
    duration_ns: int
    flows_started: int
    flows_completed: int
    #: p50/p90/p99/p99.9 + count/mean/min/max of mice FCTs (ns);
    #: for incast, of request FCTs
    fct_summary: Dict[str, Optional[float]] = field(default_factory=dict)
    #: summary of elephant FCTs (ns); empty for incast
    elephant_summary: Dict[str, Optional[float]] = field(default_factory=dict)
    #: the k worst FCTs as (fct_ns, size_bytes) pairs, largest first
    worst_fcts: List[Tuple[float, Optional[int]]] = field(default_factory=list)
    #: True when the spanning-tree oracle ran (and passed) in this cell
    trees_validated: bool = False
    metrics: Optional[Dict] = field(
        default=None, metadata={"omit_if_none": True})


def fabric_config(
    topology: str,
    scheme: str,
    seed: int,
    fidelity: Optional[str] = "flow",
) -> TestbedConfig:
    """One cell's testbed config.  Flow fidelity is the default: a
    128-host fat-tree is far past what packet fidelity sustains."""
    return TestbedConfig(
        scheme=scheme, topology=topology, seed=seed, fidelity=fidelity,
    )


@cell
def run_fabric_cell(
    cfg: TestbedConfig,
    workload: str,
    duration_ns: int = DEFAULT_DURATION_NS,
    load_scale: float = 1.0,
    fanin: int = INCAST_FANIN,
    validate: bool = False,
    drain_ns: int = msec(5),
    telemetry: Optional[TelemetryConfig] = None,
) -> FabricCellResult:
    """One (topology, workload, scheme, seed) trial — the picklable
    job unit.  Offers ``duration_ns`` of load, then a ``drain_ns``
    grace window for in-flight transfers to finish."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown fabric workload {workload!r}; pick from {WORKLOADS}")
    tb = Testbed(cfg, telemetry=telemetry)
    trees_validated = False
    if validate:
        validate_trees(tb.topo, tb.controller.trees)
        trees_validated = True

    fcts = StreamingQuantiles()
    elephants = StreamingQuantiles()
    worst = TopK(16)
    rng = tb.streams.stream(f"fabric-{workload}")
    if workload == "incast":
        wl = IncastWorkload(
            tb, rng, fanin=fanin, stop_ns=duration_ns,
            sink=lambda fct: (fcts.add(fct), worst.add(fct, None)),
        )
    else:
        sizes, interarrivals = trace_profile(workload)
        wl = TraceWorkload(
            tb, rng, load_scale=load_scale,
            sizes=sizes, interarrivals=interarrivals,
            stop_ns=duration_ns,
            mice_sink=lambda fct: (fcts.add(fct), worst.add(fct, None)),
            elephant_sink=lambda size, fct: (
                elephants.add(fct), worst.add(fct, size)),
        )
    wl.start()
    tb.run(duration_ns + drain_ns)

    if workload == "incast":
        started, completed = wl.requests_started, wl.requests_completed
    else:
        started, completed = wl.flows_started, wl.flows_completed
    snapshot = tb.telemetry.snapshot() if tb.telemetry.enabled else None
    tb.telemetry.export_trace()
    return FabricCellResult(
        scheme=cfg.scheme,
        topology=cfg.topology_spec().cli(),
        workload=workload,
        seed=cfg.seed,
        duration_ns=duration_ns,
        flows_started=started,
        flows_completed=completed,
        fct_summary=fcts.summary(),
        elephant_summary=elephants.summary(),
        worst_fcts=worst.items(),
        trees_validated=trees_validated,
        metrics=snapshot,
    )


def fabric_grid_params(
    topologies: Sequence[str],
    schemes: Param,
    seeds: Tuple[int, ...],
    duration_ns: int,
) -> Tuple[Param, ...]:
    """The parameters of a topology x workload x scheme x seed grid of
    :func:`run_fabric_cell` jobs — shared with the tournament, which
    differs only in its defaults."""
    return (
        Param("topologies", tuple(topologies), "--topology", "each",
              "fabric spec, repeatable — e.g. 'fat-tree:k=8', "
              "'leaf-spine:pods=8,oversub=2', "
              f"'clos:spines=4,leaves=4,hosts=4' (default: "
              f"{' '.join(topologies)})",
              coerce=lambda specs: tuple(map(known_topology, specs))),
        Param("workloads", DEFAULT_WORKLOADS, "--workloads", "strs",
              f"comma-separated workloads out of {','.join(WORKLOADS)} "
              f"(default: {','.join(DEFAULT_WORKLOADS)})",
              coerce=each_in(WORKLOADS, "workload")),
        schemes,
        seeds_param(seeds),
        Param("duration_ns", duration_ns, "--duration-ms", "ms",
              "offered-load window per cell, simulated ms "
              f"(default: {duration_ns / 1e6:g})"),
        Param("load_scale", 1.0, "--load-scale", "float",
              "trace arrival-rate multiplier (default: 1.0)"),
        Param("validate", False, "--validate", "flag",
              "arm the spanning-tree oracle in every cell: trees must "
              "reach every host and stay link-disjoint"),
        TELEMETRY,
        # flow fidelity by default: a 128-host fat-tree is far past
        # what packet fidelity sustains
        fidelity_param("flow"),
    )


def fabric_cell_spec(
    sweep: str, topology: str, workload: str, scheme: str, seed: int,
    p: Dict[str, Any], **extra: Any,
) -> JobSpec:
    """One grid cell's job; ``extra`` kwargs join only when a sweep
    needs them, so default cells keep their hashes."""
    return JobSpec.make(
        run_fabric_cell,
        cfg=fabric_config(topology, scheme, seed, p["fidelity"]),
        label=f"{sweep}/{as_spec(topology).slug()}/{workload}/{scheme}"
              f"/seed{seed}",
        workload=workload,
        duration_ns=p["duration_ns"],
        load_scale=p["load_scale"],
        validate=p["validate"],
        **extra,
    )


def _cell(topology, workload, scheme, seed, p) -> JobSpec:
    return fabric_cell_spec("fabric", topology, workload, scheme, seed, p)


def _reduce(cells, p) -> Dict[Tuple[str, str, str], List[FabricCellResult]]:
    return {(as_spec(topology).cli(), workload, scheme): runs
            for (topology, workload, scheme), runs in cells}


def _table(grid):
    rows = []
    for (topology, workload, scheme), cells in grid.items():
        # report the worst seed's percentiles: tail metrics average badly
        tail = max(cells, key=lambda c: c.fct_summary.get("p99") or 0.0)

        def ms(key):
            v = tail.fct_summary.get(key)
            return f"{v / 1e6:.2f}" if v is not None else "nan"

        rows.append([topology, workload, scheme,
                     sum(c.flows_completed for c in cells),
                     ms("p50"), ms("p99"), ms("p99.9")])
    return ["topology", "workload", "scheme", "flows",
            "fct p50 ms", "fct p99 ms", "fct p99.9 ms"], rows


#: grid order topology > workload > scheme > seed; keyed (topology CLI
#: string, workload, scheme) -> the per-seed cell results
FABRIC = Sweep(
    name="fabric",
    description="Datacenter-scale: websearch/datamining traces + incast "
                "over fat-tree/leaf-spine fabrics (flow fidelity by "
                "default)",
    params=fabric_grid_params(
        DEFAULT_TOPOLOGIES, schemes_param(DEFAULT_SCHEMES),
        seeds=(1, 2), duration_ns=DEFAULT_DURATION_NS),
    axes=("topologies", "workloads", "schemes"),
    cell=_cell,
    reduce=_reduce,
    table=_table,
)
# benchmarks/ledger/ imports this alias; nothing else may.
run_fabric_sweep = FABRIC.run
