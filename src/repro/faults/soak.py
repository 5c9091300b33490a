"""Chaos soak: random fault schedules x seeds, invariants after each.

One *case* = a testbed config + a random self-restoring fault schedule
+ a handful of bounded cross-leaf elephants + a generous deadline.  The
case runs with hardware fast failover and the modeled control plane
both live, then :func:`repro.validate.invariants.check_invariants`
decides pass/fail.  Cases are plain frozen dataclasses, so they ride
through :mod:`repro.runner` (content-hashed caching, process pool,
resume) like any experiment job; the soak itself is the :data:`SOAK`
sweep over case indices — ``python -m repro.runner run soak --cases 20
--seed 0 --jobs 4`` exits 1 if any case violates an invariant, and a
case whose job crashes shows as a ``JOB-FAILED`` row, not a traceback.

Random switch outages draw from the aggregation layers only (spines on
a 2-tier Clos; aggs and cores on a fat-tree): a dead leaf/edge switch
partitions its own hosts outright (nothing in the paper's design can
route around the only edge switch), so those outages are for targeted
tests, not background chaos.

``--topology`` picks any :class:`~repro.net.fabrics.TopologySpec`
fabric — the default remains the paper's 16-host Clos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import START_JITTER_NS, topology_param
from repro.experiments.harness import Testbed, TestbedConfig
from repro.faults.schedule import FaultSchedule, random_schedule
from repro.metrics.collectors import Window
from repro.net.fabrics import fabric_link_names, wiring
from repro.runner.jobspec import JobSpec
from repro.runner.sweep import Param, Sweep
from repro.sim.rand import RandomStreams
from repro.units import KB, MB, msec
from repro.validate.invariants import check_invariants

#: window the random faults land in (all restored before it ends)
DEFAULT_FAULT_WINDOW_NS = msec(40)
#: hard horizon: flows + control plane must be done and quiet by then
DEFAULT_DEADLINE_NS = msec(500)
#: sized so flows are still in flight when the faults land (a 2 MB
#: flow sharing a 10 Gbps fabric runs for several ms; faults start at
#: ~1/20 of the fault window)
DEFAULT_SIZES = (2 * MB, 4 * MB, 8 * MB)


@dataclass(frozen=True)
class SoakCase:
    """Everything one chaos run needs, serializable and hashable."""

    cfg: TestbedConfig
    schedule: FaultSchedule
    pairs: Tuple[Tuple[int, int], ...]
    size_bytes: int
    deadline_ns: int = DEFAULT_DEADLINE_NS


@dataclass
class SoakResult:
    """One case's verdict plus the evidence behind it."""

    ok: bool
    violations: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    blackholed_bytes: Dict[str, int] = field(default_factory=dict)
    faults_applied: int = 0
    reactions: int = 0
    end_ns: int = 0


def _fabric_names(cfg: TestbedConfig):
    """Fabric link names + killable-switch->links map for ``cfg``'s
    fabric, without building it.  The edge switches (tier 0) are
    excluded from outage targets: a dead edge switch partitions its
    own hosts outright."""
    spec = cfg.topology_spec()
    links, by_switch = fabric_link_names(spec)
    edges = set(wiring(spec).tiers[0])
    switch_links = {name: sw_links for name, sw_links in by_switch.items()
                    if name not in edges}
    return links, switch_links


def random_case(
    base_seed: int,
    index: int,
    fault_window_ns: int = DEFAULT_FAULT_WINDOW_NS,
    deadline_ns: int = DEFAULT_DEADLINE_NS,
    max_faults: int = 2,
    topology: Optional[str] = None,
) -> SoakCase:
    """Deterministically derive case ``index`` of a soak at ``base_seed``."""
    rng = RandomStreams(base_seed).stream(f"soak-case-{index}")
    cfg = TestbedConfig(scheme="presto", seed=rng.randrange(1, 2**31),
                        topology=topology)
    links, switch_links = _fabric_names(cfg)
    schedule = random_schedule(
        rng, links,
        window_ns=fault_window_ns,
        switches=switch_links,
        max_faults=max_faults,
    )
    spec = cfg.topology_spec()
    n_hosts = spec.n_hosts()
    n_pairs = rng.randint(2, 4)
    srcs = rng.sample(range(n_hosts), n_pairs)
    pairs: List[Tuple[int, int]] = []
    used_dst = set(srcs)
    for src in srcs:
        choices = [
            h for h in range(n_hosts)
            if spec.edge_of(h) != spec.edge_of(src)
            and h not in used_dst
        ]
        dst = rng.choice(choices)
        used_dst.add(dst)
        pairs.append((src, dst))
    return SoakCase(
        cfg=cfg,
        schedule=schedule,
        pairs=tuple(pairs),
        size_bytes=rng.choice(DEFAULT_SIZES),
        deadline_ns=deadline_ns,
    )


def run_soak_case(case: SoakCase) -> SoakResult:
    """Run one chaos case end to end and check every invariant."""
    tb = Testbed(case.cfg)
    tb.controller.enable_fast_failover(case.cfg.failover_latency_ns)
    control = tb.enable_control_plane()
    armed = case.schedule.arm(tb.sim, tb.topo)
    rng = tb.streams.stream("soak-starts")
    apps = []
    for src, dst in case.pairs:
        apps.append(tb.add_elephant(
            src, dst, size_bytes=case.size_bytes,
            start_ns=rng.randrange(START_JITTER_NS)))
    whole_run = Window(tb)
    tb.run(case.deadline_ns)
    report = check_invariants(tb, apps)
    if not control.settled():
        report.violations.append(
            "control plane still had pending reactions at the deadline")
    return SoakResult(
        ok=report.ok and control.settled(),
        violations=report.violations,
        stats=report.stats,
        blackholed_bytes=whole_run.close().blackholed(),
        faults_applied=len(armed.applied),
        reactions=len(control.reactions),
        end_ns=tb.sim.now,
    )


@dataclass
class SoakReport:
    """A whole soak: per-case outcomes, ready for a summary table."""

    base_seed: int
    cases: List[SoakCase]
    results: List[Optional[SoakResult]]  # None: the job itself failed
    errors: List[Optional[str]]

    @property
    def ok(self) -> bool:
        return all(r is not None and r.ok for r in self.results)

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for i, (case, result, error) in enumerate(
                zip(self.cases, self.results, self.errors)):
            kinds = ",".join(type(e).__name__ for e in case.schedule.events)
            if result is None:
                out.append([i, kinds, "JOB-FAILED", "-", "-", "-",
                            (error or "")[:60]])
                continue
            out.append([
                i,
                kinds,
                "ok" if result.ok else "FAIL",
                f"{result.stats.get('flows_total', 0) - result.stats.get('flows_stuck', 0)}"
                f"/{result.stats.get('flows_total', 0)}",
                result.faults_applied,
                result.reactions,
                "; ".join(result.violations)[:60],
            ])
        return out


def _cell(index: int, p: Dict[str, Any]) -> JobSpec:
    case = random_case(
        p["base_seed"], index, fault_window_ns=p["fault_window_ns"],
        deadline_ns=p["deadline_ns"], max_faults=p["max_faults"],
        topology=p["topology"])
    return JobSpec.make(run_soak_case, cfg=case,
                        label=f"faults/soak/s{p['base_seed']}/c{index}")


def _reduce(cells, p: Dict[str, Any]) -> SoakReport:
    outcomes = [outcome for _, (outcome,) in cells]
    return SoakReport(
        base_seed=p["base_seed"],
        cases=[o.spec.cfg for o in outcomes],
        results=[o.result if o.ok else None for o in outcomes],
        errors=[None if o.ok else o.error for o in outcomes])


#: one cell per case index; every per-case seed derives from ``base_seed``
SOAK = Sweep(
    name="soak",
    description="chaos soak: random self-restoring fault schedules on "
                "live traffic, whole-system invariants checked after "
                "each case",
    params=(
        Param("n_cases", 20, "--cases", "int",
              "number of random (schedule, seed) cases (default: 20)"),
        Param("base_seed", 0, "--seed", "int",
              "base seed all cases derive from (default: 0)"),
        Param("fault_window_ns", DEFAULT_FAULT_WINDOW_NS, "--window-ms", "ms",
              "fault window, all faults restored inside it (default: 40)"),
        Param("deadline_ns", DEFAULT_DEADLINE_NS, "--deadline-ms", "ms",
              "horizon by which flows + control plane must be done and "
              "the sim quiesced (default: 500)"),
        Param("max_faults", 2, "--max-faults", "int",
              "max composite faults per schedule (default: 2)"),
        topology_param("fabric under chaos, e.g. 'fat-tree:k=4' (default: "
                       "the paper's 16-host Clos)"),
    ),
    axes=(lambda p: range(p["n_cases"]),),
    cell=_cell,
    reduce=_reduce,
    contain_failures=True,
    table=lambda report: (
        ["case", "schedule", "verdict", "flows", "faults", "reactions",
         "violations"], report.rows()),
    ok=lambda report: report.ok,
)
# benchmarks/ledger/ imports this alias; nothing else may.
run_soak = SOAK.run
