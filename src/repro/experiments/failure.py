"""Figs 17-18: link failure handling, as one continuous run.

The S1-L1 link dies *while traffic flows*.  A single simulation now
crosses all three of the paper's postures in sequence:

* **symmetry** — link up, plain Presto round-robin over 4 trees;
* **failover** — the link dies mid-run (a :class:`repro.faults`
  schedule); OpenFlow-style fast-failover buckets redirect
  tree-1-labelled flowcells through the next spine after the hardware
  detection latency.  The controller has not reacted yet, so load is
  imbalanced and traffic toward L1 that reaches S1 is blackholed;
* **weighted** — the modeled control plane
  (:class:`repro.faults.controlplane.ControlPlane`) learns of the
  failure ``detection + reaction`` later — an in-sim event, not a
  manual call — prunes/reweights the tree schedules at every vSwitch,
  and balance returns.

:func:`run_failure_timeline` is the unit of work: one (workload, seed)
run returning per-phase throughput plus the windowed throughput
trajectory and convergence metrics.  The :data:`FAILURE` sweep runs it
per workload x seed; Fig 17's bars are :func:`stage_tput_bps` of each
workload's timelines, Fig 18's curves :func:`stage_rtts_ns` of
``workloads=("bijection",), with_probes=True``::

    python -m repro.runner run failure --workloads 'L1->L4' --seeds 1

Workloads: L1->L4 (each L1 host sends to an L4 host), L4->L1, stride(8)
and random bijection; Fig 18 is the RTT distribution under bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    DEFAULT_MEASURE_NS,
    DEFAULT_WARM_NS,
    MEASURE,
    START_JITTER_NS,
    WARM,
    each_in,
    fidelity_param,
    pct_ms,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.faults.metrics import (
    ConvergenceReport,
    ThroughputTimeline,
    convergence_report,
)
from repro.faults.schedule import FaultSchedule, LinkDown
from repro.metrics.collectors import Window
from repro.metrics.stats import mean
from repro.runner import JobSpec, ref_of
from repro.runner.sweep import Param, Sweep, seeds_param
from repro.sim.rand import RandomStreams
from repro.workloads.synthetic import random_bijection_pairs, stride_pairs

STAGES = ("symmetry", "failover", "weighted")
FAILURE_WORKLOADS = ("L1->L4", "L4->L1", "stride", "bijection")
FAILED_LINK = "L1--S1"

#: settle time between a transition and its measurement window: lets
#: hardware failover engage and TCP recover before we call a phase
#: "steady" (the excluded gap is still visible in the timeline samples)
PHASE_GUARD_NS_MAX = 3_000_000  # 3 ms


@dataclass
class PhaseStats:
    """One posture's window within a continuous failure run."""

    name: str
    start_ns: int
    end_ns: int
    #: mean per-flow goodput inside the window (Fig 17's quantity)
    mean_flow_tput_bps: float
    rtts_ns: List[int] = field(default_factory=list)


@dataclass
class FailureTimeline:
    """Everything one continuous (workload, seed) failure run produced."""

    workload: str
    seed: int
    fault_ns: int
    reaction_ns: Optional[int]
    phases: Dict[str, PhaseStats]
    #: (window_end_ns, aggregate_goodput_bps) trajectory across the run
    trajectory: List[Tuple[int, float]]
    convergence: ConvergenceReport
    blackholed_bytes: Dict[str, int] = field(default_factory=dict)


def _workload_pairs(workload: str, seed: int) -> List[Tuple[int, int]]:
    if workload == "L1->L4":
        return [(i, 12 + i) for i in range(4)]
    if workload == "L4->L1":
        return [(12 + i, i) for i in range(4)]
    if workload == "stride":
        return stride_pairs(16, 8)
    if workload == "bijection":
        rng = RandomStreams(seed).stream("failure-bijection")
        return random_bijection_pairs(16, 4, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _phase_guard_ns(cfg: TestbedConfig, measure_ns: int) -> int:
    """Settle gap after a transition, clamped so even short measurement
    windows keep a non-empty steady-state slice."""
    guard = min(PHASE_GUARD_NS_MAX, measure_ns // 3)
    return min(guard, max(0, (measure_ns - cfg.failover_latency_ns) // 2))


def run_failure_timeline(
    workload: str,
    seed: int = 1,
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    with_probes: bool = False,
    cfg: Optional[TestbedConfig] = None,
) -> FailureTimeline:
    """One continuous symmetry -> failover -> weighted run.

    Layout (all phases ``measure_ns`` long)::

        0 ........ warm | symmetry | failover ........ | weighted |
                        ^fault scheduled here          ^controller reacts

    The fault hits at ``warm_ns + measure_ns``; the control plane's
    detection+reaction delays are set so its push lands exactly one
    measurement window later, and the run ends one window after that.
    """
    pairs = _workload_pairs(workload, seed)
    t_fault = warm_ns + measure_ns
    t_react = t_fault + measure_ns
    if cfg is None:
        cfg = TestbedConfig(scheme="presto", seed=seed)
    reaction_ns = min(cfg.ctrl_reaction_delay_ns, measure_ns // 3)
    cfg = replace(
        cfg,
        ctrl_detection_delay_ns=measure_ns - reaction_ns,
        ctrl_reaction_delay_ns=reaction_ns,
    )
    guard = _phase_guard_ns(cfg, measure_ns)
    t_end = t_react + guard + measure_ns

    tb = Testbed(cfg)
    tb.controller.enable_fast_failover(cfg.failover_latency_ns)
    control = tb.enable_control_plane()
    FaultSchedule.of(LinkDown(t_fault, FAILED_LINK)).arm(tb.sim, tb.topo)

    rng = tb.streams.stream("starts")
    timeline = ThroughputTimeline(
        tb.sim, window_ns=max(1, measure_ns // 6), stop_ns=t_end)
    apps = []
    for src, dst in pairs:
        app = tb.add_elephant(src, dst, start_ns=rng.randrange(START_JITTER_NS))
        apps.append(app)
        timeline.track(app)
    probes = []
    if with_probes:
        probes = [tb.add_probe(pairs[0][0], pairs[0][1], start_ns=warm_ns // 2),
                  tb.add_probe(pairs[2][0], pairs[2][1], start_ns=warm_ns // 2)]
    whole_run = Window(tb)

    windows = {
        "symmetry": (warm_ns, t_fault),
        "failover": (t_fault + cfg.failover_latency_ns + guard, t_react),
        "weighted": (t_react + guard, t_end),
    }
    phases: Dict[str, PhaseStats] = {}
    for name in STAGES:
        start, end = windows[name]
        tb.run(start)
        window = Window(tb, apps + probes)
        tb.run(end)
        window.close()
        phases[name] = PhaseStats(
            name=name,
            start_ns=start,
            end_ns=end,
            mean_flow_tput_bps=mean([window.rate_bps(app) for app in apps]),
            rtts_ns=[r for p in probes for r in window.since(p.rtts_ns)],
        )
    blackholed = whole_run.close().blackholed()  # "weighted" ends the run

    # recovery targets are each phase's own steady aggregate: after a
    # prune the network can never see the 4-tree baseline again
    n_flows = max(1, len(apps))
    report = convergence_report(
        timeline,
        fault_ns=t_fault,
        reaction_ns=control.last_reaction_ns(),
        blackholed=blackholed,
        baseline_window_ns=measure_ns,
        failover_target_bps=phases["failover"].mean_flow_tput_bps * n_flows,
        rebalance_target_bps=phases["weighted"].mean_flow_tput_bps * n_flows,
    )
    return FailureTimeline(
        workload=workload,
        seed=seed,
        fault_ns=t_fault,
        reaction_ns=control.last_reaction_ns(),
        phases=phases,
        trajectory=timeline.rates_bps(),
        convergence=report,
        blackholed_bytes=blackholed,
    )


# --- Figs 17/18: the sweep, and per-stage views over its timelines ----------


def failure_spec(workload: str, seed: int, warm_ns: int, measure_ns: int,
                 fidelity: Optional[str] = None, with_probes: bool = False,
                 label: str = "") -> JobSpec:
    """One :func:`run_failure_timeline` job, for the ``failure`` sweep
    and the ``failover`` oracle alike (equal cells share a store
    record).  Defaults stay out of the kwargs — ``cfg`` compared after
    ``TestbedConfig`` normalized it, so ``fidelity="packet"`` is one —
    and historic cells keep their hashes.  ``cfg`` rides in kwargs: the
    JobSpec ``cfg`` slot is the first positional (``workload`` here)."""
    kwargs: Dict[str, Any] = dict(
        workload=workload, seed=seed, warm_ns=warm_ns, measure_ns=measure_ns)
    if with_probes:
        kwargs["with_probes"] = True
    cfg = TestbedConfig(scheme="presto", seed=seed, fidelity=fidelity)
    if cfg != TestbedConfig(scheme="presto", seed=seed):
        kwargs["cfg"] = cfg
    return JobSpec(fn=ref_of(run_failure_timeline), kwargs=kwargs, label=label)


def stage_tput_bps(timelines: Sequence[FailureTimeline], stage: str) -> float:
    """One Fig 17 bar: mean per-flow goodput in ``stage``, over seeds."""
    return mean([tl.phases[stage].mean_flow_tput_bps for tl in timelines])


def stage_rtts_ns(timelines: Sequence[FailureTimeline], stage: str) -> List[int]:
    """One Fig 18 curve: the probes' RTT samples inside ``stage``."""
    return [r for tl in timelines for r in tl.phases[stage].rtts_ns]


def _cell(workload: str, seed: int, p: Dict[str, Any]) -> JobSpec:
    return failure_spec(
        workload, seed, p["warm_ns"], p["measure_ns"], p["fidelity"],
        p["with_probes"], label=f"failure/{workload}/seed{seed}")


def _table(grid):
    rows = []
    for workload, timelines in grid.items():
        rebalance = [tl.convergence.time_to_rebalance_ns for tl in timelines
                     if tl.convergence.time_to_rebalance_ns is not None]
        blackholed = mean([tl.blackholed_bytes.get("total", 0)
                           for tl in timelines])
        rows.append([
            workload,
            *(f"{stage_tput_bps(timelines, stage) / 1e9:.2f}"
              for stage in STAGES),
            f"{mean(rebalance) / 1e6:.1f}" if rebalance else "nan",
            f"{blackholed / 1024:.0f}",
            "/".join(pct_ms(stage_rtts_ns(timelines, stage), 99)
                     for stage in STAGES),
        ])
    return ["workload", "symmetry Gbps", "failover Gbps", "weighted Gbps",
            "rebalance ms", "blackholed KB", "rtt p99 ms sym/fo/wt"], rows


#: keyed workload -> its per-seed FailureTimelines (one continuous run
#: each: the fault and the controller's reweight happen mid-simulation)
FAILURE = Sweep(
    name="failure",
    description="Figs 17-18: symmetry -> failover -> weighted as one "
                "continuous run per workload x seed (S1-L1 dies "
                "mid-run); --with-probes adds Fig 18's RTT samples",
    params=(
        Param("workloads", FAILURE_WORKLOADS, "--workloads", "strs",
              "comma-separated workload subset (default: "
              f"{','.join(FAILURE_WORKLOADS)})",
              coerce=each_in(FAILURE_WORKLOADS, "workload")),
        seeds_param((1, 2)),
        WARM,
        MEASURE,
        Param("with_probes", False, "--with-probes", "flag",
              "add two RTT probes (Fig 18; needs >= 3 flows)"),
        fidelity_param(),
    ),
    axes=("workloads",),
    cell=_cell,
    reduce=lambda cells, p: {workload: timelines
                             for (workload,), timelines in cells},
    table=_table,
)
