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

:func:`run_failure_timeline` is the primitive: one (workload, seed)
run returning per-phase throughput plus the windowed throughput
trajectory and convergence metrics.  :func:`run_figure17` and
:func:`run_figure18` read the figures' bars and curves off its phase
windows.

Workloads: L1->L4 (each L1 host sends to an L4 host), L4->L1, stride(8)
and random bijection; Fig 18 is the RTT distribution under bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    DEFAULT_MEASURE_NS,
    DEFAULT_WARM_NS,
    START_JITTER_NS,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.faults.metrics import (
    BlackholeAccountant,
    ConvergenceReport,
    ThroughputTimeline,
    convergence_report,
)
from repro.faults.schedule import FaultSchedule, LinkDown
from repro.metrics.collectors import ThroughputMeter
from repro.metrics.stats import mean
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
class FailureResult:
    """One Fig 17 bar / Fig 18 curve."""

    stage: str
    workload: str
    mean_tput_bps: float
    rtts_ns: List[int] = field(default_factory=list)


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
    accountant = BlackholeAccountant(tb.topo, tb.hosts)

    windows = {
        "symmetry": (warm_ns, t_fault),
        "failover": (t_fault + cfg.failover_latency_ns + guard, t_react),
        "weighted": (t_react + guard, t_end),
    }
    phases: Dict[str, PhaseStats] = {}
    for name in STAGES:
        start, end = windows[name]
        tb.run(start)
        meter = ThroughputMeter()
        for app in apps:
            meter.track(app)
        meter.mark_start(tb.sim.now)
        rtt_marks = [len(p.rtts_ns) for p in probes]
        tb.run(end)
        meter.mark_end(tb.sim.now)
        rates = meter.flow_rates_bps()
        phases[name] = PhaseStats(
            name=name,
            start_ns=start,
            end_ns=end,
            mean_flow_tput_bps=mean(
                [meter.transfer_rate_bps(app, rates) for app in apps]),
            rtts_ns=[r for p, n in zip(probes, rtt_marks)
                     for r in p.rtts_ns[n:]],
        )
    tb.run(t_end)

    # recovery targets are each phase's own steady aggregate: after a
    # prune the network can never see the 4-tree baseline again
    n_flows = max(1, len(apps))
    report = convergence_report(
        timeline,
        fault_ns=t_fault,
        reaction_ns=control.last_reaction_ns(),
        accountant=accountant,
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
        blackholed_bytes=accountant.delta(),
    )


# --- Figs 17/18: per-stage views over the timeline --------------------------


def run_figure17(
    workloads: Sequence[str] = FAILURE_WORKLOADS,
    seeds: Sequence[int] = (1, 2),
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
) -> Dict[Tuple[str, str], FailureResult]:
    """All Fig 17 bars — one continuous run per (workload, seed), each
    stage's bar read from its phase window."""
    out: Dict[Tuple[str, str], FailureResult] = {}
    for workload in workloads:
        timelines = [
            run_failure_timeline(workload, seed, warm_ns=warm_ns,
                                 measure_ns=measure_ns)
            for seed in seeds
        ]
        for stage in STAGES:
            out[(stage, workload)] = FailureResult(
                stage, workload,
                mean([tl.phases[stage].mean_flow_tput_bps
                      for tl in timelines]),
            )
    return out


def run_figure18(
    seeds: Sequence[int] = (1, 2),
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
) -> Dict[str, FailureResult]:
    """RTT distributions per stage under random bijection."""
    out: Dict[str, FailureResult] = {}
    timelines = [
        run_failure_timeline("bijection", seed, warm_ns=warm_ns,
                             measure_ns=measure_ns, with_probes=True)
        for seed in seeds
    ]
    for stage in STAGES:
        out[stage] = FailureResult(
            stage, "bijection",
            mean([tl.phases[stage].mean_flow_tput_bps for tl in timelines]),
            [r for tl in timelines for r in tl.phases[stage].rtts_ns],
        )
    return out
