"""The fitness cell: one (candidate config, seed) trial, runner-ready.

One candidate's fitness is the mean mice FCT over a small multi-seed
sweep of this cell — mice latency is the paper's headline metric and
the quantity every knob in the space plausibly moves (cell size via
reordering, GRO constants via hold timeouts, controller delays via
blackhole windows, zoo thresholds via spray/pin misclassification).

The cell is a module-level function of ``(TestbedConfig, kwargs)`` so
:class:`repro.runner.JobSpec` can hash, pickle, cache, and ship it to
``--service`` workers like any other experiment cell.  The workload is
derived deterministically from the config's own topology + seed — no
pair lists ride in the kwargs, keeping spec hashes small and stable.

``disrupt=True`` turns the trial into a failure scenario: a spine
uplink drops a third of the way into the measurement window with fast
failover and the control plane armed, so the controller-delay and
failover-latency knobs actually price the blackhole they govern.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import run_elephant_workload
from repro.experiments.harness import Testbed, TestbedConfig
from repro.faults.schedule import FaultSchedule, LinkDown
from repro.metrics.stats import mean, percentile
from repro.units import KB, msec

DEFAULT_WARM_NS = msec(3)
DEFAULT_MEASURE_NS = msec(6)
DEFAULT_MICE_SIZE = 50 * KB
DEFAULT_MICE_INTERVAL_NS = msec(1)


def cross_rack_pairs(cfg: TestbedConfig) -> Tuple[List[Tuple[int, int]],
                                                  List[Tuple[int, int]]]:
    """(elephant, mice) pairs for the config's fabric, all cross-rack.

    Elephants: the first half of each rack sends to the same slot one
    rack over (a rotation — every uplink loaded, every pair multipath).
    Mice: the last host of each of up to four racks sends to its peer
    two racks over, so mice share links with elephants without sharing
    hosts.
    """
    spec = cfg.topology_spec()
    racks = spec.n_edges()
    per_rack = spec.hosts_per_edge()
    if racks < 2:
        raise ValueError(
            f"search workload needs >= 2 racks, got {racks}")
    elephants = []
    for rack in range(racks):
        for slot in range(max(1, per_rack // 2)):
            src = rack * per_rack + slot
            dst = ((rack + 1) % racks) * per_rack + slot
            elephants.append((src, dst))
    mice = []
    for rack in range(min(racks, 4)):
        src = rack * per_rack + (per_rack - 1)
        dst = ((rack + 2) % racks) * per_rack + (per_rack - 1)
        if src != dst:
            mice.append((src, dst))
    return elephants, mice


def run_search_cell(
    cfg: TestbedConfig,
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    mice_size: int = DEFAULT_MICE_SIZE,
    mice_interval_ns: int = DEFAULT_MICE_INTERVAL_NS,
    disrupt: bool = False,
) -> Dict[str, float]:
    """One seeded trial of the search workload — the shared elephant
    run on :func:`cross_rack_pairs` — as plain metrics.

    The FCT population is every mouse of the run, so a ``disrupt``
    blackhole mid-window shows up in the mean rather than being
    averaged away by a trailing steady state.
    """
    def arm_fault(tb: Testbed) -> None:
        tb.controller.enable_fast_failover(cfg.failover_latency_ns)
        tb.enable_control_plane()
        # drop the first rack's first uplink once flows are established
        FaultSchedule.of(
            LinkDown(warm_ns + measure_ns // 3, "L1--S1"),
        ).arm(tb.sim, tb.topo)

    elephants, mice_pairs = cross_rack_pairs(cfg)
    run = run_elephant_workload(
        cfg, elephants, warm_ns, measure_ns, mice_pairs=mice_pairs,
        mice_size=mice_size, mice_interval_ns=mice_interval_ns,
        setup=arm_fault if disrupt else None)
    fcts = run.mice_fcts_ns
    return {
        "mean_mice_fct_ns": mean(fcts) if fcts else None,
        "p99_mice_fct_ns": percentile(fcts, 99) if fcts else None,
        "n_mice": len(fcts),
        "mean_tput_bps": run.mean_rate_bps,
        "loss_rate": run.loss_rate,
    }
