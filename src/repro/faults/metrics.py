"""Convergence metrics for fault runs.

Two views of "how fast did the network recover":

* :class:`ThroughputTimeline` — windowed aggregate goodput sampled *in
  simulation* (an event per window), the time series behind the dynamic
  Fig 17: full rate, cliff at the fault, partial recovery when hardware
  failover kicks in, full recovery after the controller reweights.
* :func:`convergence_report` — folds a timeline plus the control
  plane's reaction log into the headline numbers: time-to-failover and
  time-to-rebalance.

(What failures *destroyed* — dead-link queue flushes, frames lost
mid-serialization, no-route and TTL drops, as opposed to congestion
loss — is :meth:`repro.metrics.collectors.Window.blackholed`: the
paper's blackhole window is ``failover_latency`` long and that is its
integral.)

All of it is observational: sampling draws no randomness and mutates
no component state, so a metered run and an unmetered run see
identical packet-level behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.units import SEC, msec


class ThroughputTimeline:
    """Aggregate delivered-byte deltas per fixed window, in-sim.

    Tracks :class:`~repro.host.transfer.Transfer` objects; each window
    boundary snapshots the sum of their receiver-side delivered bytes.
    ``stop_ns`` bounds the sampling so a finished run can still quiesce
    (the soak harness checks exactly that).
    """

    def __init__(self, sim, window_ns: int, stop_ns: int, start_ns: int = 0):
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive: {window_ns}")
        if stop_ns <= start_ns:
            raise ValueError("stop_ns must be after start_ns")
        self.sim = sim
        self.window_ns = int(window_ns)
        self.stop_ns = int(stop_ns)
        self._transfers: List = []
        #: (window_end_ns, delivered_bytes_in_window)
        self.samples: List[Tuple[int, int]] = []
        self._last_total: Optional[int] = None
        self.sim.schedule(max(0, start_ns - sim.now), self._tick)

    def track(self, transfer) -> None:
        self._transfers.append(transfer)

    def _total(self) -> int:
        return sum(t.delivered_bytes() for t in self._transfers)

    def _tick(self) -> None:
        total = self._total()
        if self._last_total is not None:
            self.samples.append((self.sim.now, total - self._last_total))
        self._last_total = total
        if self.sim.now + self.window_ns <= self.stop_ns:
            self.sim.schedule(self.window_ns, self._tick)

    # --- reading ------------------------------------------------------------

    def rates_bps(self) -> List[Tuple[int, float]]:
        """(window_end_ns, aggregate_goodput_bps) per closed window."""
        return [(t, b * 8 * SEC / self.window_ns) for t, b in self.samples]

    def mean_bps_between(self, start_ns: int, end_ns: int) -> float:
        """Mean rate over windows closing in ``(start_ns, end_ns]``."""
        rates = [r for t, r in self.rates_bps() if start_ns < t <= end_ns]
        return sum(rates) / len(rates) if rates else 0.0


@dataclass
class ConvergenceReport:
    """Headline recovery numbers for one fault run."""

    #: when the (first) fault hit
    fault_ns: int
    #: when the control plane (last) pushed reweighted schedules
    reaction_ns: Optional[int]
    #: fault -> first window back at >= ``fraction`` of baseline while
    #: only hardware failover has acted (None: never before reaction)
    time_to_failover_ns: Optional[int]
    #: fault -> first window at/after the reaction back at baseline
    time_to_rebalance_ns: Optional[int]
    #: pre-fault aggregate goodput
    baseline_bps: float
    #: failure-destroyed bytes over the run, by mechanism
    blackholed_bytes: Dict[str, int] = field(default_factory=dict)
    #: recovery threshold as a fraction of baseline
    fraction: float = 0.8


def convergence_report(
    timeline: ThroughputTimeline,
    fault_ns: int,
    reaction_ns: Optional[int],
    blackholed: Optional[Dict[str, int]] = None,
    baseline_window_ns: int = msec(10),
    fraction: float = 0.8,
    failover_target_bps: Optional[float] = None,
    rebalance_target_bps: Optional[float] = None,
) -> ConvergenceReport:
    """Fold a timeline + reaction instant into a :class:`ConvergenceReport`.

    ``time_to_failover`` is fault -> first window at ``fraction`` of
    ``failover_target_bps`` *before* the controller reacted (recovery
    attributable to hardware failover alone); ``time_to_rebalance`` is
    fault -> first window at ``fraction`` of ``rebalance_target_bps``
    from the reaction onward.  Both targets default to the pre-fault
    baseline — callers that know the achievable plateau (e.g. 3 of 4
    trees after a prune) should pass it, since a fault permanently
    removes capacity and the baseline may be unreachable.
    """
    baseline = timeline.mean_bps_between(fault_ns - baseline_window_ns, fault_ns)
    if failover_target_bps is None:
        failover_target_bps = baseline
    if rebalance_target_bps is None:
        rebalance_target_bps = baseline
    failover_ns: Optional[int] = None
    rebalance_ns: Optional[int] = None
    for t, rate in timeline.rates_bps():
        if t <= fault_ns:
            continue
        if (failover_ns is None and rate >= fraction * failover_target_bps
                and (reaction_ns is None or t <= reaction_ns)):
            failover_ns = t - fault_ns
        if (rebalance_ns is None and rate >= fraction * rebalance_target_bps
                and reaction_ns is not None and t >= reaction_ns):
            rebalance_ns = t - fault_ns
        if failover_ns is not None and rebalance_ns is not None:
            break
    return ConvergenceReport(
        fault_ns=fault_ns,
        reaction_ns=reaction_ns,
        time_to_failover_ns=failover_ns,
        time_to_rebalance_ns=rebalance_ns,
        baseline_bps=baseline,
        blackholed_bytes=blackholed or {},
        fraction=fraction,
    )
