"""Receiver CPU cost model.

The paper's central systems observation is *computational*: at 10+ Gbps
the receive path is dominated by per-segment (not per-byte) costs, so
when reordering defeats GRO and MTU-sized segments flood the stack, one
core saturates and throughput collapses ("small segment flooding",
S2.2; Menon & Zwaenepoel).  We model one receive core as a busy-until
server: every GRO merge, every segment pushed up the stack and every
pure ACK consumes service time, and the NIC can only poll the ring when
the core is free — so an overloaded core backs the ring up and drops
packets, exactly the collapse mode the paper measures.

Default constants are calibrated (see DESIGN.md S2) so that, at 10 Gbps:

* official GRO without reordering runs at ~65 % utilization (paper: 69 %),
* per-MTU-segment processing caps goodput near 5 Gbps at 100 % CPU
  (paper: 4.6-5.7 Gbps),
* Presto's segment-list bookkeeping adds ~5 % (paper: 6 %).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.sim.engine import Simulator


@dataclass
class CpuCosts:
    """Service-time constants, all in nanoseconds (per unit noted)."""

    #: per segment pushed up to TCP/IP (skb alloc, protocol processing)
    per_segment_ns: float = 1500.0
    #: per packet handled by the GRO merge loop
    per_merge_pkt_ns: float = 150.0
    #: per payload byte (copies, checksum touch)
    per_byte_ns: float = 0.45
    #: per pure ACK processed by the sender-side stack
    per_ack_ns: float = 500.0
    #: Presto extra per packet (multi-segment list management + shadow-MAC
    #: restore memcpy)
    presto_per_pkt_ns: float = 30.0
    #: Presto insertion sort: fixed + per held segment, per flush
    presto_flush_ns: float = 100.0
    presto_per_held_segment_ns: float = 50.0

    def segment_push_cost(self, payload_len: int) -> float:
        return self.per_segment_ns + self.per_byte_ns * payload_len


class ReceiverCpu:
    """One receive core as a non-preemptive busy-until server."""

    def __init__(self, sim: Simulator, costs: CpuCosts = None):
        # imported here: a flow-fidelity run imports this module for
        # CpuCosts alone and builds no core
        from array import array

        self.sim = sim
        self.costs = costs if costs is not None else CpuCosts()
        #: when the work accepted so far completes
        self._done_ns = 0
        self.busy_ns_total = 0
        #: checkpoints for utilization sampling, one column each (16 B a
        #: checkpoint): the time, and the cumulative busy ns by then
        self._times = array("q", (0,))
        self._busy_ns = array("q", (0,))

    def free_at(self) -> int:
        """Earliest time the core can take new work."""
        return max(self.sim.now, self._done_ns)

    def consume(self, cost_ns: float) -> int:
        """Account ``cost_ns`` of work starting when the core is free;
        returns the completion time."""
        cost = int(round(cost_ns))
        if cost <= 0:
            return self.free_at()
        start = self.free_at()
        self._done_ns = start + cost
        self.busy_ns_total += cost
        return self._done_ns

    # --- utilization sampling -------------------------------------------------

    def checkpoint(self) -> None:
        """Record a (now, busy_total) point for later utilization math."""
        busy = self.busy_ns_total
        # Work scheduled into the future should not count as already done.
        if self._done_ns > self.sim.now:
            busy -= self._done_ns - self.sim.now
        self._times.append(self.sim.now)
        self._busy_ns.append(max(0, busy))

    def utilization(self, since_ns: int = 0, until_ns: int = None) -> float:
        """Fraction of [since, until] the core was busy (0..1)."""
        until = until_ns if until_ns is not None else self.sim.now
        if until <= since_ns:
            return 0.0
        busy_at_start = self._interp(since_ns)
        busy_at_end = self._interp(until)
        return min(1.0, max(0.0, (busy_at_end - busy_at_start) / (until - since_ns)))

    def utilization_series(self, interval_ns: int) -> List[Tuple[int, float]]:
        """(window_end_time, utilization) per fixed window — Fig 6's
        time series."""
        end = self._times[-1]
        series = []
        t = interval_ns
        while t <= end:
            series.append((t, self.utilization(t - interval_ns, t)))
            t += interval_ns
        return series

    def _interp(self, t: int) -> float:
        """Cumulative busy ns at time ``t``, linearly interpolated."""
        times, busy = self._times, self._busy_ns
        if t >= times[-1]:
            return busy[-1] + 0.0
        # the last checkpoint at or before t (the first, if none is)
        lo = max(0, bisect_right(times, t) - 1)
        t0, b0 = times[lo], busy[lo]
        if lo + 1 < len(times):
            t1, b1 = times[lo + 1], busy[lo + 1]
            if t1 > t0:
                return b0 + (b1 - b0) * (t - t0) / (t1 - t0)
        return float(b0)
