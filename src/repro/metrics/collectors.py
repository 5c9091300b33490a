"""Run-time collectors: throughput windows and loss accounting.

Both collectors consume the :class:`~repro.host.transfer.Transfer`
interface (and Host-level counter properties) instead of reaching into
``host.receivers`` / ``host.nic`` internals, so any new application
type that satisfies the protocol is measurable without touching this
module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.host.host import Host
from repro.host.transfer import Transfer
from repro.net.topology import Topology
from repro.units import SEC


class ThroughputMeter:
    """Per-flow goodput measured at the receiver over a window.

    ``mark_start``/``mark_end`` snapshot each tracked transfer's
    per-flow in-order delivered byte counts; throughput is the delta
    over the wall window, matching how nuttcp reports.  Rates stay
    keyed by wire flow id (an MPTCP transfer contributes one entry per
    subflow); :meth:`transfer_rate_bps` aggregates them back per
    transfer.
    """

    def __init__(self):
        self._transfers: List[Transfer] = []
        self._start_bytes: Dict[int, int] = {}
        self._start_ns: Optional[int] = None
        self._end_bytes: Dict[int, int] = {}
        self._end_ns: Optional[int] = None

    def track(self, transfer: Transfer) -> None:
        self._transfers.append(transfer)

    def _snapshot(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for transfer in self._transfers:
            delivered = transfer.delivered_by_flow()
            for flow_id in transfer.flow_ids():
                out[flow_id] = delivered.get(flow_id, 0)
        return out

    def mark_start(self, now_ns: int) -> None:
        self._start_ns = now_ns
        self._start_bytes = self._snapshot()

    def mark_end(self, now_ns: int) -> None:
        self._end_ns = now_ns
        self._end_bytes = self._snapshot()

    def flow_rates_bps(self) -> Dict[int, float]:
        if self._start_ns is None or self._end_ns is None:
            raise RuntimeError("mark_start/mark_end not called")
        window = self._end_ns - self._start_ns
        if window <= 0:
            return {flow_id: 0.0 for flow_id in self._end_bytes}
        return {
            flow_id: (end - self._start_bytes.get(flow_id, 0)) * 8 * SEC / window
            for flow_id, end in self._end_bytes.items()
        }

    def transfer_rate_bps(
        self, transfer: Transfer, rates: Optional[Dict[int, float]] = None
    ) -> float:
        """One tracked transfer's rate: the sum over its wire flows."""
        if rates is None:
            rates = self.flow_rates_bps()
        return sum(rates[f] for f in transfer.flow_ids())


class LossAccountant:
    """Switch-counter loss rate, as the paper measures (Figs 9a, 12a)."""

    def __init__(self, topo: Topology, hosts: List[Host]):
        self.topo = topo
        self.hosts = hosts
        self._start_drops = 0
        self._start_tx = 0

    def mark_start(self) -> None:
        self._start_drops = self._total_drops()
        self._start_tx = self._total_tx()

    def _total_drops(self) -> int:
        drops = self.topo.total_switch_drops()
        drops += sum(h.rx_ring_drops for h in self.hosts)
        return drops

    def _total_tx(self) -> int:
        return sum(h.tx_pkts for h in self.hosts)

    def loss_rate(self) -> float:
        """Dropped / transmitted packets over the marked window."""
        sent = self._total_tx() - self._start_tx
        if sent <= 0:
            return 0.0
        dropped = self._total_drops() - self._start_drops
        return dropped / sent
