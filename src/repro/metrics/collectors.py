"""Measurement is ``after - before``: one read-out, one window.

A data plane answers ``counters()`` with one :class:`Counters` — the
simulator's cumulative counters, read in one walk; *where* they live
(ports, queues, switches, NICs, the fluid engine's ledgers) is the
plane's business alone.  A :class:`Window` is two such read-outs plus
the tracked transfers' per-flow delivered bytes, and their difference:
receiver goodput as nuttcp reports it, switch-counter loss (Figs 9a,
12a), failure-destroyed bytes, per-port and per-host bytes, and the
RTT / FCT samples that landed inside::

    tb.run(start); w = Window(tb, apps); tb.run(end); w.close()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.host.transfer import Transfer
from repro.units import SEC


@dataclass(frozen=True)
class Counters:
    """One cumulative read-out of a data plane."""

    #: wire packets the hosts' NICs queued for transmission
    tx_pkts: int
    #: packets dropped at switch output queues, for want of a route, by
    #: the hop budget, or at a NIC ring — what the paper's switch-counter
    #: loss rate counts
    dropped_pkts: int
    #: wire bytes destroyed *by failures*, by mechanism: ``queue_flush``
    #: (flushed from — or sent at — a queue whose link died), ``wire``
    #: (the frame mid-serialization when the cable was cut),
    #: ``no_route`` (reached a switch with no usable egress: the Fig 17
    #: blackhole), ``ttl`` (killed by the hop budget), and ``total``
    blackholed: Dict[str, int]
    #: bytes transmitted per directional port, by port name
    port_tx_bytes: Dict[str, int]
    #: in-order bytes delivered to each host's receivers, by host id
    host_delivered: Dict[int, int]


class _Reading(NamedTuple):
    """Everything a window reads at one instant."""

    ns: int
    counters: Counters
    #: wire flow id -> delivered bytes, in the transfers' flow order (an
    #: MPTCP transfer contributes one entry per subflow)
    by_flow: Dict[int, int]
    #: length of each held sample list
    n_samples: List[int]


class Window:
    """What happened on ``tb`` between now and :meth:`close`."""

    def __init__(self, tb, transfers: Sequence[Transfer] = ()):
        self._tb = tb
        self._transfers = tuple(transfers)
        #: the tracked transfers' append-only sample lists (held, so
        #: :meth:`since` can tell them apart by identity)
        self._samples = [s for t in self._transfers
                         for s in (t.fcts_ns, getattr(t, "rtts_ns", ()))]
        self._before = self._read()
        self._after: Optional[_Reading] = None

    def _read(self) -> _Reading:
        by_flow: Dict[int, int] = {}
        for transfer in self._transfers:
            delivered = transfer.delivered_by_flow()
            for flow_id in transfer.flow_ids():
                by_flow[flow_id] = delivered.get(flow_id, 0)
        return _Reading(self._tb.sim.now, self._tb.plane.counters(), by_flow,
                        [len(s) for s in self._samples])

    def close(self) -> "Window":
        self._after = self._read()
        return self

    def _closed(self) -> _Reading:
        if self._after is None:
            raise RuntimeError("window read before close()")
        return self._after

    @property
    def span_ns(self) -> int:
        return self._closed().ns - self._before.ns

    def _rate_bps(self, nbytes: int) -> float:
        span = self.span_ns
        return nbytes * 8 * SEC / span if span > 0 else 0.0

    # --- goodput ------------------------------------------------------------

    def _flow_rate_bps(self, flow_id: int) -> float:
        return self._rate_bps(self._closed().by_flow[flow_id]
                              - self._before.by_flow.get(flow_id, 0))

    def flow_rates_bps(self) -> Dict[int, float]:
        """Receiver goodput per wire flow id."""
        return {f: self._flow_rate_bps(f) for f in self._closed().by_flow}

    def rate_bps(self, transfer: Transfer) -> float:
        """One tracked transfer's goodput: the sum over its wire flows."""
        return sum(self._flow_rate_bps(f) for f in transfer.flow_ids())

    def host_rates_bps(self) -> Dict[int, float]:
        """Aggregate receive goodput per host id, tracked or not."""
        before = self._before.counters.host_delivered
        return {host_id: self._rate_bps(end - before[host_id])
                for host_id, end
                in self._closed().counters.host_delivered.items()}

    # --- counters -----------------------------------------------------------

    def loss_rate(self) -> float:
        """Dropped / transmitted packets, as the paper's switch counters."""
        before, after = self._before.counters, self._closed().counters
        sent = after.tx_pkts - before.tx_pkts
        if sent <= 0:
            return 0.0
        return (after.dropped_pkts - before.dropped_pkts) / sent

    def blackholed(self) -> Dict[str, int]:
        """Failure-destroyed wire bytes, by mechanism (+ ``total``)."""
        before = self._before.counters.blackholed
        return {mechanism: total - before[mechanism] for mechanism, total
                in self._closed().counters.blackholed.items()}

    def port_tx_bytes(self) -> Dict[str, int]:
        """Bytes carried per directional port, sorted by port name."""
        before = self._before.counters.port_tx_bytes
        after = self._closed().counters.port_tx_bytes
        return {name: after[name] - before.get(name, 0)
                for name in sorted(after)}

    # --- samples ------------------------------------------------------------

    def since(self, samples: List[int]) -> List[int]:
        """The part of a tracked transfer's ``fcts_ns`` / ``rtts_ns``
        that was appended inside the window."""
        for held, lo, hi in zip(self._samples, self._before.n_samples,
                                self._closed().n_samples):
            if held is samples:
                return samples[lo:hi]
        raise ValueError("not a sample list of a tracked transfer")
