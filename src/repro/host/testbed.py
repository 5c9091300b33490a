"""Packet data plane: what :class:`~repro.experiments.harness.Testbed`
plugs in at packet fidelity (``cfg.fidelity`` unset or ``"packet"``).

The testbed — topology, vSwitches, controller, control plane, the whole
traffic layer — is the same object at both fidelities; only the data
plane underneath differs.  :class:`PacketPlane` builds real hosts (TCP,
GRO, NIC, receiver CPU), opens wire transfers as packet-level apps,
attaches the packet-path telemetry probes and the armed invariant
observers, and reads the packet counters.  Its flow-fidelity twin is
:class:`repro.fluid.testbed.FluidPlane`.

What only some runs need is imported where that choice is made: MPTCP
when a transfer asks for subflows, telemetry probes when telemetry is
on, the invariant observers when they are armed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.host.app import BulkApp, RttProbeApp
from repro.host.gro import OfficialGro, PrestoGro
from repro.host.host import Host
from repro.lb.base import VSwitch
from repro.metrics.collectors import Counters

if TYPE_CHECKING:
    from repro.experiments.harness import Testbed


class PacketPlane:
    """The packet-fidelity data plane of one :class:`Testbed`: real
    hosts, wire transfers, and the packet-path probes and invariants."""

    def __init__(self, tb: "Testbed"):
        self.tb = tb

    def make_host(self, host_id: int, lb: VSwitch) -> Host:
        cfg = self.tb.cfg
        return Host(self.tb.sim, host_id, lb=lb, gro=self._make_gro(),
                    cpu_costs=cfg.cpu_costs, tcp_cfg=cfg.tcp,
                    model_cpu=cfg.model_cpu)

    def _make_gro(self):
        # both names were validated at config / scheme registration
        cfg = self.tb.cfg
        if (cfg.gro_override or self.tb.scheme_def.gro) == "official":
            return OfficialGro()
        tuned = dict(initial_ewma_ns=cfg.gro_initial_ewma_ns,
                     alpha=cfg.gro_alpha)
        return PrestoGro(
            adaptive=cfg.gro_adaptive,
            loss_detection=cfg.gro_loss_detection,
            **{k: v for k, v in tuned.items() if v is not None})

    def attach(self) -> None:
        """After the controller installed the underlay: telemetry
        probes, then the armed invariant observers."""
        tb = self.tb
        if tb.telemetry.enabled:
            from repro.telemetry.instrument import instrument_testbed

            instrument_testbed(tb)
        if tb.cfg.validate:
            from repro.validate.invariants import ValidationProbe

            tb.validation = ValidationProbe(tb)

    # --- traffic ----------------------------------------------------------

    def open(self, src: int, dst: int, size_bytes: Optional[int],
             start_ns: Optional[int], on_complete,
             subflows: Optional[int] = None):
        """One wire transfer on fresh flow ids: a TCP flow, or — with
        ``subflows`` — a coupled MPTCP connection.  ``start_ns=None``
        opens a TCP sender now; everything else starts through the
        heap, ``start_ns`` from now."""
        tb = self.tb
        if subflows is None:
            return BulkApp(tb.sim, tb.hosts[src], tb.hosts[dst],
                           tb.flow_ids.next(), size_bytes=size_bytes,
                           start_ns=start_ns, on_complete=on_complete)
        from repro.mptcp.mptcp import MptcpConnection

        return MptcpConnection(tb.sim, tb.hosts[src], tb.hosts[dst],
                               tb.flow_ids, n_subflows=subflows,
                               size_bytes=size_bytes,
                               start_ns=start_ns or 0,
                               on_complete=on_complete)

    def open_probe(self, src: int, dst: int, start_ns: int) -> RttProbeApp:
        tb = self.tb
        return RttProbeApp(tb.sim, tb.hosts[src], tb.hosts[dst],
                           tb.flow_ids, start_ns=start_ns)

    # --- running / measurement ----------------------------------------------

    def sync(self) -> None:
        pass  # packet state is always current

    def check(self):
        from repro.validate.invariants import runtime_check

        return runtime_check(self.tb)

    def counters(self) -> Counters:
        """The cumulative read-out, in one walk over switches, ports
        and hosts — the one place that knows which component keeps
        which counter.  Called O(windows) times per run, never from a
        per-packet path."""
        tb = self.tb
        switches = tb.topo.switches.values()
        queue_flush = wire = 0
        port_tx_bytes = {}
        for port in tb.ports():
            port_tx_bytes[port.name] = port.tx_bytes
            queue_flush += port.drop_cause_bytes.get("link_down", 0)
            wire += port.wire_drop_bytes
        no_route = sum(sw.no_route_drop_bytes for sw in switches)
        ttl = sum(sw.ttl_drop_bytes for sw in switches)
        return Counters(
            tx_pkts=sum(h.nic.tx_pkts for h in tb.hosts),
            # a host's own egress queue is its qdisc, not a switch counter
            dropped_pkts=(
                sum(p.dropped_pkts for sw in switches for p in sw.ports)
                + sum(sw.no_route_drops + sw.ttl_drops for sw in switches)
                + sum(h.nic.ring_drops for h in tb.hosts)),
            blackholed={"queue_flush": queue_flush, "wire": wire,
                        "no_route": no_route, "ttl": ttl,
                        "total": queue_flush + wire + no_route + ttl},
            port_tx_bytes=port_tx_bytes,
            host_delivered={
                h.host_id: sum(r.delivered_bytes
                               for r in h.receivers.values())
                for h in tb.hosts})
