"""Fluid data plane: what :class:`~repro.experiments.harness.Testbed`
plugs in at ``cfg.fidelity == "flow"``; its packet-fidelity twin is
:class:`repro.host.testbed.PacketPlane`.

The testbed — real topology, real vSwitches registered with the real
:class:`PrestoController`, the modeled control plane, fault schedules,
the whole traffic layer (transports, races, mice) — is the same object
at both fidelities; only the data plane underneath differs.
:class:`FluidPlane` replaces hosts and wire transfers: a
:class:`FluidHost` has no TCP stack or GRO, ``open`` starts a
:class:`~repro.fluid.engine.FluidTransfer` over n wire flow ids instead
of a packet-level app, probes report the queueless RTT floor, and the
post-run check is the fluid conservation laws.
"""

from __future__ import annotations

from typing import List, Optional

from repro.fluid.engine import FluidEngine, FluidTransfer
from repro.host import app as host_app
from repro.host.transfer import Transfer
from repro.metrics.collectors import Counters


class FluidHost:
    """Duck-typed host: enough surface for Topology and the
    controller; no packet machinery."""

    def __init__(self, host_id: int, lb):
        self.host_id = host_id
        self.lb = lb

    def attach(self, egress_port, topo) -> None:
        pass  # the engine finds the egress port through the topology

    def receive(self, pkt, in_port=None) -> None:
        pass  # nothing packet-shaped ever arrives at fluid fidelity


class FluidProbeApp(Transfer):
    """RTT probe at fluid fidelity: resolves the probe's path through
    the real LB + switch state and reports the queueless floor —
    propagation plus per-hop serialization, doubled for the echo —
    every :data:`~repro.host.app.PROBE_INTERVAL_NS`, as the packet
    probe pings."""

    PROBE_BYTES = 64

    def __init__(self, tb, src: int, dst: int, start_ns: int = 0):
        self.tb = tb
        self.src = src
        self.dst = dst
        # two ids, like the packet probe's request/reply pair
        self.flow_id = tb.flow_ids.next()
        self.reply_flow_id = tb.flow_ids.next()
        self.rtts_ns: List[int] = []
        tb.sim.schedule(start_ns, self._tick)

    def _tick(self) -> None:
        sim = self.tb.sim
        lb = self.tb.hosts[self.src].lb
        dst_mac, cell_id = lb.label(
            self.flow_id, self.dst, self.PROBE_BYTES, self.PROBE_BYTES,
            sim.now)
        if not cell_id:  # SPRAY: the probe is one unit
            dst_mac, cell_id = lb.spray(self.flow_id, self.dst)
        path = self.tb.engine.resolve_path(
            self.src, self.dst, self.flow_id, dst_mac, cell_id, sim.now)
        if path is not None:
            one_way = self.tb.engine.path_latency_ns(path, self.PROBE_BYTES)
            self.rtts_ns.append(2 * one_way)
        sim.schedule(host_app.PROBE_INTERVAL_NS, self._tick)

    # --- Transfer protocol (probes carry no payload) ----------------------

    def flow_ids(self) -> tuple:
        return (self.flow_id, self.reply_flow_id)

    def delivered_by_flow(self) -> dict:
        return {self.flow_id: 0, self.reply_flow_id: 0}


class FluidPlane:
    """The flow-fidelity data plane of one :class:`Testbed`."""

    def __init__(self, tb):
        self.tb = tb
        cfg = tb.cfg
        #: also published as ``tb.engine``
        self.engine = tb.engine = FluidEngine(
            tb.sim, tb.topo, cfg.flowcell_bytes,
            failover_latency_ns=cfg.failover_latency_ns,
            validate=bool(cfg.validate))

    def make_host(self, host_id: int, lb) -> FluidHost:
        return FluidHost(host_id, lb)

    def attach(self) -> None:
        """After the controller installed the underlay: observe every
        vSwitch's schedule installs so later controller pushes
        (control-plane reweights) re-slice active fluids over the new
        labels, follow link state, and surface the engine's counters."""
        tb, engine = self.tb, self.engine
        for host in tb.hosts:
            host.lb.on_schedule_change.append(engine.schedules_changed)
        engine.watch_links()
        if tb.telemetry.enabled:
            tb.telemetry.add_sampler(self._sampler)

    # --- traffic ----------------------------------------------------------

    def open(self, src: int, dst: int, size_bytes: Optional[int],
             start_ns: Optional[int], on_complete,
             subflows: Optional[int] = None) -> FluidTransfer:
        """One fluid over ``subflows`` (default 1) fresh wire flow ids,
        starting ``start_ns`` from now (None = now)."""
        tb = self.tb
        ids = [tb.flow_ids.next() for _ in range(subflows or 1)]
        return self.engine.open_transfer(
            src, dst, tb.hosts[src].lb, ids, size_bytes=size_bytes,
            start_ns=start_ns or 0, on_complete=on_complete)

    def open_probe(self, src: int, dst: int, start_ns: int) -> FluidProbeApp:
        return FluidProbeApp(self.tb, src, dst, start_ns=start_ns)

    # --- running / measurement ----------------------------------------------

    def sync(self) -> None:
        self.engine.sync()

    def check(self):
        """Fluid conservation laws: allocations never exceeded any link
        capacity (checked at every realloc) and completed transfers
        delivered exactly their size."""
        from repro.validate.invariants import InvariantReport

        engine = self.engine
        violations = list(engine.violations)
        for transfer in engine.transfers:
            delivered = transfer.delivered_bytes()
            size = transfer.size_bytes
            if size is None:
                continue
            if transfer.done and delivered != size:
                violations.append(
                    f"transfer {transfer.flow_ids()} completed with "
                    f"{delivered} of {size} bytes")
            elif delivered > size:
                violations.append(
                    f"transfer {transfer.flow_ids()} delivered {delivered} "
                    f"> size {size}")
        return InvariantReport(
            violations=violations,
            stats={
                "fluid_transfers": len(engine.transfers),
                "fluid_reallocs": engine.reallocs,
                "fluid_slices": engine.slices,
            },
        )

    def counters(self) -> Counters:
        """The cumulative read-out: a fluid sends no packets, drops
        nothing and loses nothing to failures — it stalls instead."""
        delivered = dict.fromkeys((h.host_id for h in self.tb.hosts), 0)
        for transfer in self.engine.transfers:
            delivered[transfer.dst] += transfer.delivered_bytes()
        return Counters(
            tx_pkts=0, dropped_pkts=0,
            blackholed=dict.fromkeys(
                ("queue_flush", "wire", "no_route", "ttl", "total"), 0),
            port_tx_bytes=self.engine.link_bytes(),
            host_delivered=delivered)

    def _sampler(self, reg) -> None:
        engine = self.engine
        reg.counter("fluid.reallocs").record_total(engine.reallocs)
        reg.counter("fluid.slices").record_total(engine.slices)
        reg.counter("fluid.transfers").record_total(len(engine.transfers))
        for name, nbytes in self.counters().port_tx_bytes.items():
            reg.counter(f"fluid.port.{name}.tx_bytes").record_total(nbytes)
