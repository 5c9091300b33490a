"""Experiment harness: wire a scheme + topology + hosts into a runnable
testbed and provide the measurement scaffolding every paper experiment
shares.

A *scheme* bundles what the paper varies between compared systems: the
edge load balancer, the receiver GRO, how transfers are opened (its
transport) and, for "Optimal", the topology override (a single
non-blocking switch).  Schemes and transports are declared in
:mod:`repro.experiments.schemes`; ``SCHEMES`` here is a live view of
that registry, so registering a new scheme makes it runnable without
touching this module.

There is one :class:`Testbed`.  What differs between fidelities sits
behind its *data plane* (``tb.plane``), picked from ``cfg.fidelity``
in the constructor: :class:`PacketPlane` here (hosts with TCP/GRO/CPU,
wire transfers, the packet invariants) or
:class:`repro.fluid.testbed.FluidPlane` (fluid hosts and transfers).
Everything above it — transports, races, mice — is written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.schemes import (
    TRANSPORTS,
    get_scheme,
    is_registered,
    scheme_names,
)
from repro.fluid.testbed import FluidPlane
from repro.host.app import BulkApp, FlowIdAllocator, MiceApp, RttProbeApp
from repro.host.cpu import CpuCosts
from repro.host.gro import OfficialGro, PrestoGro
from repro.host.host import Host
from repro.host.tcp import TcpConfig
from repro.lb.base import VSwitch
from repro.metrics.collectors import Counters
from repro.mptcp.mptcp import MptcpConnection
from repro.net.fabrics import SINGLE_SWITCH, TopologySpec, build_fabric
from repro.net.port import Port
from repro.net.topology import Topology
from repro.presto.controller import PrestoController
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.telemetry import NULL_TELEMETRY, Telemetry, TelemetryConfig
from repro.telemetry import instrument_testbed
from repro.units import KB, MB, gbps, msec, usec


def __getattr__(name: str):
    # PEP 562: SCHEMES stays importable but reflects the live registry.
    if name == "SCHEMES":
        return scheme_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class TestbedConfig:
    """Everything that defines one run."""

    __test__ = False  # not a pytest class, despite the name

    scheme: str = "presto"
    #: deprecated alias trio for a 2-tier Clos shape; prefer
    #: ``topology=TopologySpec...`` / ``topology="fat-tree:k=8"``.
    #: Kept (and mirrored from ``topology`` in __post_init__) so legacy
    #: readers and — critically — legacy store hashes stay bit-stable.
    n_spines: int = 4
    n_leaves: int = 4
    hosts_per_leaf: int = 4
    link_rate_bps: float = gbps(10)
    prop_delay_ns: int = usec(1)
    #: per-port hard cap; None = bounded only by the shared pool
    switch_buffer_bytes: Optional[int] = None
    #: per-switch shared packet memory (G8264-class) + DT alpha
    switch_pool_bytes: int = 4 * MB
    pool_alpha: float = 2.0
    host_buffer_bytes: int = 4 * MB
    seed: int = 0
    model_cpu: bool = True
    #: Experiment-scale TCP: the paper runs 10 s per trial so Linux's
    #: 200 ms min-RTO is 2% of a run; our packet-level runs are tens of
    #: ms, so the RTO floor is scaled to 20 ms to keep the RTO/run ratio
    #: in the same regime (see EXPERIMENTS.md "time scaling").  The
    #: receive window is 640 KB — big enough to fill 10 Gbps through the
    #: Clos's queueing RTT, small enough that a handful of flows'
    #: slow-start overshoot stays inside one switch's 4 MB shared pool
    #: (at full scale Linux autotuning and 10 s of averaging play that
    #: role).  Tests and users can pass a faithful TcpConfig() instead.
    tcp: TcpConfig = field(
        default_factory=lambda: TcpConfig(
            min_rto_ns=msec(20), initial_rto_ns=msec(20), max_rto_ns=msec(200),
            rcv_wnd=640 * KB,
        )
    )
    cpu_costs: Optional[CpuCosts] = None
    #: override the scheme's default receiver GRO: "official" | "presto"
    gro_override: Optional[str] = None
    #: MPTCP subflow count (paper configuration: 8)
    mptcp_subflows: int = 8
    #: failover detection latency when fast failover is enabled
    failover_latency_ns: int = msec(2)
    #: modeled control plane (repro.faults): how long until the
    #: controller learns of a link change, and how long it then takes
    #: to recompute + push schedules (paper S3.3: failover is
    #: microseconds in hardware, the controller is tens of ms behind)
    ctrl_detection_delay_ns: int = msec(10)
    ctrl_reaction_delay_ns: int = msec(5)
    # --- ablation knobs (DESIGN.md S5) ---------------------------------
    #: flowcell granularity (paper: 64 KB = max TSO)
    flowcell_bytes: int = 64 * KB
    #: Presto label iteration: "rr" (paper) or "random"
    presto_mode: str = "rr"
    #: Presto GRO hold-timeout adaptivity and loss/reorder discrimination
    gro_adaptive: bool = True
    gro_loss_detection: bool = True
    gro_initial_ewma_ns: Optional[int] = None
    gro_alpha: Optional[float] = None
    #: Presto GRO reordering-EWMA smoothing gain (paper: 1/8).  A gain
    #: is only meaningful in (0, 1]; tri-state with ``omit_if_none`` so
    #: unset configs keep their historic store hashes.
    gro_ewma_gain: Optional[float] = field(
        default=None, metadata={"omit_if_none": True})
    #: override the active zoo scheme's flow-size threshold (DiffFlow's
    #: 100 KB mice cutoff / elephant_iso's 1 MB detection point) — the
    #: knob repro.search sweeps for DiffFlow-style sensitivity curves.
    #: Tri-state like ``gro_ewma_gain`` for hash stability.
    zoo_threshold_bytes: Optional[int] = field(
        default=None, metadata={"omit_if_none": True})
    #: arm the always-on invariants (repro.validate): every ``run()``
    #: checks conservation laws and raises InvariantViolation on a
    #: breach.  Tri-state on purpose: the None default is omitted from
    #: serialization (``omit_if_none``) so armed-off configs hash — and
    #: hit the result-store cache — exactly like historic ones.
    validate: Optional[bool] = field(
        default=None, metadata={"omit_if_none": True})
    #: engine fidelity: "packet" (default) queues every frame, "flow"
    #: runs the fluid engine (repro.fluid).  Tri-state like ``validate``:
    #: None is omitted from serialization so historic packet-fidelity
    #: configs keep their ResultStore hashes, and an explicit "packet"
    #: normalizes to None in __post_init__ for the same reason.
    fidelity: Optional[str] = field(
        default=None, metadata={"omit_if_none": True})
    #: first-class fabric shape (repro.net.fabrics.TopologySpec, or its
    #: CLI string form, e.g. "fat-tree:k=8").  Tri-state like
    #: ``fidelity``: a 2-tier ``clos`` spec normalizes into the legacy
    #: trio above and this field back to None, so every pre-spec config
    #: hashes — and hits the result-store cache — bit-identically.
    #: Multi-tier specs stay set and keep the trio mirrored for legacy
    #: readers (rack size, host count).
    topology: Optional[TopologySpec] = field(
        default=None, metadata={"omit_if_none": True})

    def __post_init__(self) -> None:
        """Fail at construction, with actionable messages, instead of
        deep inside topology/GRO building."""
        if not is_registered(self.scheme):
            raise ValueError(
                f"unknown scheme {self.scheme!r}; pick from "
                f"{scheme_names()} (or register it via "
                f"repro.experiments.schemes.register)")
        if self.topology is not None:
            if isinstance(self.topology, str):
                self.topology = TopologySpec.parse(self.topology)
            self.topology.validate()
            if self.topology.kind == "clos":
                # a 2-tier spec IS the historic trio: normalize onto it
                # and drop the spec so hashes match pre-spec configs
                (self.n_spines, self.n_leaves,
                 self.hosts_per_leaf) = self.topology.legacy_fields()
                self.topology = None
            else:
                (self.n_spines, self.n_leaves,
                 self.hosts_per_leaf) = self.topology.legacy_fields()
        if self.gro_override not in (None, "official", "presto"):
            raise ValueError(
                f"gro_override must be None, 'official' or 'presto', "
                f"got {self.gro_override!r}")
        if self.presto_mode not in ("rr", "random"):
            raise ValueError(
                f"presto_mode must be 'rr' or 'random', "
                f"got {self.presto_mode!r}")
        for name in ("n_spines", "n_leaves", "hosts_per_leaf",
                     "mptcp_subflows"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("link_rate_bps", "switch_pool_bytes", "pool_alpha",
                     "host_buffer_bytes", "flowcell_bytes"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("prop_delay_ns", "failover_latency_ns",
                     "ctrl_detection_delay_ns", "ctrl_reaction_delay_ns"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.switch_buffer_bytes is not None and self.switch_buffer_bytes <= 0:
            raise ValueError(
                f"switch_buffer_bytes must be positive (or None for "
                f"pool-only limiting), got {self.switch_buffer_bytes}")
        if self.gro_initial_ewma_ns is not None and self.gro_initial_ewma_ns <= 0:
            raise ValueError(
                f"gro_initial_ewma_ns must be positive, "
                f"got {self.gro_initial_ewma_ns}")
        # The search driver (repro.search) builds configs from generated
        # knob values; reject nonsense here, at construction, with a
        # message naming the knob — not deep inside GRO/topology code.
        if self.gro_alpha is not None and not (
                self.gro_alpha > 0 and math.isfinite(self.gro_alpha)):
            raise ValueError(
                f"gro_alpha must be positive and finite, "
                f"got {self.gro_alpha}")
        if self.gro_ewma_gain is not None and not (
                0.0 < self.gro_ewma_gain <= 1.0):
            raise ValueError(
                f"gro_ewma_gain must be in (0, 1], got {self.gro_ewma_gain}")
        if self.zoo_threshold_bytes is not None and self.zoo_threshold_bytes <= 0:
            raise ValueError(
                f"zoo_threshold_bytes must be positive, "
                f"got {self.zoo_threshold_bytes}")
        if self.fidelity == "packet":
            # explicit default: hash like historic configs
            self.fidelity = None
        if self.fidelity not in (None, "flow"):
            raise ValueError(
                f"fidelity must be 'packet' or 'flow', "
                f"got {self.fidelity!r}")

    def topology_spec(self) -> TopologySpec:
        """The fabric shape as a spec, whichever way it was given."""
        if self.topology is not None:
            return self.topology
        return TopologySpec.clos(
            self.n_spines, self.n_leaves, self.hosts_per_leaf)


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
                     alpha=cfg.gro_alpha, ewma_gain=cfg.gro_ewma_gain)
        return PrestoGro(
            adaptive=cfg.gro_adaptive,
            loss_detection=cfg.gro_loss_detection,
            **{k: v for k, v in tuned.items() if v is not None})

    def attach(self) -> None:
        """After the controller installed the underlay: telemetry
        probes, then the armed invariant observers."""
        tb = self.tb
        if tb.telemetry.enabled:
            instrument_testbed(tb)
        if tb.cfg.validate:
            # Local import: repro.validate imports this module.
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
        return MptcpConnection(tb.sim, tb.hosts[src], tb.hosts[dst],
                               tb.flow_ids, n_subflows=subflows,
                               size_bytes=size_bytes,
                               start_ns=start_ns or 0,
                               on_complete=on_complete)

    def open_probe(self, src: int, dst: int, interval_ns: int,
                   start_ns: int, stop_ns: Optional[int]) -> RttProbeApp:
        tb = self.tb
        return RttProbeApp(tb.sim, tb.hosts[src], tb.hosts[dst],
                           tb.flow_ids, interval_ns=interval_ns,
                           start_ns=start_ns, stop_ns=stop_ns)

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
            queue_flush += port.queue.drop_cause_bytes.get("link_down", 0)
            wire += port.wire_drop_bytes
        no_route = sum(sw.no_route_drop_bytes for sw in switches)
        ttl = sum(sw.ttl_drop_bytes for sw in switches)
        return Counters(
            tx_pkts=sum(h.nic.tx_pkts for h in tb.hosts),
            # a host's own egress queue is its qdisc, not a switch counter
            dropped_pkts=(
                sum(p.queue.dropped_pkts for sw in switches for p in sw.ports)
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


class Testbed:
    """A built, runnable instance of one configuration."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        cfg: TestbedConfig,
        telemetry: Optional[TelemetryConfig] = None,
    ):
        self.cfg = cfg
        self.scheme_def = get_scheme(cfg.scheme)
        self.sim = Simulator()
        # The collector is born with the testbed because it shares the
        # simulation clock; callers pass the *config*, not an instance.
        self.telemetry = (
            Telemetry(self.sim, telemetry)
            if telemetry is not None else NULL_TELEMETRY
        )
        self.streams = RandomStreams(cfg.seed)
        self.flow_ids = FlowIdAllocator()
        self.topo = self._build_topology()
        #: the one place fidelity is decided: everything below talks to
        #: the plane, never to ``cfg.fidelity``
        self.plane = (FluidPlane if cfg.fidelity == "flow"
                      else PacketPlane)(self)
        self.hosts: List[Host] = []
        self._build_hosts()
        self.controller = PrestoController(self.topo)
        for host in self.hosts:
            self.controller.register_vswitch(host.lb)
        self.topo.install_underlay(
            leaf_hash_mode=self.scheme_def.leaf_hash_mode)
        self.apps: List[object] = []
        #: modeled control plane; None until enable_control_plane()
        self.control_plane = None
        #: armed invariant probe (repro.validate); None when not armed
        self.validation = None
        #: InvariantReport from the most recent validated run()
        self.last_invariant_report = None
        self.plane.attach()

    # --- construction -----------------------------------------------------------

    def _build_topology(self) -> Topology:
        cfg = self.cfg
        return build_fabric(
            self.sim,
            (SINGLE_SWITCH if self.scheme_def.single_switch
             else cfg.topology_spec()),
            rate_bps=cfg.link_rate_bps,
            prop_delay_ns=cfg.prop_delay_ns,
            buffer_bytes=cfg.switch_buffer_bytes,
            pool_bytes=cfg.switch_pool_bytes,
            pool_alpha=cfg.pool_alpha,
        )

    def _build_hosts(self) -> None:
        cfg = self.cfg
        spec = cfg.topology_spec()
        edges = self.topo.tiers[0]
        for host_id in range(spec.n_hosts()):
            rng = self.streams.stream(f"lb{host_id}")
            host = self.plane.make_host(
                host_id, VSwitch(host_id, self.scheme_def.policy(cfg), rng))
            leaf = edges[0 if self.scheme_def.single_switch
                         else spec.edge_of(host_id)]
            self.topo.attach_host(
                host,
                leaf,
                rate_bps=cfg.link_rate_bps,
                prop_delay_ns=cfg.prop_delay_ns,
                buffer_bytes=cfg.switch_buffer_bytes,
                host_buffer_bytes=cfg.host_buffer_bytes,
            )
            self.hosts.append(host)

    # --- convenience -----------------------------------------------------------

    def pod_of(self, host_id: int) -> int:
        """Rack (edge switch) index a host logically belongs to, for any
        fabric shape.  The "optimal" single switch keeps the same
        numbering so workload generators stay scheme-agnostic."""
        return self.cfg.topology_spec().edge_of(host_id)

    def ports(self) -> List[Port]:
        """Every directional port of the fabric, at either fidelity:
        the switches' (by switch name), then each host's egress."""
        switches = self.topo.switches
        return ([p for name in sorted(switches) for p in switches[name].ports]
                + [self.topo.host_port[h.host_id].peer_port
                   for h in self.hosts])

    def enable_control_plane(self):
        """Attach the modeled control plane (repro.faults): the
        controller subscribes to every link and pushes reweighted
        schedules ``ctrl_detection_delay_ns + ctrl_reaction_delay_ns``
        after any state change.  Idempotent; returns the ControlPlane."""
        if self.control_plane is None:
            from repro.faults.controlplane import ControlPlane

            self.control_plane = ControlPlane(
                self.sim,
                self.controller,
                self.topo.links,
                detection_delay_ns=self.cfg.ctrl_detection_delay_ns,
                reaction_delay_ns=self.cfg.ctrl_reaction_delay_ns,
                tracer=self.telemetry.tracer if self.telemetry.enabled else None,
            )
        return self.control_plane

    # --- traffic ----------------------------------------------------------------

    def open(self, src: int, dst: int, size_bytes: Optional[int],
             start_ns: Optional[int], on_complete):
        """Open one transfer over the scheme's transport (a
        :data:`~repro.experiments.schemes.TRANSPORTS` row) without
        registering it in ``apps`` — what ``add_elephant`` and every
        mice request share.  ``start_ns=None`` means "now"."""
        return TRANSPORTS[self.scheme_def.transport](
            self, src, dst, size_bytes, start_ns, on_complete)

    def add_elephant(
        self,
        src: int,
        dst: int,
        size_bytes: Optional[int] = None,
        start_ns: int = 0,
        on_complete=None,
    ):
        """An elephant transfer using the scheme's transport.

        Returns a :class:`~repro.host.transfer.Transfer` that also has
        ``fct_ns``.
        """
        app = self.open(src, dst, size_bytes, start_ns, on_complete)
        self.apps.append(app)
        return app

    def add_mice(
        self,
        src: int,
        dst: int,
        size_bytes: int = 50 * KB,
        interval_ns: int = msec(100),
        start_ns: int = 0,
        stop_ns: Optional[int] = None,
    ) -> MiceApp:
        """Periodic mice flows; returns an object exposing ``fcts_ns``."""
        app = MiceApp(self, src, dst, size_bytes=size_bytes,
                      interval_ns=interval_ns, start_ns=start_ns,
                      stop_ns=stop_ns)
        self.apps.append(app)
        return app

    def add_probe(self, src: int, dst: int, interval_ns: int = msec(1),
                  start_ns: int = 0, stop_ns: Optional[int] = None):
        """An RTT probe; returns an object exposing ``rtts_ns``."""
        app = self.plane.open_probe(src, dst, interval_ns, start_ns, stop_ns)
        self.apps.append(app)
        return app

    def run(self, until_ns: int) -> None:
        self.sim.run(until=until_ns)
        self.plane.sync()
        if self.cfg.validate:
            from repro.validate.invariants import InvariantViolation

            report = self.plane.check()
            self.last_invariant_report = report
            if not report.ok:
                raise InvariantViolation(
                    f"{len(report.violations)} invariant violation(s) "
                    f"after run to t={until_ns}: "
                    + "; ".join(report.violations))


def format_table(headers: List[str], rows: List[List[object]]) -> str:
    """Plain-text table for experiment output, GitHub-markdown style."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)
