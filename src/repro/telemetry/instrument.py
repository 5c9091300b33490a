"""Probe objects + `instrument_testbed`: attach telemetry to a Testbed.

Two complementary mechanisms feed the registry:

* **Probes** are small objects installed on a component's ``probe``
  attribute (which defaults to ``None``; call sites are guarded, so
  the disabled path never pays for them).  They capture *distributional*
  data that only exists in the moment — queue depth at enqueue, GRO
  hold durations, NIC poll batch cost — and emit trace events.
* **Samplers** run at snapshot time and mirror the simulator's own
  cumulative counters (drops by cause, tx/rx packets, retransmit
  stats) into registry metrics.  Nothing is double-counted: probes
  never increment counters a sampler also reads.  What a measurement
  ``Window`` also reads (``faults.blackholed_bytes.*``) is mirrored
  from the data plane's one read-out, ``plane.counters()``; the
  per-port / per-switch / per-host detail only telemetry wants is
  read from the components here.

Metric names follow ``component.instance.metric``:

    switch.L1.rx_pkts            port.L1->S1.depth_bytes
    port.L1->S1.drops.pool       host.h0.nic.ring_drops
    host.h0.gro.hold_ns          host.h0.tcp.fast_retransmits
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import (
    DEPTH_BUCKETS_BYTES,
    DURATION_BUCKETS_NS,
    SIZE_BUCKETS_BYTES,
    MetricsRegistry,
)

#: NIC poll batch sizes: 1 .. 64 packets in powers of two
POLL_BATCH_BUCKETS = tuple(1 << k for k in range(0, 7))


class QueueProbe:
    """Per-port queue observer: depth distribution + drop trace events.

    Drop *counts* (by cause) are always kept by the queue itself and
    mirrored by the sampler; this probe adds the depth histogram and
    the per-drop trace instant.
    """

    __slots__ = ("depth", "tracer", "track")

    def __init__(self, telemetry: Telemetry, port_name: str):
        self.depth = telemetry.registry.histogram(
            f"port.{port_name}.depth_bytes", DEPTH_BUCKETS_BYTES)
        self.tracer = telemetry.tracer
        self.track = f"port:{port_name}"

    def on_enqueue(self, pkt, depth_bytes: int) -> None:
        self.depth.observe(depth_bytes)

    def on_drop(self, pkt, cause: str, depth_bytes: int) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "queue", f"drop:{cause}", self.track,
                {"flow": pkt.flow_id, "seq": pkt.seq,
                 "bytes": pkt.wire_size, "depth_bytes": depth_bytes},
            )


class NicProbe:
    """Per-host NIC observer: poll batch cost spans + ring-drop instants."""

    __slots__ = ("batch_pkts", "poll_cost", "tracer", "track")

    def __init__(self, telemetry: Telemetry, host_id: int):
        reg = telemetry.registry
        prefix = f"host.h{host_id}.nic"
        self.batch_pkts = reg.histogram(
            f"{prefix}.poll_batch_pkts", POLL_BATCH_BUCKETS)
        self.poll_cost = reg.histogram(
            f"{prefix}.poll_cost_ns", DURATION_BUCKETS_NS)
        self.tracer = telemetry.tracer
        self.track = f"host:h{host_id}:nic"

    def on_ring_drop(self, pkt) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "nic", "ring_drop", self.track,
                {"flow": pkt.flow_id, "seq": pkt.seq},
            )

    def on_poll(self, now_ns: int, cost_ns: float, n_pkts: int,
                n_segments: int) -> None:
        self.batch_pkts.observe(n_pkts)
        cost = int(cost_ns)
        self.poll_cost.observe(cost)
        if self.tracer is not None:
            self.tracer.complete(
                "nic", "poll", self.track, now_ns, cost,
                {"pkts": n_pkts, "segments": n_segments},
            )


class GroProbe:
    """Per-host GRO observer: hold/flush decisions of Algorithm 2."""

    __slots__ = ("hold", "segment_bytes", "reorder_wait",
                 "tracer", "track")

    def __init__(self, telemetry: Telemetry, host_id: int):
        reg = telemetry.registry
        prefix = f"host.h{host_id}.gro"
        self.hold = reg.histogram(f"{prefix}.hold_ns", DURATION_BUCKETS_NS)
        self.segment_bytes = reg.histogram(
            f"{prefix}.segment_bytes", SIZE_BUCKETS_BYTES)
        self.reorder_wait = reg.histogram(
            f"{prefix}.reorder_wait_ns", DURATION_BUCKETS_NS)
        self.tracer = telemetry.tracer
        self.track = f"host:h{host_id}:gro"

    def on_push(self, flow_id: int, seg, now_ns: int) -> None:
        self.segment_bytes.observe(seg.payload_len)
        held_ns = now_ns - seg.created_at
        if held_ns > 0:
            self.hold.observe(held_ns)
            if self.tracer is not None:
                self.tracer.complete(
                    "gro", "hold", self.track, seg.created_at, held_ns,
                    {"flow": flow_id, "cell": seg.flowcell_id,
                     "bytes": seg.payload_len},
                )

    def on_loss_detected(self, flow_id: int, seg, now_ns: int) -> None:
        """Intra-flowcell gap pushed immediately: loss, not reordering."""
        if self.tracer is not None:
            self.tracer.instant(
                "gro", "loss_detected", self.track,
                {"flow": flow_id, "cell": seg.flowcell_id, "seq": seg.seq},
            )

    def on_timeout(self, flow_id: int, seg, now_ns: int) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "gro", "hold_timeout", self.track,
                {"flow": flow_id, "cell": seg.flowcell_id,
                 "held_ns": now_ns - seg.created_at},
            )

    def on_reorder_sample(self, flow_id: int, wait_ns: int) -> None:
        self.reorder_wait.observe(wait_ns)
        if self.tracer is not None:
            self.tracer.instant(
                "gro", "reorder_sample", self.track,
                {"flow": flow_id, "wait_ns": wait_ns},
            )

    def on_evict(self, flow_id: int, seg, now_ns: int) -> None:
        """Official GRO ejecting a segment it could not merge into."""
        self.segment_bytes.observe(seg.payload_len)
        if self.tracer is not None:
            self.tracer.instant(
                "gro", "evict", self.track,
                {"flow": flow_id, "bytes": seg.payload_len},
            )


class TcpProbe:
    """Per-host TCP observer: RTO / fast-retransmit / recovery spans."""

    __slots__ = ("tracer", "track")

    def __init__(self, telemetry: Telemetry, host_id: int):
        self.tracer = telemetry.tracer
        self.track = f"host:h{host_id}:tcp"

    def on_fast_retransmit(self, flow_id: int, snd_una: int,
                           snd_nxt: int) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "tcp", "fast_retransmit", self.track,
                {"flow": flow_id, "una": snd_una, "nxt": snd_nxt},
            )

    def on_rto(self, flow_id: int, snd_una: int, snd_nxt: int,
               rto_ns: int) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "tcp", "rto", self.track,
                {"flow": flow_id, "una": snd_una, "nxt": snd_nxt,
                 "rto_ns": rto_ns},
            )

    def on_recovery_end(self, flow_id: int, start_ns: int,
                        now_ns: int) -> None:
        if self.tracer is not None:
            self.tracer.complete(
                "tcp", "recovery", self.track, start_ns, now_ns - start_ns,
                {"flow": flow_id},
            )


class FlowcellProbe:
    """Per-host vSwitch observer: flowcell path assignments."""

    __slots__ = ("assigned", "tracer", "track", "_last")

    def __init__(self, telemetry: Telemetry, host_id: int):
        self.assigned = telemetry.registry.counter(
            f"host.h{host_id}.presto.flowcells_assigned")
        self.tracer = telemetry.tracer
        self.track = f"host:h{host_id}:vswitch"
        self._last = None

    def on_flowcell(self, flow_id: int, path_index: int, cell: int) -> None:
        # count each flowcell once, on its first segment
        key = (flow_id, cell)
        if key != self._last:
            self._last = key
            self.assigned.inc()
            if self.tracer is not None:
                self.tracer.instant(
                    "presto", "flowcell", self.track,
                    {"flow": flow_id, "cell": cell, "path": path_index},
                )


def _watch_links(telemetry: Telemetry, topo) -> None:
    """Emit a trace instant on every link state/rate change, so fault
    timelines line up with queue/GRO/TCP activity in Perfetto.

    Observation only: the callback reads the link and writes the trace
    buffer; failover groups and the control plane keep their own
    subscriptions."""
    tracer = telemetry.tracer
    if tracer is None:
        return
    for link in topo.links:
        state = {"up": link.up}

        def on_change(changed, state=state):
            if changed.up != state["up"]:
                state["up"] = changed.up
                tracer.instant(
                    "fault", "link_up" if changed.up else "link_down",
                    f"link:{changed.name}", {"rate_bps": changed.rate_bps})
            else:  # same up/down state: the rate moved (degraded optics)
                tracer.instant(
                    "fault", "link_rate", f"link:{changed.name}",
                    {"rate_bps": changed.rate_bps})

        link.on_state_change.append(on_change)


def _switch_sampler(topo):
    def sample(reg: MetricsRegistry) -> None:
        for name in sorted(topo.switches):
            sw = topo.switches[name]
            reg.counter(f"switch.{name}.rx_pkts").record_total(sw.rx_pkts)
            reg.counter(f"switch.{name}.drops.no_route").record_total(
                sw.no_route_drops)
            reg.counter(f"switch.{name}.drops.ttl").record_total(sw.ttl_drops)
            if sw.shared_buffer is not None:
                reg.gauge(f"switch.{name}.pool_used_bytes").set(
                    sw.shared_buffer.used_bytes)
            for port in sw.ports:
                prefix = f"port.{port.name}"
                reg.counter(f"{prefix}.tx_pkts").record_total(port.tx_pkts)
                reg.counter(f"{prefix}.tx_bytes").record_total(port.tx_bytes)
                reg.counter(f"{prefix}.drops.total").record_total(
                    port.dropped_pkts)
                for cause, n in sorted(port.drop_causes.items()):
                    reg.counter(f"{prefix}.drops.{cause}").record_total(n)
                if port.wire_drop_pkts:
                    reg.counter(f"{prefix}.drops.wire").record_total(
                        port.wire_drop_pkts)
                reg.gauge(f"{prefix}.queued_bytes").set(
                    port.bytes_queued)
    return sample


def _host_sampler(hosts):
    def sample(reg: MetricsRegistry) -> None:
        for host in hosts:
            prefix = f"host.h{host.host_id}"
            nic = host.nic
            reg.counter(f"{prefix}.nic.tx_pkts").record_total(nic.tx_pkts)
            reg.counter(f"{prefix}.nic.tx_segments").record_total(
                nic.tx_segments)
            reg.counter(f"{prefix}.nic.rx_pkts").record_total(nic.rx_pkts)
            reg.counter(f"{prefix}.nic.ring_drops").record_total(
                nic.ring_drops)
            gro = host.gro
            reg.counter(f"{prefix}.gro.merged_pkts").record_total(
                gro.merged_pkts)
            if hasattr(gro, "timeout_fires"):
                reg.counter(f"{prefix}.gro.timeout_fires").record_total(
                    gro.timeout_fires)
                reg.counter(f"{prefix}.gro.reorder_samples").record_total(
                    gro.reorder_samples)
            if hasattr(gro, "evicted_segments"):
                reg.counter(f"{prefix}.gro.evicted_segments").record_total(
                    gro.evicted_segments)
            timeouts = fast_rtx = bytes_retx = 0
            for sender in host.senders.values():
                timeouts += sender.timeouts
                fast_rtx += sender.fast_retransmits
                bytes_retx += sender.bytes_retx
            reg.counter(f"{prefix}.tcp.timeouts").record_total(timeouts)
            reg.counter(f"{prefix}.tcp.fast_retransmits").record_total(
                fast_rtx)
            reg.counter(f"{prefix}.tcp.bytes_retx").record_total(bytes_retx)
    return sample


def _blackhole_sampler(plane):
    """Failure-loss byte counters, mirrored from the plane's read-out."""
    def sample(reg: MetricsRegistry) -> None:
        for mechanism, value in sorted(plane.counters().blackholed.items()):
            reg.counter(
                f"faults.blackholed_bytes.{mechanism}").record_total(value)
    return sample


def instrument_testbed(tb) -> None:
    """Install probes on every hot component of ``tb`` and register the
    snapshot-time samplers.  Idempotent per testbed; only called when
    ``tb.telemetry.enabled``."""
    telemetry: Telemetry = tb.telemetry
    # switch queues, and each host's own egress queue (its qdisc)
    for port in tb.ports():
        port.probe = QueueProbe(telemetry, port.name)
    for host in tb.hosts:
        host.nic.probe = NicProbe(telemetry, host.host_id)
        host.gro.probe = GroProbe(telemetry, host.host_id)
        host.tcp_probe = TcpProbe(telemetry, host.host_id)
        host.lb.probe = FlowcellProbe(telemetry, host.host_id)
    _watch_links(telemetry, tb.topo)
    telemetry.add_sampler(_switch_sampler(tb.topo))
    telemetry.add_sampler(_host_sampler(tb.hosts))
    telemetry.add_sampler(_blackhole_sampler(tb.plane))
