"""NIC model: TSO on transmit, ring + interrupt coalescing + GRO on receive.

Transmit: TCP hands the vSwitch/NIC segments of up to 64 KB; TSO splits
them into MSS-sized packets, *replicating the destination (shadow) MAC
and the flowcell ID onto every derived packet* exactly as the paper
relies on (S3.1).

Receive: packets land in a fixed-size ring.  An interrupt fires after a
coalescing delay (or immediately once a frame threshold is queued), and
the driver then polls the ring NAPI-style in budgeted batches — but only
when the receive core is free.  Every poll runs the GRO merge loop and
flush, charges the :class:`~repro.host.cpu.ReceiverCpu` for the work,
and delivers the flushed segments up the stack.  When the core cannot
keep up, the ring overflows and packets drop: this is the mechanism by
which small segment flooding caps throughput.

The ring size, coalescing delay and frame threshold, poll budget and
TSQ mark are the module's ``DEFAULT_*`` constants, copied onto each
NIC at construction; only the MSS is a parameter (the host passes its
TCP's).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.host.cpu import ReceiverCpu
from repro.host.gro import GroBase
from repro.net.packet import ACK, DATA, Packet, Segment
from repro.net.port import Port
from repro.sim.engine import Event, Simulator
from repro.units import usec

DEFAULT_MSS = 1448
DEFAULT_RING_SLOTS = 512
DEFAULT_COALESCE_NS = usec(15)
DEFAULT_COALESCE_FRAMES = 32
DEFAULT_POLL_BUDGET = 64
#: TSQ: at most ~2 TSO segments of any host's traffic may sit in its
#: egress queue; TCP defers further sends until the queue drains.  This
#: is what keeps real senders' bursts reaching the switch (where drops
#: belong) instead of smoothing into a gapless stream behind a deep
#: local queue.
DEFAULT_TSQ_BYTES = 128 * 1024


class Nic:
    """One host's NIC; owns the rx ring and drives GRO + the CPU model."""

    def __init__(
        self,
        sim: Simulator,
        gro: GroBase,
        cpu: ReceiverCpu,
        mss: int = DEFAULT_MSS,
    ):
        self.sim = sim
        self.gro = gro
        self.cpu = cpu
        self.mss = mss
        self.ring_slots = DEFAULT_RING_SLOTS
        self.coalesce_ns = DEFAULT_COALESCE_NS
        self.coalesce_frames = DEFAULT_COALESCE_FRAMES
        self.poll_budget = DEFAULT_POLL_BUDGET
        self.tsq_bytes = DEFAULT_TSQ_BYTES
        self.port: Optional[Port] = None  # egress toward the leaf switch
        #: per-derived-packet hook for spraying schemes: ``(flow_id,
        #: dst_host) -> (dst_mac, flowcell_id)``, or None (keep TSO's)
        self.packet_label: Optional[Callable] = None
        #: upcalls, wired by Host
        self.on_segment: Callable[[Segment], None] = lambda seg: None
        self.on_ack_packet: Callable[[Packet], None] = lambda pkt: None

        self._ring: deque = deque()
        self._interrupt_event: Optional[Event] = None
        self._poll_pending = False
        self._gro_timer: Optional[Event] = None

        self.ring_drops = 0
        self.ring_drop_bytes = 0
        self.rx_pkts = 0
        self.rx_bytes = 0
        self.tx_pkts = 0
        self.tx_bytes = 0
        self.tx_segments = 0
        #: optional telemetry probe (repro.telemetry); None = disabled
        self.probe = None

    # --- transmit ---------------------------------------------------------------

    def attach_port(self, port: Port) -> None:
        self.port = port
        port.queue.track_flows = True

    def tx_ok(self, flow_id: int) -> bool:
        """Per-socket TSQ check: may this flow queue another segment?"""
        if self.port is None:
            return True
        return self.port.queue.flow_bytes.get(flow_id, 0) < self.tsq_bytes

    def tx_segment(self, seg: Segment) -> None:
        """TSO: fan the segment out into MSS packets and queue them."""
        if self.port is None:
            raise RuntimeError("NIC not attached to a port")
        self.tx_segments += 1
        if seg.kind == ACK or seg.payload_len == 0:
            pkt = Packet(
                flow_id=seg.flow_id,
                src_host=seg.src_host,
                dst_host=seg.dst_host,
                dst_mac=seg.dst_mac,
                kind=seg.kind,
                seq=seg.seq,
                payload_len=0,
                flowcell_id=seg.flowcell_id,
                is_retx=seg.is_retx,
                ack_seq=seg.ack_seq,
                sack=seg.sack,
                ts=seg.ts,
                ts_echo=seg.ts_echo,
            )
            self._tx_packet(pkt)
            return
        offset = seg.seq
        end_seq = seg.end_seq
        mss = self.mss
        while offset < end_seq:
            payload = end_seq - offset
            if payload > mss:
                payload = mss
            pkt = Packet(
                seg.flow_id,
                seg.src_host,
                seg.dst_host,
                seg.dst_mac,
                DATA,
                offset,
                payload,
                seg.flowcell_id,
                seg.is_retx,
                0,
                (),
                seg.ts,
            )
            self._tx_packet(pkt)
            offset += payload

    def _tx_packet(self, pkt: Packet) -> None:
        if self.packet_label is not None:
            label = self.packet_label(pkt.flow_id, pkt.dst_host)
            if label is not None:
                pkt.dst_mac, pkt.flowcell_id = label
        self.tx_pkts += 1
        self.tx_bytes += pkt.wire_size
        self.port.send(pkt)

    # --- receive ----------------------------------------------------------------

    def rx(self, pkt: Packet, in_port=None) -> None:
        """Accepts the Port.receive ``(pkt, in_port)`` calling convention
        so a Host can wire its delivery port straight to the ring and
        skip a per-packet indirection; ``in_port`` is unused."""
        if len(self._ring) >= self.ring_slots:
            self.ring_drops += 1
            self.ring_drop_bytes += pkt.wire_size
            if self.probe is not None:
                self.probe.on_ring_drop(pkt)
            return
        self.rx_pkts += 1
        self.rx_bytes += pkt.wire_size
        self._ring.append(pkt)
        if self._poll_pending:
            return
        if len(self._ring) >= self.coalesce_frames:
            if self._interrupt_event is not None:
                self._interrupt_event.cancel()
                self._interrupt_event = None
            self._schedule_poll()
        elif self._interrupt_event is None:
            self._interrupt_event = self.sim.timer(self.coalesce_ns, self._interrupt)

    def _interrupt(self) -> None:
        self._interrupt_event = None
        if not self._poll_pending and self._ring:
            self._schedule_poll()

    def _schedule_poll(self) -> None:
        self._poll_pending = True
        delay = max(0, self.cpu.free_at() - self.sim.now)
        self.sim.schedule(delay, self._poll)

    def _poll(self) -> None:
        now = self.sim.now
        costs = self.cpu.costs
        cost = 0.0
        budget = self.poll_budget
        presto = self.gro.name == "presto"
        acks: List[Packet] = []
        ring = self._ring
        merge = self.gro.merge
        while ring and budget > 0:
            pkt = ring.popleft()
            budget -= 1
            if pkt.kind == ACK:
                acks.append(pkt)
                cost += costs.per_ack_ns
            else:
                merge(pkt, now)
                cost += costs.per_merge_pkt_ns
                if presto:
                    cost += costs.presto_per_pkt_ns
        if presto:
            cost += costs.presto_flush_ns
            cost += costs.presto_per_held_segment_ns * self.gro.held_segment_count()
        segments = self.gro.flush(now)
        for seg in segments:
            cost += costs.segment_push_cost(seg.payload_len)
        self.cpu.consume(cost)
        self.cpu.checkpoint()
        if self.probe is not None:
            self.probe.on_poll(
                now, cost, self.poll_budget - budget, len(segments))
        for pkt in acks:
            self.on_ack_packet(pkt)
        for seg in segments:
            self.on_segment(seg)
        if self._ring:
            # Stay in polling mode: next batch as soon as the core is free.
            delay = max(0, self.cpu.free_at() - self.sim.now)
            self.sim.schedule(delay, self._poll)
        else:
            self._poll_pending = False
            self._arm_gro_timer()

    def _arm_gro_timer(self) -> None:
        if self._gro_timer is not None:
            self._gro_timer.cancel()
            self._gro_timer = None
        deadline = self.gro.earliest_deadline()
        if deadline is None:
            return
        # The 1 us floor guards against zero-delay rescheduling storms when
        # a deadline computed in the past cannot fire yet (beta extension).
        delay = max(usec(1), deadline - self.sim.now)
        self._gro_timer = self.sim.timer(delay, self._gro_timer_fire)

    def _gro_timer_fire(self) -> None:
        self._gro_timer = None
        if self._poll_pending:
            return  # a poll will flush anyway
        now = self.sim.now
        segments = self.gro.flush(now)
        if segments:
            cost = sum(self.cpu.costs.segment_push_cost(s.payload_len) for s in segments)
            self.cpu.consume(cost)
            self.cpu.checkpoint()
            for seg in segments:
                self.on_segment(seg)
        self._arm_gro_timer()
