"""Host: glues application, TCP, vSwitch (load balancer), NIC, GRO and
the CPU model into one endpoint attachable to a topology."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.host.cpu import CpuCosts, ReceiverCpu
from repro.host.gro import GroBase, OfficialGro
from repro.host.nic import Nic
from repro.host.tcp import TcpConfig, TcpReceiver, TcpSender
from repro.lb.base import VSwitch
from repro.net.packet import ACK, DATA, Packet, Segment
from repro.sim.engine import Simulator


class Host:
    """One server: single NIC, one receive core, a vSwitch datapath."""

    #: optional telemetry probe for this host's TCP stack (repro.telemetry)
    tcp_probe = None

    def __init__(
        self,
        sim: Simulator,
        host_id: int,
        lb: Optional[VSwitch] = None,
        gro: Optional[GroBase] = None,
        cpu_costs: Optional[CpuCosts] = None,
        tcp_cfg: Optional[TcpConfig] = None,
        model_cpu: bool = True,
        **nic_kwargs,
    ):
        self.sim = sim
        self.host_id = host_id
        self.lb = lb if lb is not None else VSwitch(host_id)
        self.gro = gro if gro is not None else OfficialGro()
        self.cpu = ReceiverCpu(sim, cpu_costs)
        if not model_cpu:
            # Zero costs: the stack is never the bottleneck (useful for
            # pure network-effect experiments and fast unit tests).
            self.cpu.costs = CpuCosts(0, 0, 0, 0, 0, 0, 0)
        self.tcp_cfg = tcp_cfg if tcp_cfg is not None else TcpConfig()
        self.nic = Nic(sim, self.gro, self.cpu, mss=self.tcp_cfg.mss,
                       **nic_kwargs)
        self.nic.on_segment = self._on_segment
        self.nic.on_ack_packet = self._on_ack_packet
        self._tsq_blocked: Dict[int, object] = {}
        if self.lb.policy.sprays:
            self.nic.packet_label = self.lb.spray

        self.senders: Dict[int, TcpSender] = {}
        self.receivers: Dict[int, TcpReceiver] = {}
        self._data_callbacks: Dict[int, Callable[[int], None]] = {}
        #: observation hook fired for every data segment pushed up by GRO
        #: (used by reordering metrics); receives the Segment.
        self.segment_tap: Optional[Callable[[Segment], None]] = None
        #: observation hook fired for every outgoing segment after the
        #: vSwitch labelled it (used by the flowlet-size analysis).
        self.tx_tap: Optional[Callable[[Segment], None]] = None
        self.topo = None

    # --- topology wiring --------------------------------------------------------

    def attach(self, egress_port, topo) -> None:
        """Called by Topology.attach_host with this host's uplink port."""
        self.nic.attach_port(egress_port)
        # TSQ: each packet leaving the egress queue may wake its sender
        egress_port.on_dequeue = self._wake_blocked_sender
        self.topo = topo
        # Shadow the receive() method with the NIC's bound rx: the leaf
        # port then lands packets in the ring without an extra frame.
        self.receive = self.nic.rx

    def receive(self, pkt: Packet, in_port) -> None:
        """Packets arriving from the leaf switch land in the NIC ring."""
        self.nic.rx(pkt)

    # --- send path -----------------------------------------------------------------

    def send_segment(self, seg: Segment) -> None:
        """vSwitch datapath: label the segment, then hand it to TSO."""
        seg.dst_mac, seg.flowcell_id = self.lb.label(
            seg.flow_id, seg.dst_host, seg.payload_len, seg.end_seq,
            self.sim.now)
        if self.tx_tap is not None:
            self.tx_tap(seg)
        self.nic.tx_segment(seg)

    def tx_ok(self, flow_id: int) -> bool:
        """Per-socket TSQ gate (head retransmissions and ACKs bypass it)."""
        return self.nic.tx_ok(flow_id)

    def tsq_block(self, sender) -> None:
        """Park a sender until its bytes drain below the TSQ mark."""
        self._tsq_blocked[sender.flow_id] = sender

    def _wake_blocked_sender(self, pkt: Packet) -> None:
        blocked = self._tsq_blocked
        if not blocked:  # common case: fires per dequeued packet
            return
        flow_id = pkt.flow_id
        sender = blocked.get(flow_id)
        if sender is not None and self.nic.tx_ok(flow_id):
            del blocked[flow_id]
            sender.on_tx_space()

    def open_sender(
        self,
        flow_id: int,
        dst_host: int,
        on_complete: Optional[Callable[[TcpSender], None]] = None,
        cc=None,
        cfg: Optional[TcpConfig] = None,
    ) -> TcpSender:
        if flow_id in self.senders:
            raise ValueError(f"flow {flow_id} already open on host {self.host_id}")
        sender = TcpSender(
            self.sim, self, flow_id, dst_host,
            cfg if cfg is not None else self.tcp_cfg,
            on_complete, cc=cc,
        )
        self.senders[flow_id] = sender
        return sender

    def expect_flow(self, flow_id: int, on_data: Callable[[int], None]) -> None:
        """Register an application callback for a flow that will arrive.

        ``on_data(total_delivered_bytes)`` fires on every in-order
        delivery advance.
        """
        self._data_callbacks[flow_id] = on_data
        receiver = self.receivers.get(flow_id)
        if receiver is not None:
            receiver.on_data = on_data

    # --- receive path ----------------------------------------------------------------

    def _on_segment(self, seg: Segment) -> None:
        if seg.kind != DATA:
            return
        if self.segment_tap is not None:
            self.segment_tap(seg)
        receiver = self.receivers.get(seg.flow_id)
        if receiver is None:
            receiver = TcpReceiver(
                self.sim,
                self,
                seg.flow_id,
                seg.src_host,
                self.tcp_cfg,
                on_data=self._data_callbacks.get(seg.flow_id),
            )
            self.receivers[seg.flow_id] = receiver
        receiver.on_segment(seg)

    def _on_ack_packet(self, pkt: Packet) -> None:
        sender = self.senders.get(pkt.flow_id)
        if sender is not None:
            sender.on_ack_packet(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.host_id} lb={type(self.lb.policy).__name__}>"
