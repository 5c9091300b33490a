"""Unit tests for the NIC: TSO, interrupt coalescing, ring, TSQ."""

from types import SimpleNamespace

from repro.host.cpu import CpuCosts, ReceiverCpu
from repro.host.gro import OfficialGro, PrestoGro
from repro.host.host import Host
from repro.host.nic import Nic
from repro.net.link import Link
from repro.net.packet import ACK, DATA, Packet, Segment, make_ack
from repro.net.port import Port
from repro.sim.engine import Simulator
from repro.units import KB, gbps, usec


class Collector:
    def __init__(self):
        self.segments = []
        self.acks = []

    def on_segment(self, seg):
        self.segments.append(seg)

    def on_ack(self, pkt):
        self.acks.append(pkt)


def make_nic(sim, gro=None, zero_cost=True, **attrs):
    """A NIC with a zero-cost CPU; ``attrs`` overwrite its constants
    (``ring_slots=8``, ``tsq_bytes=...``) after construction."""
    cpu = ReceiverCpu(sim, CpuCosts(0, 0, 0, 0, 0, 0, 0) if zero_cost else None)
    nic = Nic(sim, gro if gro is not None else OfficialGro(), cpu)
    for name, value in attrs.items():
        setattr(nic, name, value)
    sink = Collector()
    nic.on_segment = sink.on_segment
    nic.on_ack_packet = sink.on_ack
    return nic, sink


class TxSink:
    """Node collecting what the NIC's port transmits."""

    def __init__(self):
        self.pkts = []

    def receive(self, pkt, in_port):
        self.pkts.append(pkt)


def attach_tx(sim, nic):
    link = Link("h->sw", gbps(10), usec(1))
    port = Port(sim, "h->sw", link, 10_000_000)
    sink = TxSink()
    port.peer = sink
    nic.attach_port(port)
    return sink


def data_segment(size, seq=0, cell=3, mac=77, flow=1):
    return Segment(flow_id=flow, src_host=0, dst_host=1, dst_mac=mac,
                   kind=DATA, seq=seq, end_seq=seq + size, flowcell_id=cell)


class TestTso:
    def test_splits_to_mss(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        tx = attach_tx(sim, nic)
        nic.tx_segment(data_segment(64 * KB))
        sim.run()
        assert len(tx.pkts) == 46  # ceil(65536 / 1448)
        assert sum(p.payload_len for p in tx.pkts) == 64 * KB
        assert all(p.payload_len <= nic.mss for p in tx.pkts)

    def test_tso_cuts_at_the_hosts_mss(self):
        """A host's NIC cuts segments at its TCP's MSS, not the NIC
        default."""
        from repro.host.tcp import TcpConfig

        sim = Simulator()
        host = Host(sim, 0, model_cpu=False, tcp_cfg=TcpConfig(mss=1000))
        tx = attach_tx(sim, host.nic)
        host.nic.tx_segment(data_segment(10 * KB))
        sim.run()
        assert [p.payload_len for p in tx.pkts] == [1000] * 10 + [240]

    def test_replicates_mac_and_flowcell(self):
        """The property Presto relies on: TSO copies header fields to
        every derived packet."""
        sim = Simulator()
        nic, _ = make_nic(sim)
        tx = attach_tx(sim, nic)
        nic.tx_segment(data_segment(10 * KB, cell=9, mac=1234))
        sim.run()
        assert all(p.dst_mac == 1234 and p.flowcell_id == 9 for p in tx.pkts)

    def test_sequence_numbers_contiguous(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        tx = attach_tx(sim, nic)
        nic.tx_segment(data_segment(20 * KB, seq=5000))
        sim.run()
        seq = 5000
        for p in sorted(tx.pkts, key=lambda p: p.seq):
            assert p.seq == seq
            seq = p.end_seq
        assert seq == 5000 + 20 * KB

    def test_ack_is_single_packet(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        tx = attach_tx(sim, nic)
        ack = make_ack(1, 0, 1, ack_seq=100)
        ack.dst_mac = 7
        nic.tx_segment(ack)
        sim.run()
        assert len(tx.pkts) == 1
        assert tx.pkts[0].kind == ACK

    def test_packet_labeler_hook(self):
        sim = Simulator()
        nic, _ = make_nic(sim)
        tx = attach_tx(sim, nic)
        labels = iter(zip(range(1000, 2000), range(50, 1050)))
        nic.packet_label = lambda flow_id, dst_host: next(labels)
        nic.tx_segment(data_segment(10 * KB))
        sim.run()
        assert [(p.dst_mac, p.flowcell_id) for p in tx.pkts] == [
            (1000 + i, 50 + i) for i in range(len(tx.pkts))]

    def test_packet_labeler_hook_may_decline(self):
        """None from the hook keeps what TSO replicated (a pinned flow
        under a spraying scheme)."""
        sim = Simulator()
        nic, _ = make_nic(sim)
        tx = attach_tx(sim, nic)
        nic.packet_label = lambda flow_id, dst_host: None
        nic.tx_segment(data_segment(10 * KB, cell=9, mac=1234))
        sim.run()
        assert all(p.dst_mac == 1234 and p.flowcell_id == 9 for p in tx.pkts)


def rx_pkt(seq, flow=1, cell=1, kind=DATA, size=1448):
    return Packet(flow_id=flow, src_host=1, dst_host=0, dst_mac=0, kind=kind,
                  seq=seq, payload_len=size if kind == DATA else 0,
                  flowcell_id=cell)


class TestRx:
    def test_coalescing_delays_delivery(self):
        sim = Simulator()
        nic, sink = make_nic(sim, coalesce_ns=usec(15))
        nic.rx(rx_pkt(0))
        sim.run(until=usec(10))
        assert sink.segments == []  # interrupt not fired yet
        sim.run(until=usec(30))
        assert len(sink.segments) == 1

    def test_frame_threshold_triggers_immediate_poll(self):
        sim = Simulator()
        nic, sink = make_nic(sim, coalesce_ns=usec(50), coalesce_frames=4)
        for i in range(4):
            nic.rx(rx_pkt(i * 1448))
        sim.run(until=usec(1))
        assert len(sink.segments) == 1  # merged batch, before 50us

    def test_ring_overflow_drops(self):
        sim = Simulator()
        nic, _ = make_nic(sim, ring_slots=8)
        for i in range(12):
            nic.rx(rx_pkt(i * 1448))
        assert nic.ring_drops == 4

    def test_acks_bypass_gro(self):
        sim = Simulator()
        nic, sink = make_nic(sim)
        nic.rx(rx_pkt(0, kind=ACK))
        sim.run()
        assert len(sink.acks) == 1
        assert sink.segments == []

    def test_busy_cpu_backs_up_ring(self):
        """The small-segment-flooding mechanism: with expensive per-segment
        costs, the ring accumulates while the core is busy."""
        sim = Simulator()
        cpu_costs = CpuCosts(per_segment_ns=50_000, per_merge_pkt_ns=0,
                             per_byte_ns=0, per_ack_ns=0,
                             presto_per_pkt_ns=0, presto_flush_ns=0,
                             presto_per_held_segment_ns=0)
        cpu = ReceiverCpu(sim, cpu_costs)
        nic = Nic(sim, OfficialGro(), cpu)
        nic.ring_slots, nic.coalesce_frames = 16, 1
        delivered = []
        nic.on_segment = delivered.append
        # feed 100 packets of 100 different flows over 100us: each becomes
        # its own segment costing 50us -> core saturates, ring overflows
        for i in range(100):
            sim.schedule(i * usec(1), nic.rx, rx_pkt(0, flow=i))
        sim.run()
        assert nic.ring_drops > 0
        assert cpu.utilization(0, sim.now) > 0.9

    def test_gro_hold_timer_flushes(self):
        sim = Simulator()
        nic, sink = make_nic(sim, gro=PrestoGro(initial_ewma_ns=usec(30)))
        # cell 1 fully delivered
        nic.rx(rx_pkt(0, cell=1))
        sim.run(until=usec(40))
        # cell 3 arrives out of order (boundary gap) -> held
        nic.rx(rx_pkt(4344, cell=3))
        sim.run(until=usec(70))
        held_before = [s for s in sink.segments if s.seq == 4344]
        assert held_before == []
        # eventually the adaptive timeout fires via the NIC timer
        sim.run(until=usec(400))
        assert any(s.seq == 4344 for s in sink.segments)


class TestTsq:
    def test_tx_ok_per_flow(self):
        sim = Simulator()
        nic, _ = make_nic(sim, tsq_bytes=100 * KB)
        attach_tx(sim, nic)
        assert nic.tx_ok(1)
        nic.tx_segment(data_segment(64 * KB, flow=1))
        nic.tx_segment(data_segment(64 * KB, seq=64 * KB, flow=1))
        assert not nic.tx_ok(1)   # >100KB of flow 1 queued
        assert nic.tx_ok(2)       # other flows unaffected
        sim.run()
        assert nic.tx_ok(1)       # drained

    def test_tx_space_callback_fires(self):
        """A host's uplink wakes a TSQ-parked sender as that flow's
        packets leave the egress queue, once it is below the mark."""
        sim = Simulator()
        host = Host(sim, 0, model_cpu=False)
        host.nic.tsq_bytes = 100 * KB
        port = Port(sim, "h->sw", Link("h->sw", gbps(10), usec(1)), 10_000_000)
        port.peer = TxSink()
        host.attach(port, None)
        woken = []
        parked = SimpleNamespace(flow_id=5,
                                 on_tx_space=lambda: woken.append(sim.now))
        host.nic.tx_segment(data_segment(64 * KB, flow=5))
        host.nic.tx_segment(data_segment(64 * KB, seq=64 * KB, flow=5))
        host.tsq_block(parked)
        assert not host.tx_ok(5)
        sim.run()
        assert len(woken) == 1          # woken once, then unparked
        assert host.tx_ok(5)
