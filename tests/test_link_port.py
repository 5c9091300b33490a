"""Unit tests for links and ports (serialization, delivery, failure)."""

import itertools

import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.port import Port, SharedBuffer
from repro.sim.engine import Simulator
from repro.units import HEADER_BYTES, gbps, serialization_time_ns, usec


class SinkNode:
    def __init__(self):
        self.received = []

    def receive(self, pkt, in_port):
        self.received.append(pkt)


def pkt(size=1000, flow=1):
    return Packet(flow_id=flow, src_host=0, dst_host=1, dst_mac=1,
                  kind="data", seq=0, payload_len=size, flowcell_id=1)


def make_port(sim, rate=gbps(10), delay=usec(1), buffer_bytes=100_000):
    link = Link("test", rate, delay)
    port = Port(sim, "a->b", link, buffer_bytes)
    sink = SinkNode()
    port.peer = sink
    return port, sink, link


def test_delivery_after_serialization_plus_propagation():
    sim = Simulator()
    port, sink, link = make_port(sim)
    p = pkt(1000)
    port.send(p)
    sim.run()
    expected = serialization_time_ns(p.wire_size, link.rate_bps) + link.prop_delay_ns
    assert sink.received == [p]
    assert sim.now == expected


def test_back_to_back_pipelining():
    """Transmitter is released at serialization end; packets arrive
    spaced by serialization time, each shifted by the propagation."""
    sim = Simulator()
    port, sink, link = make_port(sim)
    times = []
    sink.receive = lambda p, _: times.append(sim.now)
    port.send(pkt(1000))
    port.send(pkt(1000))
    sim.run()
    ser = serialization_time_ns(1000 + HEADER_BYTES, link.rate_bps)
    assert times[1] - times[0] == ser


def test_hop_counter_increments():
    sim = Simulator()
    port, sink, _ = make_port(sim)
    p = pkt()
    port.send(p)
    sim.run()
    assert p.hops == 1


def test_link_down_drops_sends():
    sim = Simulator()
    port, sink, link = make_port(sim)
    link.set_down()
    assert not port.send(pkt())
    assert port.dropped_pkts == 1
    sim.run()
    assert sink.received == []


def test_link_down_flushes_queue():
    sim = Simulator()
    port, sink, link = make_port(sim)
    for _ in range(5):
        port.send(pkt())
    link.set_down()
    sim.run()
    # at most the packet already on the wire survives
    assert len(sink.received) <= 1


def test_link_state_callbacks():
    link = Link("cb")
    events = []
    link.on_state_change.append(lambda l: events.append(l.up))
    link.set_down()
    link.set_down()  # idempotent
    link.set_up()
    assert events == [False, True]


def test_bad_link_params_rejected():
    with pytest.raises(ValueError):
        Link("x", rate_bps=0)
    with pytest.raises(ValueError):
        Link("x", prop_delay_ns=-1)


def test_tx_jitter_bounds_and_determinism():
    sim1 = Simulator()
    port1, sink1, _ = make_port(sim1)
    port1.tx_jitter_ns = 32
    times1 = []
    sink1.receive = lambda p, _: times1.append(sim1.now)
    for _ in range(20):
        port1.send(pkt())
    sim1.run()

    sim2 = Simulator()
    port2, sink2, _ = make_port(sim2)
    port2.tx_jitter_ns = 32
    times2 = []
    sink2.receive = lambda p, _: times2.append(sim2.now)
    for _ in range(20):
        port2.send(pkt())
    sim2.run()
    assert times1 == times2  # same port name -> same jitter stream
    gaps = [b - a for a, b in zip(times1, times1[1:])]
    base = min(gaps)
    assert all(base <= g <= base + 32 + 32 for g in gaps)


def test_on_dequeue_hook():
    sim = Simulator()
    port, sink, _ = make_port(sim)
    seen = []
    port.on_dequeue = lambda p: seen.append(p.flow_id)
    port.send(pkt(flow=9))
    sim.run()
    assert seen == [9]


def test_link_recovery_resumes_delivery():
    """Regression: set_up must mirror set_down — notify ports *and*
    observers — so traffic flows again after a repair."""
    sim = Simulator()
    port, sink, link = make_port(sim)
    transitions = []
    link.on_state_change.append(lambda l: transitions.append(l.up))
    link.set_down()
    assert not port.send(pkt())
    link.set_up()
    assert port.send(pkt())
    sim.run()
    assert len(sink.received) == 1
    assert transitions == [False, True]


def test_link_state_changes_are_idempotent():
    sim = Simulator()
    _, _, link = make_port(sim)
    transitions = []
    link.on_state_change.append(lambda l: transitions.append(l.up))
    link.set_up()       # already up: no notification
    link.set_down()
    link.set_down()     # already down: no notification
    link.set_up()
    assert transitions == [False, True]


def test_link_down_loses_frame_on_the_wire():
    """The frame mid-serialization when the cable is cut is destroyed
    and counted as a wire drop, not silently lost."""
    sim = Simulator()
    port, sink, link = make_port(sim)
    p = pkt(1000)
    port.send(p)
    sim.run(until=100)  # mid-serialization (ser time is ~800ns at 10G)
    link.set_down()
    sim.run()
    assert sink.received == []
    assert port.wire_drop_pkts == 1
    assert port.wire_drop_bytes == p.wire_size


def test_set_rate_applies_to_later_packets():
    sim = Simulator()
    port, sink, link = make_port(sim)
    times = []
    sink.receive = lambda p, _: times.append(sim.now)
    port.send(pkt(1000))
    sim.run()
    link.set_rate(link.rate_bps / 2)
    port.send(pkt(1000))
    sim.run()
    ser_fast = serialization_time_ns(1000 + HEADER_BYTES, gbps(10))
    ser_slow = serialization_time_ns(1000 + HEADER_BYTES, gbps(5))
    assert times[0] == ser_fast + link.prop_delay_ns
    # sent from idle at times[0]: serialization (at the new rate) + prop
    assert times[1] - times[0] == ser_slow + link.prop_delay_ns


def test_link_down_mid_serialization_stale_completion_is_a_no_op():
    """The frame on the wire when the cable dies is counted once as a
    wire drop; its serializer completion still pops later and must
    neither count a transmission nor deliver anything."""
    sim = Simulator()
    port, sink, link = make_port(sim)
    p = pkt(1000)
    port.send(p)
    sim.run(until=100)
    link.set_down()
    assert (port.wire_drop_pkts, port.wire_drop_bytes) == (1, p.wire_size)
    assert sim.run() == 1                   # the stale completion
    assert sink.received == []
    assert (port.tx_pkts, port.tx_bytes) == (0, 0)
    assert port.wire_drop_pkts == 1
    assert p.hops == 0


def test_link_flap_inside_one_frame_times_the_new_frame_by_itself():
    """Down and up again while a long frame serializes, then a new frame
    starts: the new frame finishes at its own serialization time.  The
    stale completion of the lost frame pops in between and must neither
    deliver it nor free the serializer under the new frame (a frame
    sent meanwhile waits its turn)."""
    sim = Simulator()
    port, sink, link = make_port(sim)
    arrivals = []
    sink.receive = lambda p, _: arrivals.append((sim.now, p))
    lost, new, queued = pkt(100), pkt(1400), pkt(1000)

    def ser(p):
        return serialization_time_ns(p.wire_size, link.rate_bps)

    port.send(lost)                         # serializes 0 .. ser(lost)
    sim.run(until=50)
    link.set_down()
    link.set_up()
    assert port.send(new)                   # starts at 50 on an idle port
    sim.run(until=ser(lost) + 10)           # the stale completion popped
    assert port.send(queued)                # must queue behind `new`
    sim.run()
    done = 50 + ser(new)
    assert arrivals == [(done + link.prop_delay_ns, new),
                        (done + ser(queued) + link.prop_delay_ns, queued)]
    assert port.tx_pkts == 2 and port.wire_drop_pkts == 1


class _QueueRecorder:
    """A telemetry-style queue probe: records what the port shows it."""

    def __init__(self):
        self.seen = []

    def on_enqueue(self, pkt, depth_bytes):
        self.seen.append(("enqueue", pkt.flow_id, depth_bytes))

    def on_drop(self, pkt, cause, depth_bytes):
        self.seen.append((cause, pkt.flow_id, depth_bytes))


def _shared_pool_train(probe):
    """One packet train into a port on a shared buffer whose neighbour
    (a slow port on the same pool) holds most of the pool at first:
    the early bursts meet pool drops — on the idle port too — and a
    later one, once the pool has drained, overruns the port's cap."""
    sim = Simulator()
    pool = SharedBuffer(12_000, alpha=8.0)
    port, sink, _ = make_port(sim, buffer_bytes=5_000)
    port.shared = pool
    port.track_flows = True
    port.probe = probe
    neighbour, _, _ = make_port(sim, rate=gbps(1), buffer_bytes=100_000)
    neighbour.shared = pool
    arrivals, wakes = [], []
    sink.receive = lambda p, _: arrivals.append((sim.now, p.flow_id, p.seq))
    port.on_dequeue = lambda p: wakes.append(
        (sim.now, p.flow_id, port.flow_bytes.get(p.flow_id, 0)))
    for i in range(12):
        neighbour.send(pkt(1000, flow=99))
    seq = itertools.count()
    for at, burst in ((100, 3), (20_000, 6), (200_000, 7), (300_000, 1)):
        for i in range(burst):
            p = pkt(1400, flow=1 + i % 2)
            p.seq = next(seq)
            sim.schedule_at(at, port.send, p)
    sim.run()
    return {
        "arrivals": arrivals,
        "wakes": wakes,
        "enqueued": (port.enqueued_pkts, port.enqueued_bytes),
        "drops": (port.dropped_pkts, port.dropped_bytes,
                  dict(port.drop_causes), dict(port.drop_cause_bytes)),
        "pool_used": pool.used_bytes,
        "flow_bytes": dict(port.flow_bytes),
    }


def test_a_probe_changes_nothing():
    """Ports with and without a probe share one send path: over the
    same train every observable agrees — delivery times, enqueue and
    drop counters (cap and pool drops both provoked), the pool back at
    0, no per-flow residue and the TSQ wake sequence — and the probe
    sees each admitted packet once and each drop once."""
    recorder = _QueueRecorder()
    bare = _shared_pool_train(probe=None)
    probed = _shared_pool_train(probe=recorder)
    assert bare == probed
    admitted, dropped = bare["enqueued"][0], bare["drops"][0]
    causes = bare["drops"][2]
    assert causes.get("cap", 0) > 0 and causes.get("pool", 0) > 0
    assert bare["pool_used"] == 0 and bare["flow_bytes"] == {}
    assert len(bare["arrivals"]) == admitted
    kinds = [seen[0] for seen in recorder.seen]
    assert kinds.count("enqueue") == admitted
    assert len(kinds) - admitted == dropped
    assert admitted + dropped == 17        # every packet of the train


# --- a FIFO only where a packet waits ------------------------------------------


def test_a_port_that_never_queued_holds_no_fifo():
    """Packets that each find the serializer idle never wait: the port
    allocates no FIFO and, untracked, no per-flow map."""
    sim = Simulator()
    port, sink, link = make_port(sim)
    assert port._fifo is None and port.flow_bytes is None
    for at in (0, usec(10), usec(20)):
        sim.schedule_at(at, port.send, pkt(1000))
    sim.run()
    assert len(sink.received) == port.tx_pkts == 3
    assert port._fifo is None
    link.set_down()
    link.set_up()                          # flush and resume: nothing queued
    assert port._fifo is None


def test_a_queued_burst_drains_in_order_with_its_counters():
    """The first packet that has to wait creates the FIFO; the burst
    leaves in send order, back to back, and every counter (and the
    shared pool) reads what a port with an eager FIFO read."""
    sim = Simulator()
    pool = SharedBuffer(1_000_000)
    port, sink, link = make_port(sim)
    port.shared = pool
    times = []
    sink.receive = lambda p, _: (sink.received.append(p),
                                 times.append(sim.now))
    burst = [pkt(1000, flow=1 + i % 3) for i in range(6)]
    for i, p in enumerate(burst):
        p.seq = i
        assert port.send(p)
    assert port._fifo is not None and len(port._fifo) == 5
    assert port.bytes_queued == pool.used_bytes == 5 * (1000 + HEADER_BYTES)
    sim.run()
    ser = serialization_time_ns(1000 + HEADER_BYTES, link.rate_bps)
    assert [p.seq for p in sink.received] == list(range(6))
    assert times == [link.prop_delay_ns + ser * (i + 1) for i in range(6)]
    wire = 6 * (1000 + HEADER_BYTES)
    assert (port.enqueued_pkts, port.enqueued_bytes) == (6, wire)
    assert (port.tx_pkts, port.tx_bytes) == (6, wire)
    assert (port.dropped_pkts, port.bytes_queued, pool.used_bytes) == (0, 0, 0)
    assert not port._fifo


def test_track_flows_creates_and_drops_the_flow_map():
    sim = Simulator()
    port, _, _ = make_port(sim)
    assert not port.track_flows
    port.track_flows = True
    assert port.track_flows and port.flow_bytes == {}
    port.track_flows = False
    assert port.flow_bytes is None
