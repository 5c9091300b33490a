"""Unit tests for a port's drop-tail FIFO and its shared-buffer
admission rule (alpha x the free pool)."""

from types import SimpleNamespace

import pytest

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.port import Port, SharedBuffer
from repro.sim.engine import Simulator
from repro.units import HEADER_BYTES, usec

W = 1000 + HEADER_BYTES  # wire size of the default packet


def pkt(size=1000, flow=1):
    return Packet(flow_id=flow, src_host=0, dst_host=1, dst_mac=1,
                  kind="data", seq=0, payload_len=size, flowcell_id=1)


def make_port(buffer_bytes=100_000, pool=None):
    """A 10 Gb/s port into a sink; the first packet sent to it goes
    straight to the serializer, so later sends (before the simulator
    runs) queue behind it."""
    sim = Simulator()
    port = Port(sim, "a->b", Link("test", prop_delay_ns=usec(1)),
                buffer_bytes)
    port.shared = pool
    arrivals = []
    port.peer = SimpleNamespace(receive=lambda p, _: arrivals.append(p))
    return sim, port, arrivals


def test_fifo_order():
    sim, port, arrivals = make_port()
    a, b, c = pkt(), pkt(), pkt()
    for p in (a, b, c):
        port.send(p)
    sim.run()
    assert arrivals == [a, b, c]


def test_byte_accounting():
    sim, port, _ = make_port()
    port.send(pkt(1000))
    assert port.bytes_queued == 0          # in the serializer, not queued
    port.send(pkt(1000))
    assert port.bytes_queued == W
    sim.run()
    assert port.bytes_queued == 0


def test_drop_when_full():
    _, port, _ = make_port(buffer_bytes=2_500)
    # one serializing, then 2 * 1078 queued; a third 1078 > 2500
    assert [port.send(pkt(1000)) for _ in range(4)] == [
        True, True, True, False]
    assert port.dropped_pkts == 1
    assert port.dropped_bytes == W
    assert port.drop_causes == {"cap": 1}


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Port(Simulator(), "x", Link("x"), 0)


def test_flow_tracking():
    sim, port, _ = make_port()
    port.track_flows = True
    seen = []
    port.on_dequeue = lambda p: seen.append(dict(port.flow_bytes))
    port.send(pkt(1000, flow=9))           # serializes at once: untracked
    port.send(pkt(1000, flow=1))
    port.send(pkt(1000, flow=1))
    port.send(pkt(500, flow=2))
    assert port.flow_bytes == {1: 2 * W, 2: 500 + HEADER_BYTES}
    sim.run()
    assert seen == [
        {},
        {1: W, 2: 500 + HEADER_BYTES},
        {2: 500 + HEADER_BYTES},           # fully drained flows are evicted
        {},
    ]


def test_counters_cumulative():
    sim, port, _ = make_port()
    for _ in range(3):
        port.send(pkt())
    assert (port.enqueued_pkts, port.enqueued_bytes) == (3, 3 * W)
    assert port.bytes_queued == 2 * W
    sim.run()
    assert (port.enqueued_pkts, port.tx_pkts) == (3, 3)


def test_a_packet_that_exactly_fills_the_pool_is_admitted():
    pool = SharedBuffer(2 * W, alpha=100.0)
    _, port, _ = make_port(pool=pool)
    assert port.send(pkt())                # serializing: not in the pool
    assert port.send(pkt())
    assert not port.send(pkt(1001))        # W + 1 bytes: one too many
    assert port.drop_causes == {"pool": 1}
    assert port.send(pkt())                # exactly the W left
    assert pool.used_bytes == pool.total_bytes


def test_a_lone_busy_port_stops_at_alpha_over_one_plus_alpha():
    pool = SharedBuffer(30 * W, alpha=2.0)
    sim, port, _ = make_port(buffer_bytes=pool.total_bytes, pool=pool)
    sent = [port.send(pkt()) for _ in range(1 + 21)]
    assert sent == [True] * 21 + [False]
    assert port.drop_causes == {"pool": 1}
    share = pool.total_bytes * pool.alpha / (1 + pool.alpha)
    assert pool.used_bytes == port.bytes_queued == share == 20 * W
    sim.run()
    assert pool.used_bytes == port.bytes_queued == 0


def test_the_cap_refuses_before_the_pool():
    pool = SharedBuffer(W, alpha=2.0)
    _, port, _ = make_port(buffer_bytes=W, pool=pool)
    assert port.send(pkt()) and port.send(pkt())
    assert pool.used_bytes == pool.total_bytes   # the pool is full too
    assert not port.send(pkt())
    assert port.drop_causes == {"cap": 1}
    assert port.drop_cause_bytes == {"cap": W}
