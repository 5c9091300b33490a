"""Unit tests for the drop-tail queue."""

import pytest

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.units import HEADER_BYTES


def pkt(size=1000, flow=1):
    return Packet(flow_id=flow, src_host=0, dst_host=1, dst_mac=1,
                  kind="data", seq=0, payload_len=size, flowcell_id=1)


def test_fifo_order():
    q = DropTailQueue(100_000)
    a, b = pkt(), pkt()
    q.enqueue(a)
    q.enqueue(b)
    assert q.dequeue() is a
    assert q.dequeue() is b
    assert q.dequeue() is None


def test_byte_accounting():
    q = DropTailQueue(100_000)
    q.enqueue(pkt(1000))
    assert q.bytes_queued == 1000 + HEADER_BYTES
    q.dequeue()
    assert q.bytes_queued == 0


def test_drop_when_full():
    q = DropTailQueue(2_500)
    assert q.enqueue(pkt(1000))
    assert q.enqueue(pkt(1000))
    assert not q.enqueue(pkt(1000))  # 3 * 1078 > 2500
    assert q.dropped_pkts == 1
    assert q.dropped_bytes == 1000 + HEADER_BYTES


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        DropTailQueue(0)


def test_flow_tracking():
    q = DropTailQueue(100_000, track_flows=True)
    q.enqueue(pkt(1000, flow=1))
    q.enqueue(pkt(1000, flow=1))
    q.enqueue(pkt(500, flow=2))
    assert q.flow_bytes[1] == 2 * (1000 + HEADER_BYTES)
    assert q.flow_bytes[2] == 500 + HEADER_BYTES
    q.dequeue()
    assert q.flow_bytes[1] == 1000 + HEADER_BYTES
    q.dequeue()
    assert 1 not in q.flow_bytes  # fully drained flows are evicted
    q.dequeue()
    assert not q.flow_bytes


def test_counters_cumulative():
    q = DropTailQueue(100_000)
    for _ in range(3):
        q.enqueue(pkt())
    q.dequeue()
    assert q.enqueued_pkts == 3
    assert len(q) == 2
