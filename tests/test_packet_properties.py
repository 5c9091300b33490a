"""Property tests for the pooled Packet/Segment lifecycle.

The pools recycle instances across the TSO -> wire -> GRO cycle, so the
whole scheme rests on two invariants:

1. ``alloc()`` resets *every* field — a recycled instance is
   indistinguishable from a freshly constructed one, and no state
   (hops, SACK blocks, GRO timestamps, ...) can leak from one flow's
   packet into another's.
2. Upstream logic is blind to recycling: the flowcell IDs the Presto
   vSwitch stamps stay monotone per flow (stepping by at most one)
   even when every segment it labels is a pool-recycled instance.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.lb.base import VSwitch
from repro.net.packet import ACK, DATA, Packet, Segment, _POOL_MAX
from repro.presto.flowcell import FLOWCELL_BYTES, Presto


def PrestoLb(host_id, rng):
    return VSwitch(host_id, Presto(), rng)


def stamp(lb, seg):
    """What ``Host.send_segment`` does with the vSwitch's answer."""
    seg.dst_mac, seg.flowcell_id = lb.label(
        seg.flow_id, seg.dst_host, seg.payload_len, seg.end_seq, 0)

sack_blocks = st.lists(
    st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 20)), max_size=3
).map(tuple)

packet_fields = st.fixed_dictionaries({
    "flow_id": st.integers(0, 1 << 20),
    "src_host": st.integers(0, 255),
    "dst_host": st.integers(0, 255),
    "dst_mac": st.integers(0, 1 << 16),
    "kind": st.sampled_from([DATA, ACK]),
    "seq": st.integers(0, 1 << 32),
    "payload_len": st.integers(0, 9000),
    "flowcell_id": st.integers(0, 1 << 16),
    "is_retx": st.booleans(),
    "ack_seq": st.integers(0, 1 << 32),
    "sack": sack_blocks,
    "ts": st.integers(0, 1 << 40),
    "ts_echo": st.integers(0, 1 << 40),
})

segment_fields = st.fixed_dictionaries({
    "flow_id": st.integers(0, 1 << 20),
    "src_host": st.integers(0, 255),
    "dst_host": st.integers(0, 255),
    "kind": st.sampled_from([DATA, ACK]),
    "seq": st.integers(0, 1 << 32),
    "end_seq": st.integers(0, 1 << 32),
    "pkt_count": st.integers(0, 64),
    "flowcell_id": st.integers(0, 1 << 16),
    "is_retx": st.booleans(),
    "ack_seq": st.integers(0, 1 << 32),
    "sack": sack_blocks,
    "ts": st.integers(0, 1 << 40),
    "ts_echo": st.integers(0, 1 << 40),
    "dst_mac": st.integers(0, 1 << 16),
})


@given(first=packet_fields, second=packet_fields)
@settings(max_examples=80, deadline=None)
def test_packet_alloc_resets_every_field(first, second):
    Packet._pool.clear()
    junk = Packet.alloc(**first)
    junk.hops = 7  # the wire mutates hop counts in flight
    junk.release()
    recycled = Packet.alloc(**second)
    assert recycled is junk, "pool did not recycle the released packet"
    fresh = Packet(**second)
    for field in Packet.__slots__:
        assert getattr(recycled, field) == getattr(fresh, field), field


@given(first=segment_fields, second=segment_fields)
@settings(max_examples=80, deadline=None)
def test_segment_alloc_resets_every_field(first, second):
    Segment._pool.clear()
    junk = Segment.alloc(**first)
    # GRO mutates these on a held segment before it dies
    junk.created_at = 123
    junk.last_merge_at = 456
    junk.end_seq = junk.end_seq + 1448
    junk.pkt_count += 1
    junk.release()
    recycled = Segment.alloc(**second)
    assert recycled is junk, "pool did not recycle the released segment"
    fresh = Segment(**second)
    for field in Segment.__slots__:
        assert getattr(recycled, field) == getattr(fresh, field), field
    assert recycled.payload_len == fresh.payload_len


def test_pool_is_capped():
    Packet._pool.clear()
    pkts = [
        Packet(flow_id=i, src_host=0, dst_host=1, dst_mac=1, kind=DATA,
               seq=0, payload_len=1448, flowcell_id=1)
        for i in range(_POOL_MAX + 10)
    ]
    for pkt in pkts:
        pkt.release()
    assert len(Packet._pool) == _POOL_MAX
    Packet._pool.clear()


@given(
    sizes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, FLOWCELL_BYTES)),
        min_size=1, max_size=100,
    )
)
@settings(max_examples=60, deadline=None)
def test_flowcell_ids_monotone_per_flow_with_recycled_segments(sizes):
    """Interleaved flows through the Presto vSwitch, every segment
    recycled between decisions: per flow the stamped flowcell ID never
    decreases and never skips."""
    Segment._pool.clear()
    lb = PrestoLb(0, rng=random.Random(42))
    lb.set_schedule(1, [101, 102, 103, 104])
    last: dict = {}
    for flow, size in sizes:
        seg = Segment.alloc(flow_id=flow, src_host=0, dst_host=1,
                            seq=0, end_seq=size)
        stamp(lb, seg)
        prev = last.get(flow, 0)
        assert seg.flowcell_id >= prev, "flowcell ID went backwards"
        assert seg.flowcell_id - prev <= 1, "flowcell ID skipped"
        assert seg.dst_mac in (101, 102, 103, 104)
        last[flow] = seg.flowcell_id
        seg.release()


def test_exact_boundary_segments_round_robin_with_recycled_segments():
    """64 KB segments whose last byte lands exactly on the flowcell
    boundary, every instance pool-recycled: IDs step by one and the
    stamped labels walk the schedule in order."""
    Segment._pool.clear()
    lb = PrestoLb(0, rng=random.Random(7))
    schedule = [101, 102, 103, 104]
    lb.set_schedule(1, schedule)
    macs, cells = [], []
    for i in range(8):
        seg = Segment.alloc(flow_id=3, src_host=0, dst_host=1,
                            seq=i * FLOWCELL_BYTES,
                            end_seq=(i + 1) * FLOWCELL_BYTES)
        stamp(lb, seg)
        macs.append(seg.dst_mac)
        cells.append(seg.flowcell_id)
        seg.release()
    assert cells == list(range(1, 9))
    start = schedule.index(macs[0])
    assert macs == [schedule[(start + i) % 4] for i in range(8)]


@given(n=st.integers(1, 120))
@settings(max_examples=30, deadline=None)
def test_tso_disabled_stream_preserves_label_rotation(n):
    """TSO off: MSS-sized segments through the vSwitch still batch into
    64 KB flowcells, one label per cell, consecutive cells landing on
    consecutive schedule entries."""
    Segment._pool.clear()
    mss = 1448
    lb = PrestoLb(0, rng=random.Random(11))
    schedule = [201, 202, 203]
    lb.set_schedule(1, schedule)
    seen = []
    for i in range(n):
        seg = Segment.alloc(flow_id=5, src_host=0, dst_host=1,
                            seq=i * mss, end_seq=(i + 1) * mss)
        stamp(lb, seg)
        seen.append((seg.flowcell_id, seg.dst_mac))
        seg.release()
    cells = [c for c, _ in seen]
    assert cells == sorted(cells), "flowcell ID went backwards"
    assert all(b - a <= 1 for a, b in zip(cells, cells[1:])), "ID skipped"
    by_cell = {}
    for cell, mac in seen:
        by_cell.setdefault(cell, set()).add(mac)
    assert all(len(m) == 1 for m in by_cell.values()), "label changed mid-cell"
    ordered = [next(iter(by_cell[c])) for c in sorted(by_cell)]
    start = schedule.index(ordered[0])
    assert ordered == [schedule[(start + i) % 3] for i in range(len(ordered))]
