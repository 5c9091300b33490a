"""Property tests for what the Presto vSwitch stamps on a stream of
segments: per flow the flowcell IDs stay monotone (stepping by at most
one), a flowcell keeps one label, and consecutive cells walk the
schedule in order.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.lb.base import VSwitch
from repro.net.packet import Segment
from repro.presto.flowcell import FLOWCELL_BYTES, Presto


def PrestoLb(host_id, rng):
    return VSwitch(host_id, Presto(), rng)


def stamp(lb, seg):
    """What ``Host.send_segment`` does with the vSwitch's answer."""
    seg.dst_mac, seg.flowcell_id = lb.label(
        seg.flow_id, seg.dst_host, seg.payload_len, seg.end_seq, 0)


@given(
    sizes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, FLOWCELL_BYTES)),
        min_size=1, max_size=100,
    )
)
@settings(max_examples=60, deadline=None)
def test_flowcell_ids_monotone_per_flow(sizes):
    """Interleaved flows through the Presto vSwitch: per flow the
    stamped flowcell ID never decreases and never skips."""
    lb = PrestoLb(0, rng=random.Random(42))
    lb.set_schedule(1, [101, 102, 103, 104])
    last: dict = {}
    for flow, size in sizes:
        seg = Segment(flow_id=flow, src_host=0, dst_host=1,
                      seq=0, end_seq=size)
        stamp(lb, seg)
        prev = last.get(flow, 0)
        assert seg.flowcell_id >= prev, "flowcell ID went backwards"
        assert seg.flowcell_id - prev <= 1, "flowcell ID skipped"
        assert seg.dst_mac in (101, 102, 103, 104)
        last[flow] = seg.flowcell_id


def test_exact_boundary_segments_round_robin():
    """64 KB segments whose last byte lands exactly on the flowcell
    boundary: IDs step by one and the stamped labels walk the schedule
    in order."""
    lb = PrestoLb(0, rng=random.Random(7))
    schedule = [101, 102, 103, 104]
    lb.set_schedule(1, schedule)
    macs, cells = [], []
    for i in range(8):
        seg = Segment(flow_id=3, src_host=0, dst_host=1,
                      seq=i * FLOWCELL_BYTES,
                      end_seq=(i + 1) * FLOWCELL_BYTES)
        stamp(lb, seg)
        macs.append(seg.dst_mac)
        cells.append(seg.flowcell_id)
    assert cells == list(range(1, 9))
    start = schedule.index(macs[0])
    assert macs == [schedule[(start + i) % 4] for i in range(8)]


@given(n=st.integers(1, 120))
@settings(max_examples=30, deadline=None)
def test_tso_disabled_stream_preserves_label_rotation(n):
    """TSO off: MSS-sized segments through the vSwitch still batch into
    64 KB flowcells, one label per cell, consecutive cells landing on
    consecutive schedule entries."""
    mss = 1448
    lb = PrestoLb(0, rng=random.Random(11))
    schedule = [201, 202, 203]
    lb.set_schedule(1, schedule)
    seen = []
    for i in range(n):
        seg = Segment(flow_id=5, src_host=0, dst_host=1,
                      seq=i * mss, end_seq=(i + 1) * mss)
        stamp(lb, seg)
        seen.append((seg.flowcell_id, seg.dst_mac))
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
