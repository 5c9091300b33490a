"""Unit tests for official GRO and Presto GRO (Algorithm 2)."""

import pytest

from repro.host.gro import OfficialGro, PrestoGro
from repro.net.packet import Packet
from repro.units import usec


def pkt(seq, size=1448, cell=1, flow=1, retx=False):
    return Packet(
        flow_id=flow,
        src_host=0,
        dst_host=1,
        dst_mac=1,
        kind="data",
        seq=seq,
        payload_len=size,
        flowcell_id=cell,
        is_retx=retx,
    )


def flush_ranges(segs):
    return sorted((s.seq, s.end_seq) for s in segs)


class TestOfficialGro:
    def test_in_order_merges_to_one_segment(self):
        gro = OfficialGro()
        for i in range(10):
            gro.merge(pkt(i * 1448), now=0)
        segs = gro.flush(0)
        assert len(segs) == 1
        assert segs[0].seq == 0
        assert segs[0].end_seq == 14480
        assert segs[0].pkt_count == 10

    def test_reordering_ejects_small_segments(self):
        """The Fig 2 scenario: interleaved packets from two paths."""
        gro = OfficialGro()
        order = [0, 1, 2, 5, 3, 6, 4, 7, 8]  # P0..P8 arrival from the paper
        for i in order:
            gro.merge(pkt(i * 1448), now=0)
        segs = gro.flush(0)
        # official GRO pushes many small segments under this pattern
        assert len(segs) >= 4

    def test_flows_do_not_merge_together(self):
        gro = OfficialGro()
        gro.merge(pkt(0, flow=1), now=0)
        gro.merge(pkt(0, flow=2), now=0)
        segs = gro.flush(0)
        assert len(segs) == 2
        assert {s.flow_id for s in segs} == {1, 2}

    def test_segment_size_cap(self, monkeypatch):
        monkeypatch.setattr("repro.host.gro.MAX_TSO_BYTES", 3000)
        gro = OfficialGro()
        for i in range(4):
            gro.merge(pkt(i * 1448), now=0)
        segs = gro.flush(0)
        assert all(s.payload_len <= 3000 for s in segs)
        assert sum(s.payload_len for s in segs) == 4 * 1448

    def test_flush_clears_state(self):
        gro = OfficialGro()
        gro.merge(pkt(0), now=0)
        assert len(gro.flush(0)) == 1
        assert gro.flush(0) == []


class TestPrestoGroInOrder:
    def test_in_order_single_flowcell(self):
        gro = PrestoGro()
        for i in range(5):
            gro.merge(pkt(i * 1448, cell=1), now=0)
        segs = gro.flush(0)
        assert len(segs) == 1
        assert segs[0].pkt_count == 5

    def test_in_order_across_flowcells(self):
        gro = PrestoGro()
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.merge(pkt(1000, size=1000, cell=2), now=0)
        segs = gro.flush(0)
        assert flush_ranges(segs) == [(0, 1000), (1000, 2000)]

    def test_does_not_merge_across_flowcells(self):
        gro = PrestoGro()
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.merge(pkt(1000, size=1000, cell=2), now=0)
        # two segments, not one merged segment
        assert gro.held_segment_count() == 2 or len(gro.flush(0)) == 2


class TestPrestoGroReordering:
    def test_boundary_gap_held_not_pushed(self):
        """First packet of cell 2 arrives while cell 1's tail is missing:
        hold cell 2 (could be reordering)."""
        gro = PrestoGro()
        gro.merge(pkt(0, size=1448, cell=1), now=0)
        segs = gro.flush(0)
        assert flush_ranges(segs) == [(0, 1448)]
        # cell 3's data arrives before the rest of cell 2
        gro.merge(pkt(5000, size=1000, cell=3), now=100)
        segs = gro.flush(100)
        assert segs == []
        assert gro.held_segment_count() == 1

    def test_gap_fill_releases_in_order(self):
        gro = PrestoGro()
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.flush(0)
        # out-of-order: cell 3 first
        gro.merge(pkt(2000, size=1000, cell=3), now=10)
        assert gro.flush(10) == []
        # gap fill: cell 2 arrives
        gro.merge(pkt(1000, size=1000, cell=2), now=20)
        segs = gro.flush(20)
        assert flush_ranges(segs) == [(1000, 2000), (2000, 3000)]
        assert gro.held_segment_count() == 0

    def test_intra_flowcell_gap_is_loss_pushed_immediately(self):
        """A sequence hole inside one flowcell means loss: push now so
        TCP can recover fast (Algorithm 2 lines 3-5)."""
        gro = PrestoGro()
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.flush(0)
        # 1000..2000 lost; 2000.. arrives with the SAME cell
        gro.merge(pkt(2000, size=1000, cell=1), now=10)
        segs = gro.flush(10)
        assert flush_ranges(segs) == [(2000, 3000)]

    def test_timeout_releases_held_segment(self):
        gro = PrestoGro(initial_ewma_ns=usec(50))
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.flush(0)
        gro.merge(pkt(2000, size=1000, cell=2), now=usec(1))
        assert gro.flush(usec(1)) == []
        deadline = gro.earliest_deadline()
        assert deadline is not None
        segs = gro.flush(deadline + usec(200))
        assert flush_ranges(segs) == [(2000, 3000)]
        assert gro.timeout_fires == 1

    def test_beta_rule_extends_hold_while_merging(self):
        gro = PrestoGro(initial_ewma_ns=usec(50))
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.flush(0)
        gro.merge(pkt(2000, size=1000, cell=2), now=0)
        # keep merging into the held segment right up to the alpha deadline
        t = usec(95)
        gro.merge(pkt(3000, size=1000, cell=2), now=t)
        # at alpha*ewma=100us the segment has a merge 5us ago < ewma/beta=25us
        segs = gro.flush(usec(100))
        assert segs == []

    def test_retransmission_bypasses_merging(self):
        gro = PrestoGro()
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.flush(0)
        gro.merge(pkt(5000, size=1000, cell=3), now=10)  # held
        gro.merge(pkt(1000, size=1000, cell=2, retx=True), now=20)
        segs = gro.flush(20)
        # the retransmission is pushed even though cell 3 is held
        assert (1000, 2000) in flush_ranges(segs)

    def test_stale_flowcell_pushed_immediately(self):
        gro = PrestoGro()
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.flush(0)
        gro.merge(pkt(1000, size=1000, cell=2), now=10)
        gro.flush(10)  # state advances to cell 2
        # late duplicate from cell 1
        gro.merge(pkt(500, size=500, cell=1), now=20)
        segs = gro.flush(20)
        assert flush_ranges(segs) == [(500, 1000)]

    def test_overlap_at_boundary_pushed(self):
        """Retransmitted first packet of a new flowcell (expSeq > startSeq)."""
        gro = PrestoGro()
        gro.merge(pkt(0, size=2000, cell=1), now=0)
        gro.flush(0)
        gro.merge(pkt(1000, size=1000, cell=2), now=10)
        segs = gro.flush(10)
        assert flush_ranges(segs) == [(1000, 2000)]

    def test_reorder_sample_updates_ewma(self):
        gro = PrestoGro(initial_ewma_ns=usec(50))
        gro.merge(pkt(0, size=1000, cell=1), now=0)
        gro.flush(0)
        gro.merge(pkt(2000, size=1000, cell=3), now=0)
        gro.flush(0)  # held
        gro.merge(pkt(1000, size=1000, cell=2), now=usec(30))
        gro.flush(usec(30))
        assert gro.reorder_samples == 1

    def test_masks_fig2_pattern_completely(self):
        """The Fig 2 arrival order: Presto GRO must deliver everything
        in order with no small-segment flood."""
        gro = PrestoGro()
        # P0-P4 are cell 1, P5-P8 are cell 2 (paths interleave arrivals)
        order = [(0, 1), (1, 1), (2, 1), (5, 2), (3, 1), (6, 2), (4, 1), (7, 2), (8, 2)]
        for i, cell in order:
            gro.merge(pkt(i * 1448, cell=cell), now=0)
        segs = gro.flush(0)
        ranges = flush_ranges(segs)
        # in-order, contiguous, exactly the two flowcell segments
        assert ranges == [(0, 5 * 1448), (5 * 1448, 9 * 1448)]

    def test_multiple_flows_independent(self):
        gro = PrestoGro()
        gro.merge(pkt(0, size=1000, cell=1, flow=1), now=0)
        gro.merge(pkt(500, size=1000, cell=5, flow=2), now=0)
        segs = gro.flush(0)
        flows = {s.flow_id for s in segs}
        assert 1 in flows

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PrestoGro(alpha=0)
