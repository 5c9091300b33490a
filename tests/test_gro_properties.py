"""Property-based tests of the GRO invariants (hypothesis).

The two invariants Presto's correctness rests on:

1. **Conservation** — GRO never invents, drops, or duplicates bytes:
   everything merged in comes out across flushes (plus a final timeout
   flush for held segments).
2. **In-order release under pure reordering** — when packets of
   consecutive flowcells arrive in any interleaving *without loss*,
   Presto GRO pushes bytes to TCP in strictly increasing sequence
   order (reordering fully masked), given gaps resolve before the
   adaptive timeout.
"""

from hypothesis import given, settings, strategies as st

from repro.host.gro import OfficialGro, PrestoGro
from repro.net.packet import Packet
from repro.units import usec

MSS = 1448


def make_packets(n_cells, pkts_per_cell):
    """The sender's stream: cells 1..n, each of pkts_per_cell packets."""
    packets = []
    seq = 0
    for cell in range(1, n_cells + 1):
        for _ in range(pkts_per_cell):
            packets.append((seq, cell))
            seq += MSS
    return packets


def to_packet(seq, cell, flow=1):
    return Packet(flow_id=flow, src_host=0, dst_host=1, dst_mac=1,
                  kind="data", seq=seq, payload_len=MSS,
                  flowcell_id=cell)


@st.composite
def reordered_stream(draw):
    """A loss-free arrival order where reordering happens only *across*
    flowcells (same-cell packets keep FIFO order, as a single path
    guarantees), produced by a bounded-displacement shuffle."""
    n_cells = draw(st.integers(2, 5))
    per_cell = draw(st.integers(1, 6))
    packets = make_packets(n_cells, per_cell)
    # riffle: at each step pick the head of one cell's remaining queue
    queues = {}
    for seq, cell in packets:
        queues.setdefault(cell, []).append(seq)
    order = []
    live = sorted(queues)
    while live:
        # bias toward low cells so gaps usually resolve quickly
        weights = list(range(len(live), 0, -1))
        idx = draw(st.sampled_from([i for i, w in enumerate(weights)
                                    for _ in range(w)]))
        cell = live[idx]
        order.append((queues[cell].pop(0), cell))
        if not queues[cell]:
            live.remove(cell)
    return order


@given(stream=reordered_stream(), batch=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_presto_gro_conservation_and_order(stream, batch):
    gro = PrestoGro(initial_ewma_ns=usec(50))
    pushed = []
    now = 0
    for i in range(0, len(stream), batch):
        for seq, cell in stream[i:i + batch]:
            gro.merge(to_packet(seq, cell), now)
        pushed.extend(gro.flush(now))
        now += usec(10)
    # drain any held segments via the timeout path
    for _ in range(200):
        if gro.held_segment_count() == 0:
            break
        now += usec(100)
        pushed.extend(gro.flush(now))
    assert gro.held_segment_count() == 0, "GRO lost bytes in held segments"

    # conservation: exact byte coverage, no duplication
    covered = sorted((s.seq, s.end_seq) for s in pushed)
    expect = 0
    for start, end in covered:
        assert start == expect, f"gap or duplicate at {start} (expected {expect})"
        expect = end
    assert expect == len(stream) * MSS


@given(stream=reordered_stream())
@settings(max_examples=60, deadline=None)
def test_presto_gro_masks_reordering_without_timeouts(stream):
    """With all gaps resolving within one flush epoch spacing (10us),
    no timeout fires and delivery is strictly in order."""
    gro = PrestoGro(initial_ewma_ns=usec(500))
    pushed = []
    now = 0
    for seq, cell in stream:
        gro.merge(to_packet(seq, cell), now)
        pushed.extend(gro.flush(now))
        now += usec(1)
    # final packets may still be held; drain (no timeout needed when the
    # stream ended in-order, otherwise allow the timeout path)
    for _ in range(200):
        if gro.held_segment_count() == 0:
            break
        now += usec(200)
        pushed.extend(gro.flush(now))
    if gro.timeout_fires == 0:
        seqs = [s.seq for s in pushed]
        assert seqs == sorted(seqs), "out-of-order push without timeout"


@given(stream=reordered_stream(), batch=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_official_gro_conservation(stream, batch):
    """Official GRO also never loses bytes — it just pushes them in
    whatever (possibly reordered) arrangement they arrived."""
    gro = OfficialGro()
    pushed = []
    for i in range(0, len(stream), batch):
        for seq, cell in stream[i:i + batch]:
            gro.merge(to_packet(seq, cell), 0)
        pushed.extend(gro.flush(0))
    covered = sorted((s.seq, s.end_seq) for s in pushed)
    expect = 0
    for start, end in covered:
        assert start == expect
        expect = end
    assert expect == len(stream) * MSS


@given(
    drop=st.sets(st.integers(0, 19), max_size=6),
    stream=st.permutations(list(range(20))),
)
@settings(max_examples=40, deadline=None)
def test_presto_gro_never_duplicates_under_loss(drop, stream):
    """Arbitrary loss + arbitrary arrival order (stressing beyond the
    single-path FIFO assumption): pushed byte ranges never overlap."""
    gro = PrestoGro(initial_ewma_ns=usec(20))
    packets = make_packets(4, 5)  # 20 packets, cells of 5
    pushed = []
    now = 0
    for idx in stream:
        if idx in drop:
            continue
        seq, cell = packets[idx]
        gro.merge(to_packet(seq, cell), now)
        pushed.extend(gro.flush(now))
        now += usec(5)
    for _ in range(200):
        if gro.held_segment_count() == 0:
            break
        now += usec(100)
        pushed.extend(gro.flush(now))
    covered = sorted((s.seq, s.end_seq) for s in pushed)
    for (s1, e1), (s2, e2) in zip(covered, covered[1:]):
        assert e1 <= s2, "overlapping segments pushed"
    total = sum(e - s for s, e in covered)
    assert total == (20 - len(drop)) * MSS
