"""Unit + property tests for flowcell creation (paper Algorithm 1)."""

from collections import defaultdict
from types import SimpleNamespace

from hypothesis import given, strategies as st

import pytest

from repro.lb.base import FlowState, VSwitch
from repro.presto.flowcell import FLOWCELL_BYTES, Presto, flowcell


def first_draw(value):
    """An rng whose every draw is ``value`` (a flow's starting label)."""
    return SimpleNamespace(randrange=lambda span: value)


def FlowcellTagger(threshold=FLOWCELL_BYTES, rng=first_draw(0)):
    """Algorithm 1 over one state record per flow: returns
    ``tag(flow_id, seg_len, n_labels) -> (label index, flowcell id)``."""
    flows = defaultdict(FlowState)

    def tag(flow_id, seg_len, n_labels):
        state = flows[flow_id]
        return (flowcell(state, seg_len, n_labels, threshold, rng),
                state.cell)

    return SimpleNamespace(tag=tag)


def test_first_segment_starts_cell_one():
    tagger = FlowcellTagger()
    idx, cell = tagger.tag(1, 1448, 4)
    assert (idx, cell) == (0, 1)


def test_rotation_at_threshold():
    tagger = FlowcellTagger(threshold=10_000)
    idx, cell = tagger.tag(1, 6_000, 4)
    assert (idx, cell) == (0, 1)
    # 6000 + 6000 > 10000 -> rotate
    idx, cell = tagger.tag(1, 6_000, 4)
    assert (idx, cell) == (1, 2)


def test_exact_threshold_does_not_rotate():
    tagger = FlowcellTagger(threshold=10_000)
    assert tagger.tag(1, 10_000, 4) == (0, 1)
    # next byte rotates
    assert tagger.tag(1, 1, 4) == (1, 2)


def test_round_robin_wraps():
    tagger = FlowcellTagger(threshold=100)
    seen = [tagger.tag(1, 100, 3)[0]]
    for _ in range(5):
        seen.append(tagger.tag(1, 100, 3)[0])
    assert seen == [0, 1, 2, 0, 1, 2]


def test_flows_are_independent():
    tagger = FlowcellTagger(threshold=100)
    tagger.tag(1, 100, 4)
    tagger.tag(1, 100, 4)  # flow 1 now on idx 1
    assert tagger.tag(2, 50, 4) == (0, 1)


def test_default_threshold_is_64kb():
    assert FLOWCELL_BYTES == 64 * 1024


def test_zero_labels_rejected():
    """Algorithm 1 is never handed an empty label set: the vSwitch, its
    only caller, refuses to install one."""
    with pytest.raises(ValueError):
        VSwitch(0, Presto()).set_schedule(3, [])


def test_bad_threshold_rejected():
    with pytest.raises(ValueError):
        Presto(threshold=0)


def test_initial_index_fn():
    """A flow's starting label is whatever the rng draws first."""
    tagger = FlowcellTagger(threshold=100, rng=first_draw(2 * 7))
    idx, _ = tagger.tag(2, 10, 4)
    assert idx == (2 * 7) % 4


@given(
    lens=st.lists(st.integers(1, FLOWCELL_BYTES), min_size=1, max_size=200),
    n_labels=st.integers(1, 8),
)
def test_flowcells_bounded_and_ids_monotone(lens, n_labels):
    """Every flowcell carries at most 64 KB, IDs only ever step by one,
    and consecutive cells land on consecutive labels (round robin)."""
    tagger = FlowcellTagger()
    cell_bytes = {}
    prev_cell = 0
    prev_idx = None
    for seg_len in lens:
        idx, cell = tagger.tag(9, seg_len, n_labels)
        assert cell in (prev_cell, prev_cell + 1)
        if cell == prev_cell + 1 and prev_idx is not None:
            assert idx == (prev_idx + 1) % n_labels
        prev_cell, prev_idx = cell, idx
        cell_bytes[cell] = cell_bytes.get(cell, 0) + seg_len
    for cell, total in cell_bytes.items():
        assert total <= FLOWCELL_BYTES or cell_bytes.get(cell - 1) is None and total == lens[0]


@given(lens=st.lists(st.integers(1, 1448), min_size=1, max_size=300))
def test_bytes_partition_preserved(lens):
    """The tagger never drops or duplicates bytes: the sum over cells
    equals the input."""
    tagger = FlowcellTagger()
    total_in = 0
    per_cell = {}
    for seg_len in lens:
        _, cell = tagger.tag(5, seg_len, 4)
        total_in += seg_len
        per_cell[cell] = per_cell.get(cell, 0) + seg_len
    assert sum(per_cell.values()) == total_in


def _label(lb, flow_id, seq, size, dst=3):
    return lb.label(flow_id, dst, size, seq + size, 0)


def test_presto_lb_assigns_labels_and_cells():
    lb = VSwitch(0, Presto())
    lb.set_schedule(3, [101, 102, 103, 104])
    first_mac, first_cell = _label(lb, 1, 0, 64 * 1024)
    assert first_mac in (101, 102, 103, 104)
    assert first_cell == 1
    second_mac, second_cell = _label(lb, 1, 64 * 1024, 64 * 1024)
    assert second_cell == 2
    assert second_mac != first_mac


def test_presto_lb_acks_stay_on_one_label():
    lb = VSwitch(0, Presto())
    lb.set_schedule(3, [101, 102])
    assert len({_label(lb, 7, 0, 0)[0] for _ in range(10)}) == 1


# --- boundary edges: exact 64 KB landings and TSO-disabled streams ----------

MSS = 1448  # TSO disabled: TCP hands the vSwitch MSS-sized segments


def test_exact_boundary_segments_rotate_per_segment():
    """Segments exactly one flowcell wide: each one fills its cell to
    the byte, so every subsequent segment starts a fresh cell on the
    next label."""
    tagger = FlowcellTagger()
    for i in range(9):
        idx, cell = tagger.tag(1, FLOWCELL_BYTES, 4)
        assert cell == i + 1
        assert idx == i % 4


@given(
    cuts=st.lists(st.integers(1, FLOWCELL_BYTES - 1), max_size=8),
    n_labels=st.integers(1, 8),
    reps=st.integers(1, 4),
)
def test_segments_landing_exactly_on_boundary_keep_round_robin(
        cuts, n_labels, reps):
    """Partition the 64 KB cell into segments whose last byte lands
    exactly on the boundary, repeated: no rotation mid-partition, and
    each repetition starts the next cell on the next label."""
    bounds = sorted(set(cuts))
    sizes = [b - a for a, b in zip([0] + bounds, bounds + [FLOWCELL_BYTES])]
    sizes = [s for s in sizes if s > 0]
    assert sum(sizes) == FLOWCELL_BYTES
    tagger = FlowcellTagger()
    for rep in range(reps):
        for size in sizes:
            idx, cell = tagger.tag(3, size, n_labels)
            assert cell == rep + 1
            assert idx == rep % n_labels


@given(n_segments=st.integers(1, 200), n_labels=st.integers(1, 8))
def test_tso_disabled_mss_stream_rotates_on_64kb(n_segments, n_labels):
    """With TSO off the tagger only ever sees MSS-sized segments; cells
    still carry at most 64 KB, IDs step by exactly one and labels stay
    round-robin."""
    tagger = FlowcellTagger()
    per_cell = {}
    prev_cell, prev_idx = 0, None
    for _ in range(n_segments):
        idx, cell = tagger.tag(7, MSS, n_labels)
        assert cell in (prev_cell, prev_cell + 1)
        if prev_idx is not None:
            expected = (prev_idx + 1) % n_labels if cell > prev_cell else prev_idx
            assert idx == expected
        per_cell[cell] = per_cell.get(cell, 0) + MSS
        prev_cell, prev_idx = cell, idx
    assert all(total <= FLOWCELL_BYTES for total in per_cell.values())
    # every closed cell packed with the same maximal MSS count
    full = (FLOWCELL_BYTES // MSS) * MSS
    for cell, total in per_cell.items():
        if cell < prev_cell:
            assert total == full
