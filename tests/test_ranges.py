"""Unit + property tests for the RangeSet (SACK scoreboard core)."""

from hypothesis import given, strategies as st

from repro.host.ranges import RangeSet


def test_empty():
    rs = RangeSet()
    assert not rs
    assert rs.total_bytes() == 0
    assert rs.max_end() == 0


def test_add_single():
    rs = RangeSet()
    rs.add(10, 20)
    assert list(rs) == [(10, 20)]
    assert rs.total_bytes() == 10


def test_add_ignores_empty_range():
    rs = RangeSet()
    rs.add(5, 5)
    rs.add(9, 3)
    assert not rs


def test_merge_adjacent():
    rs = RangeSet()
    rs.add(0, 10)
    rs.add(10, 20)
    assert list(rs) == [(0, 20)]


def test_merge_overlapping():
    rs = RangeSet()
    rs.add(0, 15)
    rs.add(10, 30)
    assert list(rs) == [(0, 30)]


def test_disjoint_stay_disjoint():
    rs = RangeSet()
    rs.add(0, 10)
    rs.add(20, 30)
    assert list(rs) == [(0, 10), (20, 30)]


def test_bridge_merge():
    rs = RangeSet()
    rs.add(0, 10)
    rs.add(20, 30)
    rs.add(5, 25)
    assert list(rs) == [(0, 30)]


def test_prune_below():
    rs = RangeSet([(0, 10), (20, 30)])
    rs.prune_below(25)
    assert list(rs) == [(25, 30)]
    rs.prune_below(100)
    assert not rs


def test_contains():
    rs = RangeSet([(10, 20)])
    assert rs.contains(10, 20)
    assert rs.contains(12, 15)
    assert not rs.contains(5, 15)
    assert not rs.contains(15, 25)


def test_first_gap_simple():
    rs = RangeSet([(10, 20), (30, 40)])
    assert rs.first_gap(0, 50) == (0, 10)
    assert rs.first_gap(10, 50) == (20, 30)
    assert rs.first_gap(35, 50) == (40, 50)


def test_first_gap_fully_covered():
    rs = RangeSet([(0, 100)])
    assert rs.first_gap(0, 100) is None


def test_first_gap_empty_set():
    rs = RangeSet()
    assert rs.first_gap(5, 10) == (5, 10)


def test_as_tuples_limit():
    rs = RangeSet([(0, 1), (2, 3), (4, 5), (6, 7)])
    assert rs.as_tuples(2) == ((0, 1), (2, 3))


ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 50)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=30,
)


@given(ranges=ranges_strategy)
def test_invariants_sorted_disjoint(ranges):
    rs = RangeSet()
    for start, end in ranges:
        rs.add(start, end)
    items = list(rs)
    # sorted, non-empty, non-touching
    for (s1, e1), (s2, e2) in zip(items, items[1:]):
        assert e1 < s2
    for s, e in items:
        assert s < e


@given(ranges=ranges_strategy)
def test_total_bytes_matches_point_cover(ranges):
    rs = RangeSet()
    covered = set()
    for start, end in ranges:
        rs.add(start, end)
        covered.update(range(start, end))
    assert rs.total_bytes() == len(covered)


@given(ranges=ranges_strategy, cutoff=st.integers(0, 250))
def test_prune_matches_point_semantics(ranges, cutoff):
    rs = RangeSet()
    covered = set()
    for start, end in ranges:
        rs.add(start, end)
        covered.update(range(start, end))
    rs.prune_below(cutoff)
    expected = {p for p in covered if p >= cutoff}
    actual = set()
    for s, e in rs:
        actual.update(range(s, e))
    assert actual == expected


@given(ranges=ranges_strategy, floor=st.integers(0, 250))
def test_first_gap_is_truly_first_uncovered(ranges, floor):
    rs = RangeSet()
    covered = set()
    for start, end in ranges:
        rs.add(start, end)
        covered.update(range(start, end))
    limit = 300
    gap = rs.first_gap(floor, limit)
    uncovered = [p for p in range(floor, limit) if p not in covered]
    if gap is None:
        assert not uncovered
    else:
        assert gap[0] == uncovered[0]
        # every point of the gap is uncovered
        for p in range(gap[0], min(gap[1], limit)):
            assert p not in covered
