"""Unit + property tests for metrics (stats, collectors, reordering)."""

import pytest
from hypothesis import example, given, strategies as st

from repro.metrics.reordering import ReorderTracker
from repro.metrics.stats import jain_fairness, mean, percentile
from repro.net.packet import Segment


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_endpoints(self):
        data = [10, 20, 30]
        assert percentile(data, 0) == 10
        assert percentile(data, 100) == 30

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_pct_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=100),
           st.floats(0, 100))
    def test_within_range(self, data, pct):
        value = percentile(data, pct)
        tol = 1e-6 * max(1.0, max(data))  # interpolation float slack
        assert min(data) - tol <= value <= max(data) + tol

    @given(st.lists(st.floats(0, 1e9), min_size=2, max_size=50))
    def test_monotone_in_pct(self, data):
        assert percentile(data, 25) <= percentile(data, 75)


class TestJain:
    def test_perfect(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_is_one(self):
        assert jain_fairness([]) == 1.0

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=32))
    @example([3.393057921039016e-158] * 2)  # squares underflow to subnormals
    def test_bounds(self, rates):
        index = jain_fairness(rates)
        assert 0 <= index <= 1.0 + 1e-9


def test_mean_empty():
    assert mean([]) == 0.0


def seg(flow, cell, size=1000, seq=0):
    return Segment(flow_id=flow, src_host=0, dst_host=1,
                   seq=seq, end_seq=seq + size, flowcell_id=cell)


class TestReorderTracker:
    def test_in_order_cells_have_zero_counts(self):
        tracker = ReorderTracker()
        for cell in (1, 1, 2, 2, 3):
            tracker.observe(seg(1, cell))
        assert tracker.out_of_order_counts() == [0, 0, 0]

    def test_interleaving_counted(self):
        tracker = ReorderTracker()
        # cell 1's segments sandwich two cell-2 segments
        for cell in (1, 2, 2, 1):
            tracker.observe(seg(1, cell))
        counts = dict(zip([1, 2], tracker.out_of_order_counts()))
        assert counts[1] == 2
        assert counts[2] == 0

    def test_flows_tracked_separately(self):
        tracker = ReorderTracker()
        tracker.observe(seg(1, 1))
        tracker.observe(seg(2, 9))
        tracker.observe(seg(1, 1))
        # one stream would put flow 2's cell inside flow 1's: [1, 0]
        assert tracker.out_of_order_counts() == [0, 0]

    def test_segment_sizes(self):
        tracker = ReorderTracker()
        tracker.observe(seg(1, 1, size=500))
        tracker.observe(seg(1, 1, size=700))
        assert sorted(tracker.segment_sizes()) == [500, 700]

    def test_truncation(self, monkeypatch):
        monkeypatch.setattr("repro.metrics.reordering.MAX_SAMPLES", 3)
        tracker = ReorderTracker()
        for i in range(10):
            tracker.observe(seg(1, i))
        assert tracker.truncated
        assert len(tracker.segment_sizes()) == 3

    def test_pushed_and_behind_counts(self):
        tracker = ReorderTracker()
        # flow 1 delivers [0, 1000) and [2000, 3000), then the hole
        # [1000, 2000) behind its high mark; flow 2 starts from 0 on
        # its own high mark
        for flow, seq in ((1, 0), (1, 2000), (1, 1000), (2, 0), (1, 3000)):
            tracker.observe(seg(flow, 1, seq=seq))
        assert tracker.pushed == 5
        assert tracker.behind == 1

    def test_counts_run_past_the_sample_cap(self, monkeypatch):
        monkeypatch.setattr("repro.metrics.reordering.MAX_SAMPLES", 2)
        tracker = ReorderTracker()
        # the last three arrive after the cap; two of them land behind
        # the high mark (3000, then 4000)
        for seq in (0, 2000, 1000, 3000, 500):
            tracker.observe(seg(1, 1, seq=seq))
        assert tracker.truncated
        assert len(tracker.segment_sizes()) == 2
        assert tracker.pushed == 5
        assert tracker.behind == 2


# --- streaming collectors under search load ----------------------------------
# The search driver leans on these for fitness aggregation at scale, so
# the estimators are pinned on exactly the streams that break naive
# marker updates: sorted, constant, and two-point inputs.

from repro.metrics.stats import percentile as exact_percentile  # noqa: E402
from repro.metrics.streaming import P2Quantile, StreamingQuantiles, TopK  # noqa: E402


class TestP2Adversarial:
    def test_sorted_ascending_stream(self):
        xs = list(range(1, 1001))
        for q in (0.5, 0.9, 0.99):
            est = P2Quantile(q)
            for x in xs:
                est.add(x)
            exact = exact_percentile(xs, q * 100)
            assert abs(est.value() - exact) / exact < 0.05

    def test_sorted_descending_stream(self):
        xs = list(range(1000, 0, -1))
        est = P2Quantile(0.9)
        for x in xs:
            est.add(x)
        exact = exact_percentile(xs, 90)
        assert abs(est.value() - exact) / exact < 0.05

    def test_constant_stream_is_exact(self):
        est = P2Quantile(0.99)
        for _ in range(500):
            est.add(42.0)
        assert est.value() == 42.0

    def test_two_point_stream_stays_bracketed(self):
        # alternating {0, 100}: any quantile estimate must stay inside
        # the sample range (the parabolic update must not extrapolate)
        est = P2Quantile(0.5)
        for i in range(1000):
            est.add(0.0 if i % 2 == 0 else 100.0)
        assert 0.0 <= est.value() <= 100.0

    def test_small_samples_exact(self):
        # below five samples value() is the exact interpolated quantile
        est = P2Quantile(0.5)
        for x in (10.0, 20.0, 30.0):
            est.add(x)
        assert est.value() == exact_percentile([10.0, 20.0, 30.0], 50)

    def test_rejects_degenerate_quantiles(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=300))
    def test_estimate_within_sample_range(self, xs):
        est = P2Quantile(0.9)
        for x in xs:
            est.add(x)
        assert min(xs) <= est.value() <= max(xs)


class TestStreamingSummary:
    def test_summary_keys_and_exact_fields(self):
        sq = StreamingQuantiles()
        sq.extend([float(x) for x in range(1, 101)])
        s = sq.summary()
        assert s["count"] == 100
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        for key in ("p50", "p90", "p99", "p99.9"):
            assert key in s

    def test_empty_summary(self):
        s = StreamingQuantiles().summary()
        assert s["count"] == 0
        assert s["mean"] is None and s["p50"] is None


class TestTopKTies:
    def test_ties_earlier_wins(self):
        top = TopK(k=2)
        top.add(5.0, "first")
        top.add(5.0, "second")
        top.add(5.0, "third")
        assert top.items() == [(5.0, "first"), (5.0, "second")]

    def test_tie_break_deterministic_across_runs(self):
        def run():
            top = TopK(k=3)
            for i in range(100):
                top.add(float(i % 7), f"item{i}")
            return top.items()

        assert run() == run()

    def test_largest_first_ordering(self):
        top = TopK(k=3)
        for v in (1.0, 9.0, 3.0, 7.0, 5.0):
            top.add(v, v)
        assert [v for v, _ in top.items()] == [9.0, 7.0, 5.0]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            TopK(k=0)
