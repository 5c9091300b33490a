"""Unit + property tests for workload generators."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.experiments.harness import Testbed, TestbedConfig
from repro.units import KB, MB, msec
from repro.workloads import synthetic
from repro.workloads.flows import EmpiricalDistribution
from repro.workloads.northsouth import NorthSouthWorkload
from repro.workloads.synthetic import (
    random_bijection_pairs,
    random_pairs,
    shuffle_workload,
    stride_pairs,
)
from repro.workloads.tracedriven import KANDULA_FLOW_SIZES, TraceWorkload


class TestStride:
    def test_paper_stride8(self):
        pairs = stride_pairs(16, 8)
        assert pairs[0] == (0, 8)
        assert pairs[15] == (15, 7)
        assert len(pairs) == 16

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            stride_pairs(16, 0)
        with pytest.raises(ValueError):
            stride_pairs(16, 16)


class TestRandomPairs:
    @given(seed=st.integers(0, 1000))
    def test_never_same_pod(self, seed):
        pairs = random_pairs(16, 4, random.Random(seed))
        for src, dst in pairs:
            assert src // 4 != dst // 4

    def test_every_host_sends(self):
        pairs = random_pairs(16, 4, random.Random(0))
        assert sorted(s for s, _ in pairs) == list(range(16))


class TestBijection:
    @given(seed=st.integers(0, 200))
    def test_is_cross_pod_permutation(self, seed):
        pairs = random_bijection_pairs(16, 4, random.Random(seed))
        srcs = [s for s, _ in pairs]
        dsts = [d for _, d in pairs]
        assert sorted(srcs) == list(range(16))
        assert sorted(dsts) == list(range(16))
        for src, dst in pairs:
            assert src // 4 != dst // 4

    def test_impossible_raises(self, monkeypatch):
        monkeypatch.setattr(synthetic, "BIJECTION_TRIES", 5)
        with pytest.raises(RuntimeError):
            random_bijection_pairs(4, 4, random.Random(0))


class TestEmpiricalDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([(1, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalDistribution([(1, 0.5), (2, 0.4), (3, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalDistribution([(1, 0.0), (2, 0.5)])  # last != 1.0

    @given(seed=st.integers(0, 1000))
    def test_samples_within_support(self, seed):
        rng = random.Random(seed)
        lo = KANDULA_FLOW_SIZES.points[0][0]
        hi = KANDULA_FLOW_SIZES.points[-1][0]
        for _ in range(50):
            assert lo <= KANDULA_FLOW_SIZES.sample(rng) <= hi

    def test_heavy_tail_shape(self):
        """Most flows are mice, most bytes are elephant bytes."""
        rng = random.Random(7)
        samples = [KANDULA_FLOW_SIZES.sample(rng) for _ in range(20_000)]
        mice = sum(1 for s in samples if s < 100 * KB)
        assert mice / len(samples) > 0.85
        big_bytes = sum(s for s in samples if s > 1 * MB)
        assert big_bytes / sum(samples) > 0.3

    def test_scaled(self):
        scaled = KANDULA_FLOW_SIZES.scaled(10)
        assert scaled.points[0][0] == 10 * KANDULA_FLOW_SIZES.points[0][0]
        with pytest.raises(ValueError):
            KANDULA_FLOW_SIZES.scaled(0)


def mini_clos(scheme="presto"):
    return Testbed(TestbedConfig(scheme=scheme, n_spines=2, n_leaves=2,
                                 hosts_per_leaf=2, model_cpu=False))


def test_shuffle_workload_progresses_and_refills(monkeypatch):
    monkeypatch.setattr(synthetic, "SHUFFLE_TRANSFER_BYTES", 100 * KB)
    tb = mini_clos()
    wl = shuffle_workload(tb, random.Random(1))
    wl.start()
    tb.run(msec(30))
    assert wl.completed > 4
    # senders keep SHUFFLE_CONCURRENT transfers outstanding until
    # queues drain
    assert len(wl.apps) >= wl.completed


def test_trace_workload_classifies_flows():
    tb = mini_clos()
    mice = []
    wl = TraceWorkload(tb, random.Random(3), stop_ns=msec(30),
                       mice_sink=mice.append,
                       elephant_sink=lambda size, fct: None)
    wl.start()
    tb.run(msec(60))
    assert wl.flows_started > 10
    assert mice  # plenty of mice in the distribution
    assert all(f > 0 for f in mice)


def test_northsouth_attaches_wan_users():
    tb = mini_clos()
    wl = NorthSouthWorkload(tb, random.Random(1))
    assert len(wl.remote_users) == 2  # one per spine
    wl.start()
    tb.run(msec(10))
    assert wl.flows_started > 0
    # WAN users actually received data over their 100 Mbps links
    delivered = sum(
        r.delivered_bytes
        for user in wl.remote_users
        for r in user.receivers.values()
    )
    assert delivered > 0
