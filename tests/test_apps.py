"""Unit tests for traffic applications (bulk, mice, RTT probes)."""

from repro.experiments.harness import Testbed, TestbedConfig
from repro.host.app import FlowIdAllocator
from repro.units import KB, msec, usec


def mini(hosts=2):
    return Testbed(TestbedConfig(scheme="optimal", n_leaves=1,
                                 hosts_per_leaf=hosts, model_cpu=False))


def test_flow_id_allocator_unique_monotonic():
    alloc = FlowIdAllocator()
    ids = [alloc.next() for _ in range(100)]
    assert ids == sorted(set(ids))


def test_bulk_app_start_delay():
    tb = mini()
    app = tb.add_elephant(0, 1, size_bytes=10 * KB, start_ns=msec(5))
    tb.run(msec(4))
    assert app.sender is None  # not started yet
    tb.run(msec(20))
    assert app.fct_ns is not None


def test_mice_app_cadence():
    tb = mini()
    mice = tb.add_mice(0, 1, interval_ns=msec(2))
    tb.run(msec(21))
    assert mice.sent == 11  # t = 0, 2, ..., 20
    assert len(mice.fcts_ns) >= 10


def test_mice_app_stop():
    tb = mini()
    mice = tb.add_mice(0, 1, interval_ns=msec(2), stop_ns=msec(5))
    tb.run(msec(30))
    assert mice.sent == 3  # t = 0, 2, 4


def test_mice_fcts_reasonable():
    tb = mini()
    mice = tb.add_mice(0, 1, interval_ns=msec(2))
    tb.run(msec(20))
    # idle network: a 50 KB mouse takes tens of microseconds wire time
    # plus interrupt coalescing; well under a millisecond
    assert all(usec(40) < f < msec(1) for f in mice.fcts_ns)


def test_probe_pingpong():
    tb = mini()
    probe = tb.add_probe(0, 1)
    tb.run(msec(10))
    assert len(probe.rtts_ns) >= 8
    # idle RTT dominated by 2x interrupt coalescing (~15us per side)
    assert all(usec(20) < r < usec(200) for r in probe.rtts_ns)

