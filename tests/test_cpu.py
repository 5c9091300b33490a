"""Unit tests for the receiver CPU model."""

import sys
from array import array

import pytest

from repro.experiments.gro_micro import reorder_config
from repro.experiments.harness import Testbed
from repro.host.cpu import CpuCosts, ReceiverCpu
from repro.sim.engine import Simulator
from repro.units import msec, usec


def test_costs_segment_push():
    costs = CpuCosts(per_segment_ns=1000, per_byte_ns=0.5)
    assert costs.segment_push_cost(2000) == 2000.0


def test_consume_serializes_work():
    sim = Simulator()
    cpu = ReceiverCpu(sim)
    done1 = cpu.consume(1000)
    done2 = cpu.consume(500)
    assert done1 == 1000
    assert done2 == 1500  # queued behind the first chunk


def test_free_at_after_idle_gap():
    sim = Simulator()
    cpu = ReceiverCpu(sim)
    cpu.consume(100)
    sim.schedule(usec(10), lambda: None)
    sim.run()
    assert cpu.free_at() == sim.now  # idle: free immediately


def test_zero_cost_noop():
    sim = Simulator()
    cpu = ReceiverCpu(sim)
    before = cpu.busy_ns_total
    cpu.consume(0)
    assert cpu.busy_ns_total == before


def test_utilization_fully_busy():
    sim = Simulator()
    cpu = ReceiverCpu(sim)
    # 10 work chunks of 10us back-to-back over 100us
    for i in range(10):
        sim.schedule(i * usec(10), cpu.consume, usec(10))
        sim.schedule(i * usec(10), cpu.checkpoint)
    sim.schedule(usec(100), cpu.checkpoint)
    sim.run()
    assert cpu.utilization(0, usec(100)) == pytest.approx(1.0, abs=0.05)


def test_utilization_half_busy():
    sim = Simulator()
    cpu = ReceiverCpu(sim)
    for i in range(10):
        sim.schedule(i * usec(10), cpu.consume, usec(5))
        sim.schedule(i * usec(10), cpu.checkpoint)
    sim.schedule(usec(100), cpu.checkpoint)
    sim.run()
    assert cpu.utilization(0, usec(100)) == pytest.approx(0.5, abs=0.1)


def test_utilization_series_windows():
    sim = Simulator()
    cpu = ReceiverCpu(sim)
    # busy only in the first 50us
    for i in range(5):
        sim.schedule(i * usec(10), cpu.consume, usec(10))
        sim.schedule(i * usec(10), cpu.checkpoint)
    sim.schedule(usec(100), cpu.checkpoint)
    sim.run()
    series = cpu.utilization_series(usec(50))
    assert len(series) == 2
    assert series[0][1] > 0.8
    assert series[1][1] < 0.2


def test_utilization_empty_window():
    sim = Simulator()
    cpu = ReceiverCpu(sim)
    assert cpu.utilization(10, 10) == 0.0


def _reference_interp(samples, t):
    """Cumulative busy ns at ``t`` over a list of ``(time, busy)``
    tuples: the log's read-out as it was computed when the log was
    such a list."""
    lo, hi = 0, len(samples) - 1
    if t >= samples[hi][0]:
        return samples[hi][1] + 0.0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if samples[mid][0] <= t:
            lo = mid
        else:
            hi = mid - 1
    t0, b0 = samples[lo]
    if lo + 1 < len(samples):
        t1, b1 = samples[lo + 1]
        if t1 > t0:
            return b0 + (b1 - b0) * (t - t0) / (t1 - t0)
    return float(b0)


def _reference_utilization(samples, since, until):
    if until <= since:
        return 0.0
    busy = (_reference_interp(samples, until)
            - _reference_interp(samples, since))
    return min(1.0, max(0.0, busy / (until - since)))


def test_checkpoint_log_reads_out_as_a_list_of_tuples_did():
    """On a recorded gro_micro cell (Presto into a reordering receiver)
    both read-outs equal, bit for bit, the same math over the
    ``(time, busy)`` tuples each checkpoint saw, and the log costs 16 B
    a checkpoint plus the arrays' over-allocation."""
    duration = msec(4)
    tb = Testbed(reorder_config("presto", 1))
    cpu = tb.hosts[2].cpu
    seen = [(0, 0)]
    checkpoint = cpu.checkpoint

    def recorded():
        busy = cpu.busy_ns_total - max(0, cpu._done_ns - tb.sim.now)
        seen.append((tb.sim.now, max(0, busy)))
        checkpoint()

    cpu.checkpoint = recorded
    tb.add_elephant(0, 2)
    tb.add_elephant(1, 3)
    tb.run(duration)
    n = len(seen)
    assert n > 100
    assert list(zip(cpu._times, cpu._busy_ns)) == seen
    for since, until in ((0, duration), (usec(333), msec(3)),
                         (msec(1), msec(1) + 7), (duration, duration + 1)):
        assert cpu.utilization(since, until) == _reference_utilization(
            seen, since, until)
    interval = usec(250)
    end = seen[-1][0]
    series = [(t, _reference_utilization(seen, t - interval, t))
              for t in range(interval, end + 1, interval)]
    assert cpu.utilization_series(interval) == series
    empty = sys.getsizeof(array("q"))
    for column in (cpu._times, cpu._busy_ns):
        assert column.itemsize == 8
        # CPython grows an array by an eighth-ish plus a few items
        assert sys.getsizeof(column) <= empty + 8 * (n + n // 8 + 8)
