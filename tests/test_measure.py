"""``Window`` = two ``plane.counters()`` read-outs and their difference,
checked against the simulator's own counters read directly — the one
place outside the data planes that spells out where they live."""

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.faults.schedule import FaultSchedule, LinkDown
from repro.host import app as host_app
from repro.metrics.collectors import Window
from repro.units import KB, SEC, msec, usec


def _testbed(**kw):
    kw.setdefault("scheme", "presto")
    kw.setdefault("seed", 3)
    return Testbed(TestbedConfig(**kw))


def _switch_ports(tb):
    return [p for sw in tb.topo.switches.values() for p in sw.ports]


def _all_ports(tb):
    return _switch_ports(tb) + [h.nic.port for h in tb.hosts]


def _delta(after, before):
    return {k: after[k] - before[k] for k in after}


# --- packet plane -------------------------------------------------------------


def test_drop_tail_overflow_shows_in_loss_rate_and_port_bytes():
    # a 3:1 incast into a 30 KB port: the L1->h0 queue must overflow
    tb = _testbed(switch_buffer_bytes=30 * KB)
    apps = [tb.add_elephant(src, 0) for src in (4, 8, 12)]

    def read():
        return (sum(p.dropped_pkts for p in _switch_ports(tb)),
                sum(h.nic.tx_pkts for h in tb.hosts),
                {p.name: p.tx_bytes for p in _all_ports(tb)},
                [app.delivered_bytes() for app in apps])

    tb.run(msec(1))
    window = Window(tb, apps)
    drops0, tx0, bytes0, delivered0 = read()
    tb.run(msec(4))
    window.close()
    drops1, tx1, bytes1, delivered1 = read()

    assert drops1 > drops0 > 0  # the window subtracts a non-zero start
    assert window.loss_rate() == (drops1 - drops0) / (tx1 - tx0)
    assert window.port_tx_bytes() == {
        name: bytes1[name] - bytes0[name] for name in sorted(bytes1)}
    assert window.span_ns == msec(3)
    for app, d0, d1 in zip(apps, delivered0, delivered1):
        assert window.rate_bps(app) == (d1 - d0) * 8 * SEC / msec(3)
    assert sum(window.flow_rates_bps().values()) == pytest.approx(
        sum(window.rate_bps(app) for app in apps))
    # the receiver's NIC is the bottleneck: its host rate is the sum
    assert window.host_rates_bps()[0] == pytest.approx(
        sum(window.rate_bps(app) for app in apps))
    # later traffic does not move a closed window
    closed = window.loss_rate()
    tb.run(msec(5))
    assert window.loss_rate() == closed


def test_blackholed_split_equals_the_counters_read_directly():
    tb = _testbed()
    tb.controller.enable_fast_failover(tb.cfg.failover_latency_ns)
    apps = [tb.add_elephant(i, 12 + i) for i in range(4)]
    # one fault before the window opens, one inside it
    FaultSchedule.of(LinkDown(usec(600), "L1--S1"),
                     LinkDown(msec(2), "L1--S2")).arm(tb.sim, tb.topo)

    def read():
        switches = tb.topo.switches.values()
        split = {
            "queue_flush": sum(p.drop_cause_bytes.get("link_down", 0)
                               for p in _all_ports(tb)),
            "wire": sum(p.wire_drop_bytes for p in _all_ports(tb)),
            "no_route": sum(sw.no_route_drop_bytes for sw in switches),
            "ttl": sum(sw.ttl_drop_bytes for sw in switches),
        }
        return {**split, "total": sum(split.values())}

    tb.run(msec(1))
    window = Window(tb, apps)
    before = read()
    tb.run(msec(6))
    blackholed = window.close().blackholed()

    assert before["total"] > 0
    assert blackholed == _delta(read(), before)
    assert blackholed["total"] > 0
    assert blackholed["total"] == sum(
        v for k, v in blackholed.items() if k != "total")
    assert tb.plane.counters().blackholed == read()


def test_since_returns_only_in_window_samples(monkeypatch):
    monkeypatch.setattr(host_app, "PROBE_INTERVAL_NS", usec(100))
    monkeypatch.setattr(host_app, "MICE_BYTES", 10 * KB)
    tb = _testbed()
    probe = tb.add_probe(0, 12)
    mice = tb.add_mice(1, 13, interval_ns=usec(200))
    elephant = tb.add_elephant(2, 14)
    tb.run(msec(1))
    window = Window(tb, [probe, mice, elephant])
    marks = len(probe.rtts_ns), len(mice.fcts_ns)
    assert min(marks) > 0
    tb.run(msec(2))
    window.close()
    ends = len(probe.rtts_ns), len(mice.fcts_ns)
    tb.run(msec(3))  # samples after close() stay out
    assert len(probe.rtts_ns) > ends[0] > marks[0]
    assert window.since(probe.rtts_ns) == probe.rtts_ns[marks[0]:ends[0]]
    assert window.since(mice.fcts_ns) == mice.fcts_ns[marks[1]:ends[1]]
    with pytest.raises(ValueError):
        window.since([1, 2, 3])  # not a tracked transfer's list


def test_window_must_be_closed_before_it_is_read():
    window = Window(_testbed())
    with pytest.raises(RuntimeError):
        window.loss_rate()


# --- fluid plane --------------------------------------------------------------


def test_fluid_window_reads_the_engine_ledgers():
    tb = _testbed(fidelity="flow")
    tb.controller.enable_fast_failover(tb.cfg.failover_latency_ns)
    apps = [tb.add_elephant(i, 12 + (i % 2)) for i in range(4)]
    tb.add_mice(5, 12, interval_ns=usec(300))
    FaultSchedule.of(LinkDown(msec(2), "L1--S1")).arm(tb.sim, tb.topo)

    def delivered_to(host_id):
        return sum(t.delivered_bytes() for t in tb.engine.transfers
                   if t.dst == host_id)

    tb.run(msec(1))
    window = Window(tb, apps)
    bytes0 = tb.engine.link_bytes()
    delivered0 = {h: delivered_to(h) for h in (12, 13)}
    tb.run(msec(4))
    window.close()
    bytes1 = tb.engine.link_bytes()

    # a fluid stalls at a dead link; it loses nothing
    assert window.loss_rate() == 0.0
    assert set(window.blackholed().values()) == {0}
    assert window.port_tx_bytes() == {
        name: bytes1[name] - bytes0.get(name, 0) for name in sorted(bytes1)}
    assert window.port_tx_bytes()["h0->L1"] > 0
    rates = window.host_rates_bps()
    assert set(rates) == {h.host_id for h in tb.hosts}
    for host_id in (12, 13):
        assert rates[host_id] == (
            (delivered_to(host_id) - delivered0[host_id])
            * 8 * SEC / msec(3)) > 0
    assert rates[0] == 0.0
    assert sum(window.rate_bps(app) for app in apps) < sum(rates.values())
