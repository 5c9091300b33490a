"""Tests for the fault subsystem: schedule DSL, control plane,
convergence metrics, invariants and the chaos soak."""

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.faults.controlplane import ControlPlane
from repro.validate.invariants import byte_ledger, check_invariants
from repro.faults.metrics import ThroughputTimeline
from repro.faults.schedule import (
    FaultSchedule,
    LinkDegrade,
    LinkDown,
    LinkFlap,
    LinkUp,
    SwitchDown,
    SwitchUp,
    random_schedule,
)
from repro.faults.soak import SOAK, random_case, run_soak_case
from repro.metrics.collectors import Window
from repro.net.addresses import shadow_mac_tree
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.units import KB, gbps, msec, usec


def small_cfg(**kw):
    kw.setdefault("scheme", "presto")
    kw.setdefault("seed", 7)
    kw.setdefault("ctrl_detection_delay_ns", usec(400))
    kw.setdefault("ctrl_reaction_delay_ns", usec(100))
    return TestbedConfig(**kw)


def link_by_name(tb, name):
    return next(l for l in tb.topo.links if l.name == name)


# --- schedule DSL -----------------------------------------------------------


def test_flap_expands_to_down_up_cycles():
    actions = LinkFlap(100, "L1--S1", period_ns=10, count=2).actions()
    assert [(a.at_ns, a.kind) for a in actions] == [
        (100, "link_down"), (105, "link_up"),
        (110, "link_down"), (115, "link_up"),
    ]


def test_schedule_actions_sorted_and_end_ns():
    sched = FaultSchedule.of(
        LinkUp(300, "a"), LinkDown(100, "a"), LinkDegrade(200, "b", 0.5))
    times = [a.at_ns for a in sched.actions()]
    assert times == sorted(times)
    assert sched.end_ns == 300
    assert sched.link_names() == ("a", "b")
    assert FaultSchedule().end_ns == 0


def test_event_validation():
    with pytest.raises(ValueError):
        LinkDown(-1, "a").actions()
    with pytest.raises(ValueError):
        LinkFlap(0, "a", period_ns=1).actions()
    with pytest.raises(ValueError):
        LinkFlap(0, "a", period_ns=10, count=0).actions()
    with pytest.raises(ValueError):
        LinkDegrade(0, "a", rate_factor=0.0).actions()
    with pytest.raises(ValueError):
        LinkDegrade(0, "a", rate_factor=1.5).actions()
    with pytest.raises(ValueError):
        LinkDegrade(0, "a", rate_factor=0.5, duration_ns=0).actions()


def test_restores_network():
    assert not FaultSchedule.of(LinkDown(10, "a")).restores_network()
    assert FaultSchedule.of(
        LinkDown(10, "a"), LinkUp(20, "a")).restores_network()
    assert not FaultSchedule.of(
        LinkDegrade(10, "a", 0.5)).restores_network()
    assert FaultSchedule.of(
        LinkDegrade(10, "a", 0.5, duration_ns=5)).restores_network()
    # a SwitchUp covers the links a SwitchDown killed once expanded
    sw = {"S1": ["a", "b"]}
    down_only = FaultSchedule.of(SwitchDown(10, "S1"))
    assert not down_only.restores_network(sw)
    assert FaultSchedule.of(
        SwitchDown(10, "S1"), SwitchUp(20, "S1")).restores_network(sw)
    # ... and per-link recoveries count, but only under expansion
    mixed = FaultSchedule.of(
        SwitchDown(10, "S1"), LinkUp(20, "a"), LinkUp(21, "b"))
    assert mixed.restores_network(sw)


def test_random_schedule_deterministic_and_self_restoring():
    links = [f"L{i}--S{j}" for i in (1, 2) for j in (1, 2)]
    switches = {"S1": ["L1--S1", "L2--S1"], "S2": ["L1--S2", "L2--S2"]}
    for seed in range(8):
        a = random_schedule(RandomStreams(seed).stream("s"), links,
                            window_ns=msec(10), switches=switches)
        b = random_schedule(RandomStreams(seed).stream("s"), links,
                            window_ns=msec(10), switches=switches)
        assert a == b
        assert a.restores_network(switches)
        assert all(act.at_ns < msec(10) * 0.9 for act in a.actions())


def test_classic_failure_schedule_is_permanent():
    sched = FaultSchedule.of(LinkDown(msec(20), "L1--S1"))
    assert not sched.restores_network()
    assert sched.link_names() == ("L1--S1",)


# --- arming against a live testbed ------------------------------------------


def test_arm_rejects_unknown_targets_and_past_times():
    tb = Testbed(small_cfg())
    with pytest.raises(ValueError, match="unknown link"):
        FaultSchedule.of(LinkDown(10, "nope")).arm(tb.sim, tb.topo)
    with pytest.raises(ValueError, match="unknown switch"):
        FaultSchedule.of(SwitchDown(10, "nope")).arm(tb.sim, tb.topo)
    tb.run(usec(1))
    with pytest.raises(ValueError, match="in the past"):
        FaultSchedule.of(LinkDown(0, "L1--S1")).arm(tb.sim, tb.topo)


def test_armed_actions_apply_at_their_times():
    tb = Testbed(small_cfg())
    armed = FaultSchedule.of(
        LinkDown(usec(10), "L1--S1"), LinkUp(usec(30), "L1--S1"),
    ).arm(tb.sim, tb.topo)
    link = link_by_name(tb, "L1--S1")
    tb.run(usec(20))
    assert not link.up
    tb.run(usec(40))
    assert link.up
    assert armed.applied == [
        (usec(10), "link_down L1--S1"), (usec(30), "link_up L1--S1")]


def test_degrade_restores_the_original_rate():
    tb = Testbed(small_cfg())
    link = link_by_name(tb, "L2--S3")
    orig = link.rate_bps
    FaultSchedule.of(
        LinkDegrade(usec(10), "L2--S3", 0.25, duration_ns=usec(20)),
    ).arm(tb.sim, tb.topo)
    tb.run(usec(15))
    assert link.rate_bps == orig * 0.25
    tb.run(usec(40))
    assert link.rate_bps == orig


def test_switch_down_kills_every_attached_link():
    tb = Testbed(small_cfg())
    FaultSchedule.of(
        SwitchDown(usec(10), "S2"), SwitchUp(usec(30), "S2"),
    ).arm(tb.sim, tb.topo)
    s2_links = [l for l in tb.topo.links if l.name.endswith("--S2")]
    assert len(s2_links) == tb.cfg.n_leaves
    tb.run(usec(20))
    assert all(not l.up for l in s2_links)
    assert all(l.up for l in tb.topo.links if l not in s2_links)
    tb.run(usec(40))
    assert all(l.up for l in tb.topo.links)


# --- control plane ----------------------------------------------------------


def test_control_plane_reacts_after_detection_plus_reaction():
    tb = Testbed(small_cfg())
    control = tb.enable_control_plane()
    FaultSchedule.of(LinkDown(usec(10), "L1--S1")).arm(tb.sim, tb.topo)
    lb = tb.hosts[0].lb
    before = list(lb.labels_for(12))  # L1 host -> L4 host, 4 trees
    tb.run(usec(10) + control.total_delay_ns - 1)
    # observed immediately, but no push until the delays elapse
    assert [c.link for c in control.observed] == ["L1--S1"]
    assert control.reactions == [] and not control.settled()
    assert list(lb.labels_for(12)) == before
    tb.run(usec(10) + control.total_delay_ns)
    assert control.last_reaction_ns() == usec(10) + control.total_delay_ns
    assert control.settled()
    trees = {shadow_mac_tree(m) for m in lb.labels_for(12)}
    assert trees == {1, 2, 3}  # tree through S1 pruned


def test_control_plane_coalesces_simultaneous_changes():
    tb = Testbed(small_cfg())
    control = tb.enable_control_plane()
    FaultSchedule.of(SwitchDown(usec(10), "S1")).arm(tb.sim, tb.topo)
    tb.run(msec(2))
    assert len(control.observed) == tb.cfg.n_leaves
    assert len(control.reactions) == 1  # one push for the whole burst
    assert len(control.reactions[0].changes) == tb.cfg.n_leaves


def test_recovery_restores_unweighted_schedules():
    tb = Testbed(small_cfg())
    control = tb.enable_control_plane()
    FaultSchedule.of(
        LinkDown(usec(10), "L1--S1"), LinkUp(usec(600), "L1--S1"),
    ).arm(tb.sim, tb.topo)
    lb = tb.hosts[0].lb
    healthy = list(lb.labels_for(12))
    tb.run(usec(600))  # failure observed and reacted to; recovery pending
    assert {shadow_mac_tree(m) for m in lb.labels_for(12)} == {1, 2, 3}
    tb.run(msec(2))
    assert len(control.reactions) == 2
    assert list(lb.labels_for(12)) == healthy


def test_control_plane_rejects_negative_delays():
    tb = Testbed(small_cfg())
    with pytest.raises(ValueError):
        ControlPlane(tb.sim, tb.controller, tb.topo.links,
                     detection_delay_ns=-1)


# --- convergence metrics ----------------------------------------------------


def test_throughput_timeline_windows_and_quiesce():
    sim = Simulator()

    class FakeTransfer:
        delivered = 0

        def delivered_bytes(self):
            return FakeTransfer.delivered

    def deliver(n):
        FakeTransfer.delivered += n

    tl = ThroughputTimeline(sim, window_ns=100, stop_ns=400)
    tl.track(FakeTransfer())
    sim.schedule(50, deliver, 1000)     # lands in window ending at 100
    sim.schedule(250, deliver, 500)     # lands in window ending at 300
    sim.run()
    assert tl.samples == [(100, 1000), (200, 0), (300, 500), (400, 0)]
    assert sim.peek_time() is None  # sampling stopped; sim can quiesce
    rates = dict(tl.rates_bps())
    assert rates[100] == pytest.approx(1000 * 8 * 1e9 / 100)
    assert tl.mean_bps_between(100, 300) == pytest.approx(
        (rates[200] + rates[300]) / 2)


def test_throughput_timeline_validates_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        ThroughputTimeline(sim, window_ns=0, stop_ns=100)
    with pytest.raises(ValueError):
        ThroughputTimeline(sim, window_ns=10, stop_ns=0)


def test_window_blackholed_counts_fault_losses():
    tb = Testbed(small_cfg())
    tb.controller.enable_fast_failover(tb.cfg.failover_latency_ns)
    tb.enable_control_plane()
    window = Window(tb)
    assert window.close().blackholed()["total"] == 0
    app = tb.add_elephant(0, 12, size_bytes=512 * KB)
    # kill the uplink while the flow is in flight
    FaultSchedule.of(LinkDown(usec(200), "L1--S1")).arm(tb.sim, tb.topo)
    tb.run(msec(120))
    assert app.fct_ns is not None
    delta = window.close().blackholed()
    assert delta["total"] > 0
    assert delta["total"] == sum(
        v for k, v in delta.items() if k != "total")


# --- invariants -------------------------------------------------------------


def test_invariants_pass_on_clean_faulted_run():
    tb = Testbed(small_cfg())
    tb.controller.enable_fast_failover(tb.cfg.failover_latency_ns)
    tb.enable_control_plane()
    apps = [tb.add_elephant(0, 12, size_bytes=512 * KB),
            tb.add_elephant(5, 9, size_bytes=512 * KB)]
    FaultSchedule.of(
        LinkDown(usec(200), "L1--S1"), LinkUp(msec(3), "L1--S1"),
    ).arm(tb.sim, tb.topo)
    tb.run(msec(300))
    report = check_invariants(tb, apps)
    assert report.ok, report.violations
    assert report.stats["quiesced"] == 1
    assert report.stats["flows_stuck"] == 0
    assert report.stats["schedule_mismatches"] == 0
    ledger = byte_ledger(tb)
    assert ledger["nic_tx"] == ledger["accounted"] > 0


def test_invariants_flag_stuck_flows_and_stale_schedules():
    tb = Testbed(small_cfg())
    tb.run(msec(1))

    class Stuck:
        fct_ns = None

        def flow_ids(self):
            return [99]

        def delivered_bytes(self):
            return 0

    # hand-mangle one vswitch schedule: the consistency check must see it
    tb.hosts[0].lb.set_schedule(12, [1234])
    report = check_invariants(tb, [Stuck()])
    assert not report.ok
    assert any("stuck transfer" in v for v in report.violations)
    assert any("stale schedule" in v for v in report.violations)
    assert report.stats["flows_stuck"] == 1


# --- soak -------------------------------------------------------------------


def test_random_case_deterministic():
    a = random_case(3, 5)
    b = random_case(3, 5)
    assert a == b
    assert a != random_case(3, 6)
    assert a.schedule.restores_network(
        {f"S{j + 1}": [f"L{i + 1}--S{j + 1}" for i in range(a.cfg.n_leaves)]
         for j in range(a.cfg.n_spines)})
    srcs = [s for s, _ in a.pairs]
    dsts = [d for _, d in a.pairs]
    assert len(set(srcs)) == len(srcs) and len(set(dsts)) == len(dsts)
    leaf = lambda h: h // a.cfg.hosts_per_leaf
    assert all(leaf(s) != leaf(d) for s, d in a.pairs)


def test_run_soak_case_holds_invariants():
    result = run_soak_case(random_case(0, 0))
    assert result.ok, result.violations
    assert result.faults_applied >= 2  # fault + its recovery at minimum
    assert result.reactions >= 1
    assert result.stats["flows_stuck"] == 0


def test_run_soak_through_runner():
    report = SOAK.run(n_cases=2, base_seed=1, jobs=1, store=None)
    assert report.ok, [r.violations for r in report.results if r]
    assert len(report.rows()) == 2
