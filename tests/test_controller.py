"""Unit tests for the Presto controller (schedules, weights, failover)."""

import random
import tracemalloc
from collections import Counter

import pytest

from repro.experiments.fabric_sweep import fabric_config
from repro.experiments.harness import Testbed, TestbedConfig
from repro.faults.controlplane import ControlPlane
from repro.host.gro import PrestoGro
from repro.host.host import Host
from repro.lb.base import VSwitch
from repro.net.addresses import host_mac, shadow_mac, shadow_mac_tree
from repro.net.fabrics import SINGLE_SWITCH, TopologySpec, build_fabric
from repro.presto import controller as controller_module
from repro.presto.controller import PrestoController, _interleave_schedule
from repro.presto.flowcell import Presto
from repro.sim.engine import Simulator
from repro.validate.invariants import check_invariants
from tests import reference_schedule


def build(n_spines=4, n_leaves=2, hosts_per_leaf=2):
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(n_spines, n_leaves))
    hosts = []
    for i in range(n_leaves * hosts_per_leaf):
        host = Host(sim, i, lb=VSwitch(i, Presto()), gro=PrestoGro(), model_cpu=False)
        topo.attach_host(host, topo.tiers[0][i // hosts_per_leaf])
        hosts.append(host)
    controller = PrestoController(topo)
    for host in hosts:
        controller.register_vswitch(host.lb)
    return sim, topo, controller, hosts


def test_schedule_covers_all_trees_when_healthy():
    _, topo, controller, hosts = build()
    schedule = controller.schedule_for(0, 2)
    trees = {shadow_mac_tree(mac) for mac in schedule}
    assert trees == {0, 1, 2, 3}
    assert len(schedule) == 4  # equal weights -> one label each


def test_same_leaf_pair_uses_direct_mac():
    _, topo, controller, hosts = build()
    assert list(controller.schedule_for(0, 1)) == [host_mac(1)]


def test_single_switch_schedules_direct():
    sim = Simulator()
    topo = build_fabric(sim, SINGLE_SWITCH)
    host0 = Host(sim, 0, lb=VSwitch(0, Presto()), model_cpu=False)
    host1 = Host(sim, 1, lb=VSwitch(1, Presto()), model_cpu=False)
    topo.attach_host(host0, topo.tiers[0][0])
    topo.attach_host(host1, topo.tiers[0][0])
    controller = PrestoController(topo)
    assert list(controller.schedule_for(0, 1)) == [host_mac(1)]


def test_failure_prunes_tree_for_affected_pairs():
    _, topo, controller, hosts = build()
    link = next(l for l in topo.links if l.name == "L1--S1")
    link.set_down()
    schedule = controller.schedule_for(0, 2)  # L1 host -> L2 host
    trees = {shadow_mac_tree(mac) for mac in schedule}
    assert 0 not in trees  # tree through S1 pruned
    assert trees == {1, 2, 3}
    # reverse direction equally pruned
    rev = controller.schedule_for(2, 0)
    assert 0 not in {shadow_mac_tree(m) for m in rev}


def test_failure_does_not_affect_unrelated_pairs():
    sim, topo, controller, hosts = build(n_leaves=4, hosts_per_leaf=1)
    link = next(l for l in topo.links if l.name == "L1--S1")
    link.set_down()
    # L2 -> L3 does not touch L1: all four trees usable
    schedule = controller.schedule_for(1, 2)
    assert {shadow_mac_tree(m) for m in schedule} == {0, 1, 2, 3}


def test_push_all_updates_registered_vswitches():
    _, topo, controller, hosts = build()
    link = next(l for l in topo.links if l.name == "L1--S1")
    link.set_down()
    controller.push_all()
    labels = hosts[0].lb.labels_for(2)
    assert all(shadow_mac_tree(m) != 0 for m in labels)


def test_weighted_schedule_duplicates_labels():
    """Halving one leg's rate should weight other trees 2x."""
    _, topo, controller, hosts = build()
    port = topo.port_between(topo.tiers[0][0], topo.tiers[1][0])
    port.link.set_rate(port.link.rate_bps / 2)
    schedule = controller.schedule_for(0, 2)
    counts = Counter(shadow_mac_tree(m) for m in schedule)
    assert counts[0] == 1
    assert counts[1] == counts[2] == counts[3] == 2


@pytest.mark.parametrize("change, expected", [
    ("set_down", {1: 1, 2: 1, 3: 1}),
    ("set_up", {0: 1, 1: 1, 2: 1, 3: 1}),
    ("set_rate", {0: 1, 1: 2, 2: 2, 3: 2}),
])
def test_schedule_follows_link_change_without_a_push(change, expected):
    """``schedule_for`` answers from a per-edge-pair plan; every way a
    link can change must drop it, so the next call reflects the new
    state with no ``push_all`` in between."""
    _, topo, controller, hosts = build()
    link = next(l for l in topo.links if l.name == "L1--S1")

    def trees(src=0, dst=2):
        return Counter(shadow_mac_tree(m)
                       for m in controller.schedule_for(src, dst))

    if change == "set_up":
        link.set_down()
    before = trees()  # the plan now holds the old state
    if change == "set_rate":
        link.set_rate(link.rate_bps / 2)
    else:
        getattr(link, change)()
    assert trees() == expected != before
    # one plan per edge pair, labels per destination host
    assert trees(1, 3) == expected
    assert controller.schedule_for(1, 3) != controller.schedule_for(0, 2)


def test_interleave_spreads_duplicates():
    a, b, c = 11, 22, 33
    out = _interleave_schedule([a, b, b, c])
    # the two b's must not be adjacent (cyclically this layout is fine)
    idx = [i for i, x in enumerate(out) if x == b]
    assert abs(idx[0] - idx[1]) > 1


def test_fast_failover_configures_leaves_and_spines():
    _, topo, controller, hosts = build()
    controller.enable_fast_failover(latency_ns=0)
    for leaf in topo.tiers[0]:
        assert leaf.failover is not None
    for spine in topo.tiers[1]:
        assert spine.failover is not None


def test_spine_failover_rewrite_moves_tree():
    sim, topo, controller, hosts = build()
    controller.enable_fast_failover(latency_ns=0)
    link = next(l for l in topo.links if l.name == "L1--S1")
    link.set_down()
    # a tree-0 labelled packet destined to host 0 (on L1), arriving at S1,
    # must be relabelled and still reach host 0
    from repro.net.packet import Packet

    pkt = Packet(flow_id=1, src_host=2, dst_host=0, dst_mac=shadow_mac(0, 0),
                 kind="data", seq=0, payload_len=100, flowcell_id=1)
    topo.tiers[0][1].receive(pkt, None)  # send from L2 up tree 0
    sim.run()
    assert hosts[0].nic.rx_pkts == 1


def test_set_rate_reweights_via_state_change():
    """Degrading a leg with Link.set_rate (not raw attribute pokes) must
    notify observers; a subscribed control loop pushing push_all then
    yields the weighted schedule."""
    _, topo, controller, hosts = build()
    link = next(l for l in topo.links if l.name == "L1--S1")
    link.on_state_change.append(lambda _l: controller.push_all())
    link.set_rate(link.rate_bps / 2)
    counts = Counter(shadow_mac_tree(m) for m in hosts[0].lb.labels_for(2))
    assert counts[0] == 1
    assert counts[1] == counts[2] == counts[3] == 2


def test_weight_is_min_of_both_legs():
    """A degraded *downlink* constrains the tree exactly like a degraded
    uplink: the WCMP weight is min(up leg, down leg)."""
    _, topo, controller, hosts = build()
    up = next(l for l in topo.links if l.name == "L1--S2")
    down = next(l for l in topo.links if l.name == "L2--S2")
    down.set_rate(down.rate_bps / 4)  # only the far leg is slow
    counts = Counter(shadow_mac_tree(m) for m in controller.schedule_for(0, 2))
    assert counts[1] == 1
    assert counts[0] == counts[2] == counts[3] == 4
    # the same degraded link is the *up* leg for the reverse direction
    rev = Counter(shadow_mac_tree(m) for m in controller.schedule_for(2, 0))
    assert rev[1] == 1 and rev[0] == 4
    assert up.rate_bps != down.rate_bps  # sanity: asymmetric legs


def test_interleave_no_adjacent_duplicates_in_weighted_schedule():
    """The 1:2:2:2 schedule a halved leg produces must not send two
    consecutive flowcells down the same tree."""
    _, topo, controller, hosts = build()
    link = next(l for l in topo.links if l.name == "L1--S1")
    link.set_rate(link.rate_bps / 2)
    schedule = controller.schedule_for(0, 2)
    assert len(schedule) == 7
    for a, b in zip(schedule, schedule[1:]):
        assert a != b


def test_interleave_preserves_label_multiset():
    labels = [11] * 3 + [22] * 2 + [33]
    out = _interleave_schedule(labels)
    assert Counter(out) == Counter(labels)
    assert _interleave_schedule([]) == []


def test_disconnected_pair_falls_back_to_all_trees():
    """With every uplink of the source leaf dead the pair is unroutable;
    the schedule falls back to all trees (packets blackhole in the
    fabric) instead of going empty and wedging the round robin."""
    _, topo, controller, hosts = build()
    for link in topo.links:
        if link.name.startswith("L1--"):
            link.set_down()
    schedule = controller.schedule_for(0, 2)
    assert len(schedule) == 4
    assert {shadow_mac_tree(m) for m in schedule} == {0, 1, 2, 3}


# --- one table per edge switch, shared by the vSwitches below it -------------


def test_hosts_below_one_edge_share_every_schedule():
    _, topo, controller, hosts = build()
    for dst in topo.hosts:
        shared = hosts[0].lb.labels_for(dst)
        assert hosts[1].lb.labels_for(dst) is shared  # both below L1
        assert isinstance(shared, tuple)
    assert hosts[2].lb.labels_for(0) is controller.schedule_for(3, 0)


def test_control_plane_swaps_shared_tuples_only_when_it_reacts():
    sim, topo, controller, hosts = build()
    control = ControlPlane(sim, controller, topo.links,
                           detection_delay_ns=100, reaction_delay_ns=50)
    before = [{dst: h.lb.labels_for(dst) for dst in topo.hosts}
              for h in hosts]
    link = next(l for l in topo.links if l.name == "L1--S1")
    link.set_rate(link.rate_bps / 2)
    sim.run(until=control.total_delay_ns - 1)
    for host, held in zip(hosts, before):
        assert all(host.lb.labels_for(dst) is labels
                   for dst, labels in held.items())
    sim.run(until=control.total_delay_ns)
    assert len(control.reactions) == 1
    for host in hosts:
        for dst in topo.hosts:
            assert (host.lb.labels_for(dst)
                    is controller.schedule_for(host.host_id, dst))
    weighted = hosts[0].lb.labels_for(2)
    assert weighted is hosts[1].lb.labels_for(2) != before[0][2]
    assert Counter(shadow_mac_tree(m) for m in weighted) == {
        0: 1, 1: 2, 2: 2, 3: 2}


def test_a_hand_set_schedule_stays_with_its_host():
    _, topo, controller, hosts = build()
    hosts[0].lb.set_schedule(2, [shadow_mac(1, 2)])
    assert hosts[0].lb.labels_for(2) == (shadow_mac(1, 2),)
    assert hosts[1].lb.labels_for(2) is controller.schedule_for(1, 2)
    assert len(controller.schedule_for(0, 2)) == 4


def test_hosts_below_one_edge_hold_one_table():
    _, topo, controller, hosts = build()
    table = hosts[0].lb._schedules
    assert hosts[1].lb._schedules is table
    assert table is controller._table(topo.host_leaf[0])
    assert hosts[2].lb._schedules is hosts[3].lb._schedules is not table
    with pytest.raises(TypeError):
        table[2] = (host_mac(2),)          # read-only: pushed, never edited


def test_a_hand_set_schedule_copies_the_edge_table_first():
    """Copy on write: the change reaches neither the host's neighbour
    below the same edge nor the controller, and the host keeps sharing
    every other destination's tuple."""
    _, topo, controller, hosts = build()
    table = hosts[1].lb._schedules
    before = dict(table)
    hosts[0].lb.set_schedule(2, [shadow_mac(1, 2)])
    assert hosts[0].lb._schedules is not table
    assert hosts[1].lb._schedules is table
    assert controller._table(topo.host_leaf[0]) is table
    assert dict(table) == before
    assert hosts[1].lb.labels_for(2) == before[2] != (shadow_mac(1, 2),)
    assert hosts[0].lb.labels_for(3) is table[3]


def test_a_repush_after_a_link_change_installs_the_new_table():
    """A link change drops the tables; until the push the vSwitches
    hold the old ones (the stale-schedule invariant sees it), after it
    every vSwitch below an edge holds that edge's new table — a
    hand-edited host included — and the invariant passes."""
    tb = Testbed(TestbedConfig(scheme="presto"))
    controller = tb.controller
    lbs = controller._vswitches
    old = {lb.host_id: lb._schedules for lb in lbs}
    far = next(h for h in tb.topo.hosts
               if tb.topo.host_leaf[h] is not tb.topo.host_leaf[0])
    tb.hosts[0].lb.set_schedule(far, [shadow_mac(0, far)])
    link = next(l for l in tb.topo.links if l.name == "L1--S1")
    link.set_rate(link.rate_bps / 2)
    stale = check_invariants(tb, check_quiesced=False)
    assert stale.stats["schedule_mismatches"] > 0
    controller.push_all()
    for lb in lbs:
        table = controller._table(tb.topo.host_leaf[lb.host_id])
        assert lb._schedules is table is not old[lb.host_id]
    assert len(tb.hosts[0].lb.labels_for(far)) > len(controller.trees)
    report = check_invariants(tb, check_quiesced=False)
    assert report.stats["schedule_mismatches"] == 0, report.violations


def test_one_push_notifies_each_vswitch_once():
    _, topo, controller, hosts = build()
    heard = Counter()
    for host in hosts:
        host.lb.on_schedule_change.append(
            lambda host_id=host.host_id: heard.update([host_id]))
    controller.push_all()
    assert heard == {host.host_id: 1 for host in hosts}


def test_k8_flow_testbed_holds_no_per_host_schedules():
    """A fat-tree:k=8 testbed's 128 vSwitches hold their 32 edges'
    tables, not a copy each (they once held one 127-entry dict each of
    shared tuples: 3.07 MiB traced here; before that 19 MB, 256 000
    label ints of it), its ports allocate a FIFO only once a packet
    waits (768 empty deques were 0.57 MiB), and its switches forward
    labels from ``below`` + ``climb`` maps (it once traced 8.6 MiB,
    5.65 MiB of it 166 528 per-label switch entries)."""
    tracemalloc.start()
    try:
        tb = Testbed(fabric_config("fat-tree:k=8", "presto", 1, "flow"))
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tb.hosts) == 128
    assert len({id(host.lb._schedules) for host in tb.hosts}) == 32
    assert traced <= 2.5 * 1024 * 1024



# --- the weighting rule against its per-pair reference ------------------------


@pytest.mark.parametrize("shape", [
    "clos:spines=4,leaves=4,hosts=4",
    "clos:spines=2,leaves=2,hosts=2",
    "fat-tree:k=4",
    "fat-tree:k=8",
    "leaf-spine:pods=8,spines=4,hosts=6",
])
def test_schedules_equal_the_per_pair_reference_through_link_changes(shape):
    """Every host pair's schedule equals the rule that weighs each tree
    leg by leg for each pair (``tests/reference_schedule.py``), healthy
    and after each of a seeded sequence of link downs, ups and rate
    halvings — and after ``push_all`` every vSwitch holds it."""
    tb = Testbed(fabric_config(shape, "presto", 1, "flow"))
    topo, controller = tb.topo, tb.controller
    climbing = {port.link for tier in topo.tiers for sw in tier
                for port in topo.up[sw]}
    fabric = [link for link in topo.links if link in climbing]
    rng = random.Random(shape)
    down = []

    def check():
        expected = reference_schedule.schedules(topo, controller.trees)
        assert {pair: controller.schedule_for(*pair)
                for pair in expected} == expected
        return expected

    check()
    for step in range(8):
        change = rng.choice(["set_down", "set_rate", "set_up"])
        if change == "set_up" and down:
            down.pop(rng.randrange(len(down))).set_up()
        elif change == "set_rate":
            link = rng.choice(fabric)
            link.set_rate(link.rate_bps / 2)
        else:
            link = rng.choice(fabric)
            link.set_down()
            down.append(link)
        expected = check()
    assert down  # a degraded state is among those checked
    controller.push_all()
    for host in tb.hosts:
        for dst in topo.hosts:
            assert host.lb.labels_for(dst) == expected[host.host_id, dst]


def test_a_healthy_k8_build_interleaves_one_plan(monkeypatch):
    """In a healthy fabric every edge pair has the same weights, so a
    fat-tree:k=8 build (32 edges, 992 edge pairs) plans once."""
    calls = []
    interleave = controller_module._interleave_schedule
    monkeypatch.setattr(controller_module, "_interleave_schedule",
                        lambda labels: calls.append(labels) or
                        interleave(labels))
    tb = Testbed(fabric_config("fat-tree:k=8", "presto", 1, "flow"))
    assert len(tb.hosts) == 128
    assert len(calls) == 1
