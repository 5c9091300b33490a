"""Unit tests for the Presto controller (schedules, weights, failover)."""

from collections import Counter

import pytest

from repro.host.gro import PrestoGro
from repro.host.host import Host
from repro.lb.base import VSwitch
from repro.net.addresses import host_mac, shadow_mac, shadow_mac_tree
from repro.net.fabrics import SINGLE_SWITCH, TopologySpec, build_fabric
from repro.presto.controller import PrestoController, _interleave_schedule
from repro.presto.flowcell import Presto
from repro.sim.engine import Simulator


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
    assert controller.schedule_for(0, 1) == [host_mac(1)]


def test_single_switch_schedules_direct():
    sim = Simulator()
    topo = build_fabric(sim, SINGLE_SWITCH)
    host0 = Host(sim, 0, lb=VSwitch(0, Presto()), model_cpu=False)
    host1 = Host(sim, 1, lb=VSwitch(1, Presto()), model_cpu=False)
    topo.attach_host(host0, topo.tiers[0][0])
    topo.attach_host(host1, topo.tiers[0][0])
    controller = PrestoController(topo)
    assert controller.schedule_for(0, 1) == [host_mac(1)]


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
