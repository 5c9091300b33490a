"""Unit tests for spanning-tree allocation and label routing."""

from repro.host.gro import OfficialGro
from repro.host.host import Host
from repro.net.addresses import shadow_mac
from repro.net.fabrics import SINGLE_SWITCH, TopologySpec, build_fabric
from repro.net.routing import (
    allocate_spanning_trees,
    install_tree_routes,
    tree_root,
)
from repro.sim.engine import Simulator


def build(n_spines=4, n_leaves=2, hosts_per_leaf=2):
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(n_spines, n_leaves))
    for i in range(n_leaves * hosts_per_leaf):
        host = Host(sim, i, gro=OfficialGro(), model_cpu=False)
        topo.attach_host(host, topo.tiers[0][i // hosts_per_leaf])
    return sim, topo


def test_one_tree_per_spine():
    _, topo = build(n_spines=4)
    trees = allocate_spanning_trees(topo)
    assert len(trees) == 4
    assert [tree_root(topo, t).name for t in trees] == ["S1", "S2", "S3", "S4"]
    assert [t.tree_id for t in trees] == [0, 1, 2, 3]
    assert [t.up for t in trees] == [(0,), (1,), (2,), (3,)]


def test_single_switch_degenerate_tree():
    sim = Simulator()
    topo = build_fabric(sim, SINGLE_SWITCH)
    trees = allocate_spanning_trees(topo)
    assert len(trees) == 1
    assert trees[0].up == () and tree_root(topo, trees[0]).name == "SW"


def test_install_tree_routes_complete():
    _, topo = build(n_spines=2, n_leaves=2, hosts_per_leaf=2)
    trees = allocate_spanning_trees(topo)
    install_tree_routes(topo, trees)
    for tree in trees:
        for host_id, leaf in topo.host_leaf.items():
            label = shadow_mac(tree.tree_id, host_id)
            # destination leaf delivers to the host port
            assert leaf.l2_table[label] is topo.host_port[host_id]
            # every spine can route the label down (failover support)
            for spine in topo.tiers[1]:
                assert label in spine.l2_table
            # other leaves route up to the tree's spine
            for other in topo.tiers[0]:
                if other is leaf:
                    continue
                up = other.l2_table[label]
                assert up.peer is tree_root(topo, tree)


def test_label_path_uses_only_its_tree_spine():
    """End-to-end: a labelled packet crosses exactly its tree's spine."""
    sim, topo = build(n_spines=4, n_leaves=2, hosts_per_leaf=1)
    trees = allocate_spanning_trees(topo)
    install_tree_routes(topo, trees)
    from repro.net.packet import Packet

    for tree in trees:
        label = shadow_mac(tree.tree_id, 1)  # host 1 on leaf 2
        pkt = Packet(flow_id=1, src_host=0, dst_host=1, dst_mac=label,
                     kind="data", seq=0, payload_len=100, flowcell_id=1)
        before = {s.name: s.rx_pkts for s in topo.tiers[1]}
        topo.tiers[0][0].receive(pkt, None)
        sim.run()
        for spine in topo.tiers[1]:
            expected = 1 if spine is tree_root(topo, tree) else 0
            assert spine.rx_pkts - before[spine.name] == expected
        # and the host got it
        assert topo.hosts[1].nic.rx_pkts >= 1
