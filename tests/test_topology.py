"""Unit tests for topology builders and host attachment."""

import pytest

from repro.host.gro import OfficialGro
from repro.host.host import Host
from repro.net.addresses import host_mac
from repro.net.switch import HASH_FLOWCELL
from repro.net.fabrics import SINGLE_SWITCH, TopologySpec, build_fabric
from repro.sim.engine import Simulator


def make_host(sim, host_id):
    return Host(sim, host_id, gro=OfficialGro(), model_cpu=False)


def test_clos_shape():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(4, 4))
    assert len(topo.tiers[1]) == 4
    assert len(topo.tiers[0]) == 4
    # full bipartite leaf-spine mesh
    assert len(topo.links) == 16
    for leaf in topo.tiers[0]:
        assert len(topo.up[leaf]) == 4


def test_scalability_topology_paths():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(6, 2, 6))
    assert len(topo.tiers[1]) == 6
    assert len(topo.tiers[0]) == 2


def test_oversub_topology():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(2, 2, 4))
    assert len(topo.tiers[1]) == 2
    assert len(topo.tiers[0]) == 2


def test_single_switch():
    sim = Simulator()
    topo = build_fabric(sim, SINGLE_SWITCH)
    assert len(topo.switches) == 1
    assert len(topo.tiers) == 1


def test_attach_host_installs_route_and_wires_ports():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(2, 2))
    host = make_host(sim, 0)
    topo.attach_host(host, topo.tiers[0][0])
    leaf = topo.tiers[0][0]
    assert host_mac(0) in leaf.l2_table
    assert host.nic.port is not None
    assert topo.host_leaf[0] is leaf


def test_attach_same_host_twice_rejected():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(2, 2))
    host = make_host(sim, 0)
    topo.attach_host(host, topo.tiers[0][0])
    with pytest.raises(ValueError):
        topo.attach_host(host, topo.tiers[0][1])


def test_duplicate_switch_name_rejected():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(2, 2))
    with pytest.raises(ValueError):
        topo.add_switch("S1")


def test_install_underlay_spine_routes_and_leaf_ecmp():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(2, 2))
    hosts = [make_host(sim, i) for i in range(4)]
    for i, host in enumerate(hosts):
        topo.attach_host(host, topo.tiers[0][i // 2])
    topo.install_underlay()
    for spine in topo.tiers[1]:
        for host_id in range(4):
            assert host_mac(host_id) in spine.l2_table
    for leaf in topo.tiers[0]:
        assert leaf.ecmp_default is not None


def test_install_underlay_flowcell_mode():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(2, 2))
    host = make_host(sim, 0)
    topo.attach_host(host, topo.tiers[0][0])
    topo.install_underlay(leaf_hash_mode=HASH_FLOWCELL)
    assert topo.tiers[0][0].ecmp_default.mode == HASH_FLOWCELL


def test_port_between():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(2, 2))
    leaf, spine = topo.tiers[0][0], topo.tiers[1][0]
    port = topo.port_between(leaf, spine)
    assert port is not None
    assert port.peer is spine
    assert topo.port_between(spine, leaf).peer is leaf
