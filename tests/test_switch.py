"""Unit tests for the switch: exact-match, ECMP groups, failover."""

from repro.net.addresses import shadow_mac, shadow_mac_tree
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.port import Port
from repro.net.switch import HASH_FLOW, HASH_FLOWCELL, EcmpGroup, Switch
from repro.sim.engine import Simulator
from repro.units import gbps, usec


class SinkNode:
    def __init__(self, name="sink"):
        self.name = name
        self.received = []

    def receive(self, pkt, in_port):
        self.received.append(pkt)


def wire(sim, sw, name):
    """Attach a port from sw to a fresh sink; returns (port, sink)."""
    link = Link(name, gbps(10), usec(1))
    port = Port(sim, name, link, 100_000)
    sink = SinkNode(name)
    port.peer = sink
    sw.add_port(port)
    return port, sink


def pkt(dst_mac, flow=1, cell=1):
    return Packet(flow_id=flow, src_host=0, dst_host=1, dst_mac=dst_mac,
                  kind="data", seq=0, payload_len=100, flowcell_id=cell)


def test_exact_match_forwarding():
    sim = Simulator()
    sw = Switch("S")
    p1, sink1 = wire(sim, sw, "p1")
    p2, sink2 = wire(sim, sw, "p2")
    sw.install_route(42, p2)
    sw.receive(pkt(42), None)
    sim.run()
    assert len(sink2.received) == 1
    assert sink1.received == []


def test_no_route_drop_counted():
    sim = Simulator()
    sw = Switch("S")
    wire(sim, sw, "p1")
    sw.receive(pkt(99), None)
    assert sw.no_route_drops == 1


def test_remove_route():
    sim = Simulator()
    sw = Switch("S")
    p1, _ = wire(sim, sw, "p1")
    sw.install_route(42, p1)
    sw.remove_route(42)
    sw.receive(pkt(42), None)
    assert sw.no_route_drops == 1


def test_ecmp_flow_hash_is_sticky_per_flow():
    sim = Simulator()
    sw = Switch("S")
    ports = [wire(sim, sw, f"p{i}")[0] for i in range(4)]
    group = EcmpGroup(ports, salt=7, mode=HASH_FLOW)
    chosen = {group.select(5, c).name for c in range(10)}
    assert len(chosen) == 1  # same flow, any flowcell -> same port


def test_ecmp_flowcell_hash_spreads_cells():
    sim = Simulator()
    sw = Switch("S")
    ports = [wire(sim, sw, f"p{i}")[0] for i in range(4)]
    group = EcmpGroup(ports, salt=7, mode=HASH_FLOWCELL)
    chosen = {group.select(5, c).name for c in range(64)}
    assert len(chosen) == 4  # flowcells spread across all ports


def test_ecmp_distribution_roughly_uniform():
    sim = Simulator()
    sw = Switch("S")
    ports = [wire(sim, sw, f"p{i}")[0] for i in range(4)]
    group = EcmpGroup(ports, salt=3, mode=HASH_FLOW)
    counts = {p.name: 0 for p in ports}
    for flow in range(4000):
        counts[group.select(flow, 1).name] += 1
    for c in counts.values():
        assert 800 < c < 1200  # ~1000 each


def test_ecmp_default_fallback():
    sim = Simulator()
    sw = Switch("S")
    p1, sink1 = wire(sim, sw, "p1")
    sw.ecmp_default = EcmpGroup([p1])
    sw.receive(pkt(12345), None)
    sim.run()
    assert len(sink1.received) == 1


def test_failover_redirects_after_latency():
    sim = Simulator()
    sw = Switch("S")
    p1, sink1 = wire(sim, sw, "p1")
    p2, sink2 = wire(sim, sw, "p2")
    group = sw.enable_failover(latency_ns=usec(10))
    group.set_backup(p1, p2)
    sw.install_route(42, p1)
    p1.link.set_down()
    # before detection latency: dropped
    sw.receive(pkt(42), None)
    assert sw.no_route_drops == 1
    sim.run(until=usec(20))
    sw.receive(pkt(42), None)
    sim.run()
    assert len(sink2.received) == 1


def test_failover_rewrite_applied():
    sim = Simulator()
    sw = Switch("S")
    p1, _ = wire(sim, sw, "p1")
    p2, sink2 = wire(sim, sw, "p2")
    group = sw.enable_failover(latency_ns=0)
    group.set_backup(p1, p2, onto=2)  # set-field: move onto tree 2
    sw.install_route(shadow_mac(1, 7), p1)
    p1.link.set_down()
    sw.receive(pkt(shadow_mac(1, 7)), None)
    sim.run()
    assert len(sink2.received) == 1
    assert shadow_mac_tree(sink2.received[0].dst_mac) == 2


def test_failover_rewrite_leaves_real_macs_alone():
    sim = Simulator()
    sw = Switch("S")
    p1, _ = wire(sim, sw, "p1")
    p2, sink2 = wire(sim, sw, "p2")
    sw.enable_failover(latency_ns=0).set_backup(p1, p2, onto=2)
    sw.install_route(7, p1)
    p1.link.set_down()
    assert sw.next_hop(1, 7, 1) == (p2, 7, False)


def test_next_hop_is_what_receive_does():
    """The pipeline over values: exact match, then the group (saying
    whether the flowcell was hashed), then failover at an explicit
    ``now`` — and no port where receive would count a no-route drop
    (the hashed-on-cell flag survives the drop: the fluid walk memo
    keys on it)."""
    sim = Simulator()
    sw = Switch("S")
    ports = [wire(sim, sw, f"p{i}")[0] for i in range(4)]
    sw.install_route(42, ports[0])
    assert sw.next_hop(5, 42, 1) == (ports[0], 42, False)
    assert sw.next_hop(5, 99, 1) == (None, 99, False)
    sw.ecmp_default = EcmpGroup(ports[1:], salt=7, mode=HASH_FLOWCELL)
    out, mac, by_cell = sw.next_hop(5, 99, 3)
    assert out is sw.ecmp_default.select(5, 3) and mac == 99 and by_cell
    sw.ecmp_by_mac[99] = EcmpGroup(ports[:1], mode=HASH_FLOW)
    assert sw.next_hop(5, 99, 3) == (ports[0], 99, False)
    # a dead egress with no failover is still the answer: the port drops
    ports[0].link.set_down()
    assert sw.next_hop(5, 42, 1) == (ports[0], 42, False)
    group = sw.enable_failover(latency_ns=usec(10))
    group.set_backup(ports[0], ports[1])
    ports[0].link.set_up()
    sim.run(until=usec(5))
    ports[0].link.set_down()                       # detected at t=5us
    assert sw.next_hop(5, 42, 1, now=usec(14)) == (None, 42, False)
    assert sw.next_hop(5, 42, 1, now=usec(15)) == (ports[1], 42, False)
    assert sw.next_hop(5, 42, 1) == (None, 42, False)  # the port's clock
    # a cell-hashed pick of a dead, not-yet-rerouted egress says so
    dead = next(c for c in range(1, 99)
                if sw.ecmp_default.select(6, c) is ports[1])
    ports[1].link.set_down()
    assert sw.next_hop(6, 77, dead, now=usec(5)) == (None, 77, True)


def test_ttl_guard_kills_looping_packet():
    sim = Simulator()
    sw = Switch("S")
    p1, _ = wire(sim, sw, "p1")
    sw.install_route(42, p1)
    p = pkt(42)
    p.hops = Switch.MAX_HOPS + 1
    sw.receive(p, None)
    assert sw.ttl_drops == 1
    assert sw.ttl_drop_bytes == p.wire_size


def test_failover_reverts_to_primary_after_recovery():
    """Regression for the recovery asymmetry: once the primary link is
    repaired the group must route on it again, and a *second* failure
    must pay the detection latency afresh instead of reusing the first
    failure's timestamp."""
    sim = Simulator()
    sw = Switch("S")
    p1, sink1 = wire(sim, sw, "p1")
    p2, sink2 = wire(sim, sw, "p2")
    group = sw.enable_failover(latency_ns=usec(10))
    group.set_backup(p1, p2)
    sw.install_route(42, p1)

    p1.link.set_down()
    sim.run(until=usec(20))
    sw.receive(pkt(42), None)
    sim.run(until=usec(30))
    assert len(sink2.received) == 1  # detoured while down

    p1.link.set_up()
    sw.receive(pkt(42), None)
    sim.run(until=usec(40))
    assert len(sink1.received) == 1  # back on the primary

    p1.link.set_down()  # second failure: detection clock restarts
    sw.receive(pkt(42), None)
    assert sw.no_route_drops == 1   # still within detection latency
    sim.run(until=usec(60))
    sw.receive(pkt(42), None)
    sim.run()
    assert len(sink2.received) == 2
