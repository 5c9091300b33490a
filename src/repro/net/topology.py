"""Topology container and builders for the paper's testbeds.

* :func:`build_clos` — Fig 3: the 2-tier Clos evaluation testbed
  (default 4 spines x 4 leaves x 4 hosts/leaf = 16 hosts).
* :func:`build_single_switch` — the paper's "Optimal" baseline: every
  host on one non-blocking switch.

The Fig 4a/4b shapes (two leaves joined by 2-8 spines; two spines with
2-8 host pairs) are plain Clos specs — build them through
``repro.net.fabrics.build_fabric(sim, TopologySpec.clos(...))``.

A topology owns the simulator wiring: switches, links, host attachment
and the *underlay* routing needed regardless of load-balancing scheme
(exact-match routes for real host MACs, plus per-leaf ECMP groups over
the uplinks used by classic ECMP-on-real-MAC forwarding).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addresses import host_mac
from repro.net.link import Link
from repro.net.port import Port
from repro.net.queues import SharedBuffer
from repro.net.switch import HASH_FLOW, EcmpGroup, Switch
from repro.sim.engine import Simulator
from repro.units import gbps, usec


class Topology:
    """Switches + host attachment points + links of one experiment."""

    #: default switch packet-memory pool (G8264-class: ~4 MB shared)
    DEFAULT_POOL_BYTES = 4 * 1024 * 1024
    DEFAULT_POOL_ALPHA = 2.0

    def __init__(
        self,
        sim: Simulator,
        name: str = "topology",
        pool_bytes: int = DEFAULT_POOL_BYTES,
        pool_alpha: float = DEFAULT_POOL_ALPHA,
    ):
        self.sim = sim
        self.name = name
        self.pool_bytes = pool_bytes
        self.pool_alpha = pool_alpha
        self.switches: Dict[str, Switch] = {}
        self.links: List[Link] = []
        self.hosts: Dict[int, object] = {}  # host_id -> Host (duck-typed)
        self.host_leaf: Dict[int, Switch] = {}
        self.host_port: Dict[int, Port] = {}  # leaf-side port toward the host
        self.spines: List[Switch] = []
        self.leaves: List[Switch] = []
        #: third tier (k-ary fat tree): core switches; empty in 2-tier
        #: fabrics.  In a fat tree ``leaves`` holds the edge switches
        #: and ``spines`` the aggs, so 2-tier consumers keep working.
        self.cores: List[Switch] = []
        #: pod metadata, populated by build_fat_tree (pod-major)
        self.pod_edges: List[List[Switch]] = []
        self.pod_aggs: List[List[Switch]] = []
        self.switch_pod: Dict[str, int] = {}
        self._salt_counter = 0
        # positive port_between() results; the controller re-resolves
        # spine legs for every schedule recomputation and the linear
        # port scan dominated control-plane reaction time
        self._port_memo: Dict[tuple, Port] = {}

    # --- construction --------------------------------------------------------

    def add_switch(self, name: str) -> Switch:
        if name in self.switches:
            raise ValueError(f"duplicate switch name: {name}")
        self._salt_counter += 1
        sw = Switch(
            name,
            salt=self._salt_counter * 0x51ED2701,
            shared_buffer=SharedBuffer(self.pool_bytes, self.pool_alpha),
        )
        self.switches[name] = sw
        return sw

    def connect(
        self,
        a: Switch,
        b: Switch,
        rate_bps: float = gbps(10),
        prop_delay_ns: int = usec(1),
        buffer_bytes: Optional[int] = None,
    ) -> Link:
        """Full-duplex link between two switches.

        ``buffer_bytes`` is a per-port *hard cap*; by default ports are
        limited only by their switch's shared pool (dynamic threshold).
        """
        link = Link(f"{a.name}--{b.name}", rate_bps, prop_delay_ns)
        cap_a = buffer_bytes if buffer_bytes is not None else self.pool_bytes
        cap_b = buffer_bytes if buffer_bytes is not None else self.pool_bytes
        port_ab = Port(self.sim, f"{a.name}->{b.name}", link, cap_a)
        port_ba = Port(self.sim, f"{b.name}->{a.name}", link, cap_b)
        port_ab.queue.shared = a.shared_buffer
        port_ba.queue.shared = b.shared_buffer
        port_ab.peer, port_ba.peer = b, a
        port_ab.peer_port, port_ba.peer_port = port_ba, port_ab
        a.add_port(port_ab)
        b.add_port(port_ba)
        self.links.append(link)
        return link

    def attach_host(
        self,
        host,
        leaf: Switch,
        rate_bps: float = gbps(10),
        prop_delay_ns: int = usec(1),
        buffer_bytes: Optional[int] = None,
        host_buffer_bytes: int = 4 * 1024 * 1024,
        host_tx_jitter_ns: int = 32,
    ) -> Link:
        """Wire ``host`` (anything with ``.host_id`` and ``.receive``) to a
        leaf switch and install its real-MAC route on that leaf.

        The leaf-side port gets switch-class (shallow) buffering; the
        host-side egress gets qdisc-class (deep) buffering so hosts do
        not drop their own TSO bursts.
        """
        host_id = host.host_id
        if host_id in self.hosts:
            raise ValueError(f"host {host_id} already attached")
        link = Link(f"{leaf.name}--h{host_id}", rate_bps, prop_delay_ns)
        cap = buffer_bytes if buffer_bytes is not None else self.pool_bytes
        to_host = Port(self.sim, f"{leaf.name}->h{host_id}", link, cap)
        to_host.queue.shared = leaf.shared_buffer
        to_leaf = Port(self.sim, f"h{host_id}->{leaf.name}", link, host_buffer_bytes)
        to_leaf.tx_jitter_ns = host_tx_jitter_ns
        to_host.peer, to_leaf.peer = host, leaf
        to_host.peer_port, to_leaf.peer_port = to_leaf, to_host
        leaf.add_port(to_host)
        leaf.install_route(host_mac(host_id), to_host)
        self.hosts[host_id] = host
        self.host_leaf[host_id] = leaf
        self.host_port[host_id] = to_host
        self.links.append(link)
        host.attach(to_leaf, self)
        return link

    # --- shape ---------------------------------------------------------------

    @property
    def n_tiers(self) -> int:
        """1 (single switch), 2 (leaf-spine/Clos) or 3 (fat tree)."""
        if self.cores:
            return 3
        return 2 if self.spines else 1

    def pod_of_switch(self, sw: Switch) -> int:
        """Pod index of an edge/agg switch (3-tier fabrics only)."""
        try:
            return self.switch_pod[sw.name]
        except KeyError:
            raise ValueError(
                f"switch {sw.name} has no pod assignment; only 3-tier "
                f"fabrics built by repro.net.fabrics carry pod metadata"
            ) from None

    # --- underlay routing ----------------------------------------------------

    def port_between(self, a: Switch, b: Switch) -> Optional[Port]:
        """The egress port on ``a`` whose peer is ``b`` (first match).

        Memoized: appending ports never changes an existing first
        match, and misses are not cached, so the memo stays correct
        while the topology is still being built.
        """
        key = (a.name, b.name)
        port = self._port_memo.get(key)
        if port is None:
            for candidate in a.ports:
                if candidate.peer is b:
                    self._port_memo[key] = candidate
                    return candidate
            return None
        return port

    def ports_between(self, a: Switch, b: Switch) -> List[Port]:
        return [p for p in a.ports if p.peer is b]

    def uplinks(self, leaf: Switch) -> List[Port]:
        """Leaf ports whose peer is a spine switch."""
        spine_set = set(self.spines)
        return [p for p in leaf.ports if p.peer in spine_set]

    def install_underlay(self, leaf_hash_mode: str = HASH_FLOW) -> None:
        """Install real-MAC routing: exact entries where the path is forced
        (downhill toward the host) and ECMP over uplinks elsewhere.

        2-tier: spines get exact per-host down routes, leaves ECMP over
        their spine uplinks.  3-tier (fat tree): aggs additionally get
        exact down routes for their own pod's hosts plus ECMP over
        their core uplinks, and every core gets an exact down route per
        host (through the destination pod's agg it connects to)."""
        if self.cores:
            self._install_fat_tree_underlay(leaf_hash_mode)
            return
        for host_id, leaf in self.host_leaf.items():
            mac = host_mac(host_id)
            for spine in self.spines:
                down = self.port_between(spine, leaf)
                if down is not None:
                    spine.install_route(mac, down)
        for leaf in self.leaves:
            ups = self.uplinks(leaf)
            if ups:
                leaf.ecmp_default = EcmpGroup(ups, salt=leaf.salt, mode=leaf_hash_mode)

    def _install_fat_tree_underlay(self, leaf_hash_mode: str) -> None:
        core_set = set(self.cores)
        for host_id, edge in self.host_leaf.items():
            mac = host_mac(host_id)
            pod = self.switch_pod[edge.name]
            for agg in self.pod_aggs[pod]:
                down = self.port_between(agg, edge)
                if down is not None:
                    agg.install_route(mac, down)
            for core in self.cores:
                # each core reaches a pod through exactly one of its aggs
                for agg in self.pod_aggs[pod]:
                    down = self.port_between(core, agg)
                    if down is not None:
                        core.install_route(mac, down)
                        break
        for edge in self.leaves:
            ups = self.uplinks(edge)
            if ups:
                edge.ecmp_default = EcmpGroup(
                    ups, salt=edge.salt, mode=leaf_hash_mode)
        for agg in self.spines:
            ups = [p for p in agg.ports if p.peer in core_set]
            if ups:
                agg.ecmp_default = EcmpGroup(
                    ups, salt=agg.salt, mode=leaf_hash_mode)

    # --- counters -------------------------------------------------------------

    def total_switch_drops(self) -> int:
        return sum(sw.dropped_pkts() for sw in self.switches.values())

    def total_switch_tx_pkts(self) -> int:
        return sum(p.tx_pkts for sw in self.switches.values() for p in sw.ports)


def build_clos(
    sim: Simulator,
    n_spines: int = 4,
    n_leaves: int = 4,
    rate_bps: float = gbps(10),
    prop_delay_ns: int = usec(1),
    buffer_bytes: Optional[int] = None,
    pool_bytes: int = Topology.DEFAULT_POOL_BYTES,
    pool_alpha: float = Topology.DEFAULT_POOL_ALPHA,
) -> Topology:
    """Fig 3: 2-tier Clos.  Hosts are attached afterwards (4 per leaf in
    the paper); every leaf connects to every spine with one link."""
    topo = Topology(sim, f"clos{n_spines}x{n_leaves}", pool_bytes, pool_alpha)
    topo.spines = [topo.add_switch(f"S{i + 1}") for i in range(n_spines)]
    topo.leaves = [topo.add_switch(f"L{i + 1}") for i in range(n_leaves)]
    for leaf in topo.leaves:
        for spine in topo.spines:
            topo.connect(leaf, spine, rate_bps, prop_delay_ns, buffer_bytes)
    return topo


def build_single_switch(sim: Simulator) -> Topology:
    """The paper's "Optimal": a single non-blocking switch."""
    topo = Topology(sim, "single-switch")
    sw = topo.add_switch("SW")
    topo.leaves = [sw]
    topo.spines = []
    return topo
