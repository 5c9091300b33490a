"""Topology container: switches in tiers, links, host attachment and
the *underlay* routing needed regardless of load-balancing scheme.

A fabric is ordered **tiers** of switches (tier 0 = the edge switches
hosts attach to, the top tier = the spanning-tree roots) joined by
links that each climb one tier.  That is all a :class:`Topology` knows
about shape: per switch its up ports, its down ports and — filled in as
hosts attach — the hosts below it with the down port leading to each.
The paper's 2-tier Clos (Fig 3), a k-ary fat tree and the "Optimal"
single switch differ only in the wiring plan handed to
:func:`repro.net.fabrics.build_fabric`.
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

#: serialization jitter ceiling on every host's uplink port (see
#: ``Port.tx_jitter_ns`` for why hosts get one)
HOST_TX_JITTER_NS = 32


class Topology:
    """Switches + host attachment points + links of one experiment."""

    #: default switch packet-memory pool (G8264-class: ~4 MB shared)
    DEFAULT_POOL_BYTES = 4 * 1024 * 1024
    DEFAULT_POOL_ALPHA = 2.0

    def __init__(
        self,
        sim: Simulator,
        pool_bytes: int = DEFAULT_POOL_BYTES,
        pool_alpha: float = DEFAULT_POOL_ALPHA,
    ):
        self.sim = sim
        self.pool_bytes = pool_bytes
        self.pool_alpha = pool_alpha
        self.switches: Dict[str, Switch] = {}
        self.links: List[Link] = []
        self.hosts: Dict[int, object] = {}  # host_id -> Host (duck-typed)
        self.host_leaf: Dict[int, Switch] = {}
        self.host_port: Dict[int, Port] = {}  # leaf-side port toward the host
        #: tiers[0] = edge switches ... tiers[-1] = spanning-tree roots
        self.tiers: List[List[Switch]] = []
        #: per switch, in wiring order: ports to the tier above / below
        self.up: Dict[Switch, List[Port]] = {}
        self.down: Dict[Switch, List[Port]] = {}
        #: per switch: host_id -> the down port leading to that host
        self.below: Dict[Switch, Dict[int, Port]] = {}
        self._tier_of: Dict[Switch, int] = {}

    # --- construction --------------------------------------------------------

    def add_switch(self, name: str, tier: int = 0) -> Switch:
        if name in self.switches:
            raise ValueError(f"duplicate switch name: {name}")
        # creation order fixes the salt, and with it every ECMP choice
        sw = Switch(
            name,
            salt=(len(self.switches) + 1) * 0x51ED2701,
            shared_buffer=SharedBuffer(self.pool_bytes, self.pool_alpha),
        )
        self.switches[name] = sw
        while len(self.tiers) <= tier:
            self.tiers.append([])
        self.tiers[tier].append(sw)
        self._tier_of[sw] = tier
        self.up[sw], self.down[sw], self.below[sw] = [], [], {}
        return sw

    def connect(
        self,
        a: Switch,
        b: Switch,
        rate_bps: float = gbps(10),
        prop_delay_ns: int = usec(1),
        buffer_bytes: Optional[int] = None,
    ) -> Link:
        """Full-duplex link from ``a`` up to ``b``, one tier above it.

        ``buffer_bytes`` is a per-port *hard cap*; by default ports are
        limited only by their switch's shared pool (dynamic threshold).
        """
        if self._tier_of[b] != self._tier_of[a] + 1:
            raise ValueError(
                f"{a.name} (tier {self._tier_of[a]}) -- {b.name} (tier "
                f"{self._tier_of[b]}): a link climbs exactly one tier")
        link = Link(f"{a.name}--{b.name}", rate_bps, prop_delay_ns)
        cap = buffer_bytes if buffer_bytes is not None else self.pool_bytes
        port_ab = Port(self.sim, f"{a.name}->{b.name}", link, cap)
        port_ba = Port(self.sim, f"{b.name}->{a.name}", link, cap)
        port_ab.queue.shared = a.shared_buffer
        port_ba.queue.shared = b.shared_buffer
        port_ab.peer, port_ba.peer = b, a
        port_ab.peer_port, port_ba.peer_port = port_ba, port_ab
        a.add_port(port_ab)
        b.add_port(port_ba)
        self.up[a].append(port_ab)
        self.down[b].append(port_ba)
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
        to_leaf.tx_jitter_ns = HOST_TX_JITTER_NS
        to_host.peer, to_leaf.peer = host, leaf
        to_host.peer_port, to_leaf.peer_port = to_leaf, to_host
        leaf.add_port(to_host)
        leaf.install_route(host_mac(host_id), to_host)
        self.hosts[host_id] = host
        self.host_leaf[host_id] = leaf
        self.host_port[host_id] = to_host
        self.links.append(link)
        # the host is now below every switch above its leaf; where a
        # switch has several ways down, the first one wired wins
        self.below[leaf][host_id] = to_host
        climbing = [leaf]
        for sw in climbing:
            for up in self.up[sw]:
                if host_id not in self.below[up.peer]:
                    self.below[up.peer][host_id] = up.peer_port
                    climbing.append(up.peer)
        host.attach(to_leaf, self)
        return link

    # --- underlay routing ----------------------------------------------------

    def port_between(self, a: Switch, b: Switch) -> Optional[Port]:
        """The egress port on ``a`` whose peer is ``b`` (first match)."""
        return next((p for p in a.ports if p.peer is b), None)

    def install_underlay(self, leaf_hash_mode: str = HASH_FLOW) -> None:
        """Install real-MAC routing: every switch gets an exact entry
        where the path is forced (downhill, toward each host below it)
        and an ECMP group over its up ports for everything else."""
        for sw in self.switches.values():
            for host_id, down in self.below[sw].items():
                sw.install_route(host_mac(host_id), down)
            if self.up[sw]:
                sw.ecmp_default = EcmpGroup(
                    self.up[sw], salt=sw.salt, mode=leaf_hash_mode)
