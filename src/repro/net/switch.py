"""Output-queued L2 switch with factored label forwarding, ECMP groups
and OpenFlow-style fast-failover groups.

Forwarding pipeline (matches how the paper's testbed is programmed):

1. ``below[host]`` when the MAC's host is below this switch, else
   ``climb[tree field]`` (:mod:`repro.net.addresses`): a real MAC goes
   down toward its host, a shadow-MAC label rides its spanning tree;
2. otherwise the port's default ECMP group, hashing either per-flow
   (classic ECMP) or per-(flow, flowcell) (the paper's "Presto + ECMP"
   per-hop variant, Fig 14);
3. a failover group can redirect a packet whose chosen egress link is
   down to a preconfigured backup port (Fig 17 "failover" stage).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addresses import (
    HOST_MASK,
    TREE_SHIFT,
    is_shadow_mac,
    shadow_mac,
    shadow_mac_host,
)
from repro.net.packet import Packet
from repro.net.port import Port


HASH_FLOW = "flow"
HASH_FLOWCELL = "flowcell"


class EcmpGroup:
    """Equal-cost multipath group over a set of ports."""

    def __init__(self, ports: List[Port], salt: int = 0, mode: str = HASH_FLOW):
        if not ports:
            raise ValueError("ECMP group needs at least one port")
        if mode not in (HASH_FLOW, HASH_FLOWCELL):
            raise ValueError(f"unknown hash mode: {mode}")
        self.ports = list(ports)
        self.salt = salt
        self.mode = mode

    def select(self, flow_id: int, flowcell_id: int) -> Port:
        if self.mode == HASH_FLOW:
            key = flow_id
        else:
            key = flow_id * 1_000_003 + flowcell_id
        # Cheap deterministic integer hash (Knuth multiplicative +
        # xor-shift), inline: this runs once per packet per ECMP hop.
        # CPython's ``hash(int)`` is the identity, which would make
        # "random" placement suspiciously uniform; this mixes properly
        # and is stable across runs and interpreters.
        x = (key * 0x9E3779B97F4A7C15 + self.salt) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 29
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 32
        return self.ports[x % len(self.ports)]


class FailoverGroup:
    """Maps a primary egress port to a backup used while its link is down.

    Models hardware fast failover (BGP external failover / OpenFlow
    fast-failover groups): redirect happens in the datapath with no
    controller involvement, ``latency_ns`` after the failure is detected.
    OpenFlow failover buckets may carry a set-field action, which is
    how a spine detours around a dead leaf link: relabel the packet onto
    another spanning tree and bounce it through a neighbouring leaf.
    """

    def __init__(self, latency_ns: int = 0):
        self._backup: Dict[Port, tuple] = {}  # primary -> (backup, onto?)
        self.latency_ns = latency_ns
        self._failed_at: Dict[Port, int] = {}

    def set_backup(self, primary: Port, backup: Port,
                   onto: Optional[int] = None) -> None:
        """``onto`` is the bucket's optional set-field action: the tree
        id a redirected shadow-MAC label is moved onto."""
        self._backup[primary] = (backup, onto)

    def note_failure(self, port: Port, now: int) -> None:
        self._failed_at.setdefault(port, now)

    def note_recovery(self, port: Port) -> None:
        """Primary link restored: forget the failure so the group reverts
        to the primary port and a *new* failure pays detection latency
        again (rather than reusing the stale first-failure timestamp)."""
        self._failed_at.pop(port, None)

    def reroute(self, port: Port, now: int, dst_mac: int
                ) -> Optional[Tuple[Port, int]]:
        """``(backup port, dst_mac after the bucket's action)`` for
        ``port`` if configured and detection latency has elapsed; None
        otherwise (packet is dropped, as in hardware)."""
        entry = self._backup.get(port)
        if entry is None:
            return None
        backup, onto = entry
        if not backup.up:
            return None
        failed_at = self._failed_at.get(port)
        if failed_at is not None and now - failed_at < self.latency_ns:
            return None
        if onto is not None and is_shadow_mac(dst_mac):
            dst_mac = shadow_mac(onto, shadow_mac_host(dst_mac))
        return backup, dst_mac


class Switch:
    """A named switch: forwarding state + attached ports."""

    def __init__(self, name: str, salt: int = 0, shared_buffer=None):
        self.name = name
        self.salt = salt
        #: optional SharedBuffer pool backing all of this switch's ports
        self.shared_buffer = shared_buffer
        self.ports: List[Port] = []
        #: host id -> down port, per host below (filled as hosts attach)
        self.below: Dict[int, Port] = {}
        #: tree field -> the up port that tree's labels climb through
        self.climb: Dict[int, Port] = {}
        self.ecmp_default: Optional[EcmpGroup] = None
        self.failover: Optional[FailoverGroup] = None
        self.rx_pkts = 0
        self.no_route_drops = 0
        self.no_route_drop_bytes = 0
        self.ttl_drops = 0
        self.ttl_drop_bytes = 0

    def add_port(self, port: Port) -> None:
        self.ports.append(port)
        if self.failover is not None:
            self._watch_link(port)

    def enable_failover(self, latency_ns: int = 0) -> FailoverGroup:
        """Turn on fast failover; returns the group to configure backups."""
        self.failover = FailoverGroup(latency_ns)
        for port in self.ports:
            self._watch_link(port)
        return self.failover

    def _watch_link(self, port: Port) -> None:
        def on_change(link, port=port):
            if self.failover is None:
                return
            if not link.up:
                self.failover.note_failure(port, port.sim.now)
            else:
                self.failover.note_recovery(port)
        port.link.on_state_change.append(on_change)

    #: hop budget: a forwarding loop (e.g. mis-configured failover
    #: bounces) kills the packet instead of the simulator
    MAX_HOPS = 32

    def next_hop(self, flow_id: int, dst_mac: int, flowcell_id: int,
                 now: Optional[int] = None
                 ) -> Tuple[Optional[Port], int, bool]:
        """The forwarding pipeline, stated once, over values: the MAC's
        host below, else its tree's climb, else the ECMP group, then
        fast failover if the chosen egress is down at ``now`` (default:
        that port's clock).
        Returns ``(egress port, dst_mac the packet leaves with, whether
        the choice hashed on the flowcell)``; the port is None where
        the packet is dropped (no route, or a dead egress whose bucket
        is not engaged) — the flag still says what that verdict read.

        Hardware semantics: a failover bucket applies its set-field
        action and forwards out its explicit backup port — no second
        lookup here; the next hop resolves the (possibly new) label.
        With no failover the egress may be down: its port drops."""
        out = self.below.get(dst_mac & HOST_MASK)
        if out is None:
            out = self.climb.get(dst_mac >> TREE_SHIFT)
        by_cell = False
        if out is None:
            group = self.ecmp_default
            if group is None:
                return None, dst_mac, False
            out = group.select(flow_id, flowcell_id)
            by_cell = group.mode == HASH_FLOWCELL
        if not out.link._up and self.failover is not None:
            hop = self.failover.reroute(
                out, out.sim.now if now is None else now, dst_mac)
            if hop is None:
                return None, dst_mac, by_cell
            out, dst_mac = hop
        return out, dst_mac, by_cell

    def receive(self, pkt: Packet, in_port: Optional[Port]) -> None:
        self.rx_pkts += 1
        if pkt.hops > self.MAX_HOPS:
            self.ttl_drops += 1
            self.ttl_drop_bytes += pkt.wire_size
            return
        # next_hop()'s label hit inlined: the per-packet path
        mac = pkt.dst_mac
        out = self.below.get(mac & HOST_MASK)
        if out is None:
            out = self.climb.get(mac >> TREE_SHIFT)
        if out is None or not out.link._up:
            out, dst_mac, _ = self.next_hop(
                pkt.flow_id, pkt.dst_mac, pkt.flowcell_id)
            if out is None:
                self.no_route_drops += 1
                self.no_route_drop_bytes += pkt.wire_size
                return
            pkt.dst_mac = dst_mac
        out.send(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Switch {self.name} ports={len(self.ports)}>"
