"""Presto's centralized controller.

Responsibilities (paper S3.1 and S3.3):

* partition the fabric into disjoint spanning trees (one up-port index
  per tier: one tree per spine, or per fat-tree core) and program each
  switch's climb for every tree's shadow-MAC labels;
* push, to every vSwitch, the per-destination label schedule (the
  tuple of shadow MACs iterated round-robin by Algorithm 1);
* on failure, recompute *weighted* schedules — WCMP-style weights are
  realized by duplicating labels in the schedule — and push the update
  to the edge (no switch firmware involvement);
* optionally configure hardware fast failover backups in the switches
  so the datapath survives the controller's reaction time.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.net.addresses import host_mac, shadow_mac
from repro.net.routing import (
    SpanningTree,
    allocate_spanning_trees,
    install_tree_routes,
    tree_climb,
    tree_legs,
    tree_root,
)
from repro.net.port import Port
from repro.net.switch import Switch
from repro.net.topology import Topology


class PrestoController:
    """Builds trees, programs the fabric, and writes every vSwitch's
    schedules.

    A tree's weight for an edge pair is the usable capacity of the two
    climbs up to where they meet, so the controller keeps, per edge
    switch, each tree's climb capacities and weighs a pair from those.
    Pairs with one weight vector share one tree plan, and a schedule
    depends on its source host only through the host's edge switch: the
    controller builds one table per edge switch — an immutable label
    tuple per destination host, one tuple for every edge with the same
    plan toward the host — and hands each vSwitch below the edge the
    whole table in one :meth:`~repro.lb.base.VSwitch.set_schedules`
    call, as a read-only mapping the vSwitches hold as given.  A table
    is never mutated once built: a link change drops every table, and
    the next push hands out new ones.
    """

    def __init__(self, topo: Topology, trees: Optional[List[SpanningTree]] = None):
        self.topo = topo
        self.trees = trees if trees is not None else allocate_spanning_trees(topo)
        install_tree_routes(topo, self.trees)
        self._vswitches: List = []  # VSwitch instances we push updates to
        # Walked once: links fail and recover, but how high two edge
        # switches' climbs meet never changes.
        edges = topo.tiers[0]
        self._meet: Dict[Tuple[Switch, Switch], int] = {
            (src, dst): len(legs) // 2 for src in edges for dst in edges
            if (legs := tree_legs(topo, self.trees[0], src, dst)) is not None}
        # Everything below reads nothing but the state of the links trees
        # climb through, and is dropped (never edited: vSwitches hold the
        # tables) when a link changes.
        #: edge -> per tree, the usable capacity of its climb's first
        #: 1, 2, ... legs (0.0 from a down leg on)
        self._capacities: Dict[Switch, List[List[float]]] = {}
        #: tree weights -> tree plan
        self._plans: Dict[Tuple[float, ...], Tuple[int, ...]] = {}
        self._tables: Dict[Switch, Mapping[int, Tuple[int, ...]]] = {}
        #: (destination host, tree plan) -> labels, shared by every
        #: edge with that plan toward the host's edge (in a healthy
        #: fabric, all of them: one shadow MAC per tree and host)
        self._labels: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}
        for link in {port.link for tree in self.trees for edge in edges
                     for port in tree_climb(topo, tree, edge)}:
            link.on_state_change.append(self._forget_tables)

    # --- schedule computation -------------------------------------------------

    def schedule_for(self, src_host: int, dst_host: int) -> Tuple[int, ...]:
        """Ordered labels ``src_host`` should round-robin toward
        ``dst_host``, with duplicates expressing weights: the tuple every
        host below ``src_host``'s edge switch shares."""
        return self._table(self.topo.host_leaf[src_host])[dst_host]

    def _table(self, edge: Switch) -> Mapping[int, Tuple[int, ...]]:
        """The schedules of the hosts below ``edge``, per destination
        host: its real MAC below the same edge, else its shadow MACs
        along the edge pair's tree plan — read-only."""
        table = self._tables.get(edge)
        if table is not None:
            return table
        table = {}
        plans: Dict[Switch, Tuple[int, ...]] = {}
        for dst_host, dst_leaf in self.topo.host_leaf.items():
            if dst_leaf is edge:
                table[dst_host] = (host_mac(dst_host),)
                continue
            plan = plans.get(dst_leaf)
            if plan is None:
                plan = plans[dst_leaf] = self._plan(self._weights(edge, dst_leaf))
            labels = self._labels.get((dst_host, plan))
            if labels is None:
                labels = self._labels[dst_host, plan] = tuple(
                    [shadow_mac(tree_id, dst_host) for tree_id in plan])
            table[dst_host] = labels
        table = self._tables[edge] = MappingProxyType(table)
        return table

    def _weights(self, src_leaf: Switch, dst_leaf: Switch) -> Tuple[float, ...]:
        """Each tree's usable capacity between two edge switches — the
        WCMP weighting input: the slowest leg of both climbs up to where
        they meet (a link is up, and as fast, in both directions, so the
        far climb stands in for the descent), 0 if a leg is down or no
        tree joins them."""
        height = self._meet.get((src_leaf, dst_leaf))
        if height is None:
            return (0.0,) * len(self.trees)
        return tuple([min(near[height - 1], far[height - 1]) for near, far
                      in zip(self._capacity(src_leaf), self._capacity(dst_leaf))])

    def _capacity(self, edge: Switch) -> List[List[float]]:
        capacity = self._capacities.get(edge)
        if capacity is None:
            capacity = self._capacities[edge] = [
                list(accumulate([port.link.rate_bps if port.up else 0.0
                                 for port in tree_climb(self.topo, tree, edge)],
                                min))
                for tree in self.trees]
        return capacity

    def _plan(self, weights: Tuple[float, ...]) -> Tuple[int, ...]:
        """The tree ids to round-robin over for one weight per tree, a
        tree repeated once per unit of weight."""
        plan = self._plans.get(weights)
        if plan is not None:
            return plan
        usable = [(tree.tree_id, w) for tree, w in zip(self.trees, weights)
                  if w > 0]
        if not usable:
            # Disconnected pair: fall back to all trees; packets will drop
            # in the fabric, which is what a real blackhole looks like.
            usable = [(tree.tree_id, 1.0) for tree in self.trees]
        min_w = min(w for _, w in usable)
        # interleaved by tree id, which is by label: for one host a
        # shadow MAC grows with its tree id
        plan = self._plans[weights] = tuple(_interleave_schedule(
            [tree_id for tree_id, w in usable
             for _ in range(max(1, int(round(w / min_w))))]))
        return plan

    def _forget_tables(self, link) -> None:
        self._capacities.clear()
        self._plans.clear()
        self._tables.clear()
        self._labels.clear()

    # --- vSwitch management ------------------------------------------------------

    def register_vswitch(self, lb) -> None:
        """Track a host's VSwitch and push current schedules to it."""
        self._vswitches.append(lb)
        self.push_schedules(lb)

    def push_schedules(self, lb) -> None:
        """Hand ``lb`` its edge switch's table, in one install; every
        vSwitch below the edge holds that one table."""
        lb.set_schedules(self._table(self.topo.host_leaf[lb.host_id]))

    def push_all(self) -> None:
        """Recompute and push schedules to every registered vSwitch —
        the controller's reaction to topology change (weighted stage)."""
        for lb in self._vswitches:
            self.push_schedules(lb)

    # --- failure handling ----------------------------------------------------------

    def enable_fast_failover(self, latency_ns: int = 0) -> None:
        """Configure hardware fast-failover groups.

        Every switch below the top tier with two or more up ports backs
        each with the next (cyclic).  No rewrite is needed: the switch
        the backup reaches is a sibling of the dead port's, and every
        switch above a host sends all its labels down (``Switch.below``
        serves every tree).

        Dead *down* ports are left to the controller's weighted
        reschedule — the trees through them lose the destination and
        the others take the weight — except at a 2-tier root.
        """
        topo = self.topo
        for tier in topo.tiers[:-1]:
            for sw in tier:
                _back_up_cyclically(sw, latency_ns, topo.up[sw])
        # The one rule that depends on depth.  A 2-tier root is the
        # only switch between two leaves, so nothing upstream can steer
        # around its dead down port: its backup bucket relabels the
        # packet onto the next tree and bounces it through a
        # neighbouring leaf, which forwards it up that tree's healthy
        # root (an OpenFlow fast-failover bucket with a set-field
        # action).  "The next tree" is a different root only because a
        # 2-tier tree is a single index; in a deeper fabric it usually
        # climbs back through the same lower-tier switch, so there dead
        # down ports wait for the reschedule.
        if len(topo.tiers) == 2:
            for i, tree in enumerate(self.trees):
                root = tree_root(topo, tree)
                onto = self.trees[(i + 1) % len(self.trees)].tree_id
                if onto != tree.tree_id:
                    _back_up_cyclically(root, latency_ns, topo.down[root],
                                        onto)


def _back_up_cyclically(sw: Switch, latency_ns: int, ports: List[Port],
                        onto: Optional[int] = None) -> None:
    """Back each of ``sw``'s ``ports`` with the next one, if it has two;
    ``onto`` is the buckets' set-field action (a tree id)."""
    if len(ports) < 2:
        return
    group = sw.enable_failover(latency_ns)
    for i, port in enumerate(ports):
        group.set_backup(port, ports[(i + 1) % len(ports)], onto)


def _interleave_schedule(labels: List[int]) -> List[int]:
    """Spread duplicate labels apart so weighted round robin does not
    send consecutive flowcells down the same tree (p1,p2,p3,p2 rather
    than p1,p2,p2,p3)."""
    # Largest-remainder style interleave: place each copy of a label at
    # evenly spaced fractional positions, then sort by position.
    placed = []
    for label, count in Counter(labels).items():
        for k in range(count):
            placed.append(((k + 0.5) / count, label))
    placed.sort(key=lambda item: (item[0], item[1]))
    return [label for _, label in placed]
