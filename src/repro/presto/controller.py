"""Presto's centralized controller.

Responsibilities (paper S3.1 and S3.3):

* partition the fabric into disjoint spanning trees (one up-port index
  per tier: one tree per spine, or per fat-tree core) and install
  shadow-MAC forwarding rules;
* push, to every vSwitch, the per-destination label schedule (the list
  of shadow MACs iterated round-robin by Algorithm 1);
* on failure, recompute *weighted* schedules — WCMP-style weights are
  realized by duplicating labels in the schedule — and push the update
  to the edge (no switch firmware involvement);
* optionally configure hardware fast failover backups in the switches
  so the datapath survives the controller's reaction time.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

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
    """Builds trees, programs the fabric, and manages vSwitch schedules."""

    def __init__(self, topo: Topology, trees: Optional[List[SpanningTree]] = None):
        self.topo = topo
        self.trees = trees if trees is not None else allocate_spanning_trees(topo)
        install_tree_routes(topo, self.trees)
        self._vswitches: List = []  # VSwitch instances we push updates to
        # Walked once: links fail and recover, but where a tree climbs
        # from an edge switch and how high two edge switches' climbs
        # meet never change — and every schedule recomputation weighs
        # every tree for every host pair.
        edges = topo.tiers[0]
        self._climb: Dict[Tuple[int, Switch], List[Port]] = {
            (tree.tree_id, edge): tree_climb(topo, tree, edge)
            for tree in self.trees for edge in edges}
        self._meet: Dict[Tuple[Switch, Switch], int] = {
            (src, dst): len(legs) // 2 for src in edges for dst in edges
            if (legs := tree_legs(topo, self.trees[0], src, dst)) is not None}
        # Weights read nothing but the state of the links trees climb
        # through, and depend on the hosts only through their edge
        # switches: one plan per edge pair, dropped when a link changes.
        self._plans: Dict[Tuple[Switch, Switch], List[int]] = {}
        for link in {leg.link for climb in self._climb.values()
                     for leg in climb}:
            link.on_state_change.append(self._forget_plans)

    # --- schedule computation -------------------------------------------------

    def tree_weight(self, tree: SpanningTree, src_leaf: Switch, dst_leaf: Switch) -> float:
        """Usable capacity of a tree for a leaf pair: the min of its leg
        rates (0 when any leg is down) — the WCMP weighting input."""
        height = self._meet.get((src_leaf, dst_leaf))
        if height is None:  # no tree joins them
            return 0.0
        # both climbs up to where they meet: a link is up, and as fast,
        # in both directions, so the far climb stands in for the descent
        legs = (self._climb[tree.tree_id, src_leaf][:height]
                + self._climb[tree.tree_id, dst_leaf][:height])
        if not all(leg.up for leg in legs):
            return 0.0
        if not legs:  # same edge switch
            return 1.0
        return min(leg.link.rate_bps for leg in legs)

    def schedule_for(self, src_host: int, dst_host: int) -> List[int]:
        """Ordered label list ``src_host`` should round-robin toward
        ``dst_host``, with duplicates expressing weights."""
        src_leaf = self.topo.host_leaf[src_host]
        dst_leaf = self.topo.host_leaf[dst_host]
        if src_leaf is dst_leaf:
            return [host_mac(dst_host)]
        plan = self._plans.get((src_leaf, dst_leaf))
        if plan is None:
            plan = self._plans[src_leaf, dst_leaf] = self._tree_plan(
                src_leaf, dst_leaf)
        return [shadow_mac(tree_id, dst_host) for tree_id in plan]

    def _tree_plan(self, src_leaf: Switch, dst_leaf: Switch) -> List[int]:
        """The tree ids hosts below ``src_leaf`` round-robin toward hosts
        below ``dst_leaf``, a tree repeated once per unit of weight."""
        weights = [(t, self.tree_weight(t, src_leaf, dst_leaf)) for t in self.trees]
        usable = [(t, w) for t, w in weights if w > 0]
        if not usable:
            # Disconnected pair: fall back to all trees; packets will drop
            # in the fabric, which is what a real blackhole looks like.
            usable = [(t, 1.0) for t in self.trees]
        min_w = min(w for _, w in usable)
        plan: List[int] = []
        for tree, w in usable:
            copies = max(1, int(round(w / min_w)))
            plan.extend([tree.tree_id] * copies)
        # interleaved by tree id, which is by label: for one host a
        # shadow MAC grows with its tree id
        return _interleave_schedule(plan)

    def _forget_plans(self, link) -> None:
        self._plans.clear()

    # --- vSwitch management ------------------------------------------------------

    def register_vswitch(self, lb) -> None:
        """Track a host's VSwitch and push current schedules to it."""
        self._vswitches.append(lb)
        self.push_schedules(lb)

    def push_schedules(self, lb) -> None:
        for dst_host in self.topo.hosts:
            if dst_host == lb.host_id:
                continue
            lb.set_schedule(dst_host, self.schedule_for(lb.host_id, dst_host))

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
        switch above a host carries the down routes for all its labels
        (see :func:`~repro.net.routing.install_tree_routes`).

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
    counts = Counter(labels)
    if not counts:
        return labels
    total = sum(counts.values())
    # Largest-remainder style interleave: place each copy of a label at
    # evenly spaced fractional positions, then sort by position.
    placed = []
    for label, count in counts.items():
        for k in range(count):
            placed.append(((k + 0.5) / count, label))
    placed.sort(key=lambda item: (item[0], item[1]))
    return [label for _, label in placed][:total]
