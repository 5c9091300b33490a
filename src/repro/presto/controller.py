"""Presto's centralized controller.

Responsibilities (paper S3.1 and S3.3):

* partition the Clos fabric into disjoint spanning trees (one per spine
  x parallel link) and install shadow-MAC forwarding rules;
* push, to every vSwitch, the per-destination label schedule (the list
  of shadow MACs iterated round-robin by Algorithm 1);
* on failure, recompute *weighted* schedules — WCMP-style weights are
  realized by duplicating labels in the schedule — and push the update
  to the edge (no switch firmware involvement);
* optionally configure hardware fast failover backups at the leaves so
  the datapath survives the controller's reaction time.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from repro.net.addresses import (
    host_mac,
    is_shadow_mac,
    shadow_mac,
    shadow_mac_host,
)
from repro.net.routing import (
    SpanningTree,
    allocate_spanning_trees,
    install_tree_routes,
    tree_legs,
)
from repro.net.switch import Switch
from repro.net.topology import Topology


class PrestoController:
    """Builds trees, programs the fabric, and manages vSwitch schedules."""

    def __init__(self, topo: Topology, trees: Optional[List[SpanningTree]] = None):
        self.topo = topo
        self.trees = trees if trees is not None else allocate_spanning_trees(topo)
        install_tree_routes(topo, self.trees)
        self._vswitches: List = []  # LoadBalancer instances we push updates to

    # --- schedule computation -------------------------------------------------

    def tree_usable(self, tree: SpanningTree, src_leaf: Switch, dst_leaf: Switch) -> bool:
        """A tree works for a leaf pair iff every leg of its path —
        2 through a spine (or intra-pod agg), 4 through a fat-tree
        core — is up."""
        legs = tree_legs(self.topo, tree, src_leaf, dst_leaf)
        return legs is not None and all(leg.up for leg in legs)

    def tree_weight(self, tree: SpanningTree, src_leaf: Switch, dst_leaf: Switch) -> float:
        """Usable capacity of a tree for a leaf pair: the min of its leg
        rates (0 when any leg is down) — the WCMP weighting input."""
        legs = tree_legs(self.topo, tree, src_leaf, dst_leaf)
        if legs is None or not all(leg.up for leg in legs):
            return 0.0
        if not legs:  # same edge switch
            return 1.0
        return min(leg.link.rate_bps for leg in legs)

    def schedule_for(self, src_host: int, dst_host: int) -> List[int]:
        """Ordered label list ``src_host`` should round-robin toward
        ``dst_host``, with duplicates expressing weights."""
        src_leaf = self.topo.host_leaf[src_host]
        dst_leaf = self.topo.host_leaf[dst_host]
        if src_leaf is dst_leaf or not self.topo.spines:
            return [host_mac(dst_host)]
        weights = [(t, self.tree_weight(t, src_leaf, dst_leaf)) for t in self.trees]
        usable = [(t, w) for t, w in weights if w > 0]
        if not usable:
            # Disconnected pair: fall back to all trees; packets will drop
            # in the fabric, which is what a real blackhole looks like.
            usable = [(t, 1.0) for t in self.trees]
        min_w = min(w for _, w in usable)
        schedule: List[int] = []
        for tree, w in usable:
            copies = max(1, int(round(w / min_w)))
            schedule.extend([shadow_mac(tree.tree_id, dst_host)] * copies)
        return _interleave_schedule(schedule)

    # --- vSwitch management ------------------------------------------------------

    def register_vswitch(self, lb) -> None:
        """Track a host's LoadBalancer and push current schedules to it."""
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

        * Leaves: each uplink's backup is the next spine's uplink
          (cyclic) — labels route at any spine, so no rewrite is needed.
        * Spines: a dead downlink to leaf X cannot be detoured locally
          (2-tier Clos), so the backup bucket *relabels* the packet onto
          the next spine's tree and bounces it through a neighbouring
          leaf, which forwards it up the healthy spine (OpenFlow
          fast-failover bucket with a set-field action).
        * Fat-tree aggs: each core uplink's backup is the next core
          uplink (cyclic).  No rewrite is needed — every core carries
          down routes for every label — so a labelled packet detours
          through a sibling core inside the same uplink class.  Dead
          *downlinks* (agg->edge, core->agg) are left to the
          controller's weighted reschedule: the affected class's trees
          lose the destination, and other classes take the weight.
        """
        for leaf in self.topo.leaves:
            ups = self.topo.uplinks(leaf)
            if len(ups) < 2:
                continue
            group = leaf.enable_failover(latency_ns)
            for i, port in enumerate(ups):
                group.set_backup(port, ups[(i + 1) % len(ups)])
        if self.topo.cores:
            core_set = set(self.topo.cores)
            for agg in self.topo.spines:
                ups = [p for p in agg.ports if p.peer in core_set]
                if len(ups) < 2:
                    continue
                group = agg.enable_failover(latency_ns)
                for i, port in enumerate(ups):
                    group.set_backup(port, ups[(i + 1) % len(ups)])
            return
        if len(self.topo.spines) < 2 or len(self.topo.leaves) < 2:
            return
        next_tree = {
            t.spine.name: self.trees[(i + 1) % len(self.trees)].tree_id
            for i, t in enumerate(self.trees)
        }
        for spine in self.topo.spines:
            downs = [p for p in spine.ports if p.peer in set(self.topo.leaves)]
            if len(downs) < 2:
                continue
            group = spine.enable_failover(latency_ns)
            relabel_tree = next_tree[spine.name]
            for i, port in enumerate(downs):
                backup = downs[(i + 1) % len(downs)]
                group.set_backup(
                    port, backup, rewrite=_relabel_to_tree(relabel_tree)
                )


def _relabel_to_tree(tree_id: int):
    """Failover-bucket set-field action: move the packet onto ``tree_id``."""

    def rewrite(pkt) -> None:
        if is_shadow_mac(pkt.dst_mac):
            pkt.dst_mac = shadow_mac(tree_id, shadow_mac_host(pkt.dst_mac))

    return rewrite


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
