"""Disjoint spanning-tree allocation and shadow-MAC label routing, for
a fabric of any depth.

A spanning tree is one up-port index per tier: ``tree.up[t]`` is which
of its up ports a tier-``t`` switch forwards the tree's labels out of
while the destination host is *not* below it; once the host is below,
the path down is forced.  The trees of a fabric are every combination
of indices (the product of the per-tier up fanouts, in product order).
The way down to a host retraces the tree's climb from the host's own
edge switch (:func:`tree_climb`), so the legs between two edge
switches are their two climbs up to the switch where they meet
(:func:`tree_legs`).

2-tier Clos (paper S3.1 / Fig 3): ``v`` spines give each leaf ``v`` up
ports, so ``v`` trees, tree ``(i,)`` rooted at spine ``i``.

3-tier k-ary fat tree: ``(k/2)^2`` trees, one per core.  Tree ``(j, m)``
climbs from an edge to the class-``j`` agg of its pod, from there to
that agg's ``m``-th core ``Cj.m``, and descends through the destination
pod's class-``j`` agg.

Two trees share a link between tiers ``t`` and ``t+1`` only if they
agree on ``up[0..t]``: every tree owns its top-tier links exclusively
(the generalization of "one disjoint tree per spine") and fat-tree
trees share edge<->agg links only within an uplink class.

Each tree gets a shadow-MAC label per destination host, but a switch
keeps no (tree, host) entry: the way down is its ``below`` (set as hosts
attach), so :func:`install_tree_routes` programs only each tree's
``climb``, and :func:`validate_trees` checks (tree x host) reachability
and disjointness from those two maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Tuple

from repro.net.addresses import tree_field
from repro.net.port import Port
from repro.net.switch import Switch
from repro.net.topology import Topology


class TreeValidationError(ValueError):
    """Spanning-tree invariants (disjointness / reachability) violated."""


@dataclass(frozen=True)
class SpanningTree:
    """One spanning tree of the fabric: its label id and, per tier below
    the top, the index of the up port its labels climb through."""

    tree_id: int
    up: Tuple[int, ...]


def allocate_spanning_trees(topo: Topology) -> List[SpanningTree]:
    """Every combination of one up port per tier, numbered in product
    order: one tree per spine in a 2-tier Clos, one per core
    (class-major) in a fat tree, and the single empty combination —
    all traffic crosses the one switch — for a one-tier fabric."""
    fanouts = []
    for tier in topo.tiers[:-1]:
        fanout = {len(topo.up[sw]) for sw in tier}
        if len(fanout) != 1:
            raise ValueError(
                f"switches of tier {len(fanouts)} have differing up-port "
                f"counts {sorted(fanout)}; a tree needs one index per tier")
        fanouts.append(range(fanout.pop()))
    return [SpanningTree(tree_id, up)
            for tree_id, up in enumerate(product(*fanouts))]


def tree_climb(topo: Topology, tree: SpanningTree, edge: Switch) -> List[Port]:
    """The up ports ``tree``'s labels leave through on their way from
    ``edge`` to the tree's root, one per tier."""
    ports: List[Port] = []
    for index in tree.up:
        ports.append(topo.up[edge][index])
        edge = ports[-1].peer
    return ports


def tree_root(topo: Topology, tree: SpanningTree) -> Switch:
    """The top-tier switch ``tree`` climbs to (from any edge switch)."""
    edge = topo.tiers[0][0]
    return tree_climb(topo, tree, edge)[-1].peer if tree.up else edge


def install_tree_routes(topo: Topology, trees: List[SpanningTree]) -> None:
    """Program shadow-MAC forwarding: a tier-``t`` switch climbs
    ``tree``'s labels out of up port ``tree.up[t]``.

    The way down needs no programming: every switch above a host has
    it in ``below``, which sends the host's labels of *every* tree down
    — that is what lets hardware fast failover detour a labelled packet
    through a sibling switch without controller help.  At the
    destination's edge switch "down" is the host port (the host vSwitch
    rewrites the real MAC back, paper S3.2).
    """
    for tree in trees:
        field = tree_field(tree.tree_id)
        # the top tier has no index: nowhere further to climb
        for tier, index in zip(topo.tiers, tree.up):
            for sw in tier:
                sw.climb[field] = topo.up[sw][index]


def tree_legs(
    topo: Topology,
    tree: SpanningTree,
    src_leaf: Switch,
    dst_leaf: Switch,
) -> Optional[List[Port]]:
    """The ordered fabric ports a labelled flowcell crosses from
    ``src_leaf`` to ``dst_leaf`` along ``tree``: up ``src_leaf``'s climb
    to the switch where ``dst_leaf``'s climb joins it, then down that
    one.  ``[]`` when both hosts share an edge switch, ``2n`` legs when
    the climbs meet ``n`` tiers up, ``None`` when they never do."""
    if src_leaf is dst_leaf:
        return []
    ups: List[Port] = []
    downs: List[Port] = []
    for up, other in zip(tree_climb(topo, tree, src_leaf),
                         tree_climb(topo, tree, dst_leaf)):
        ups.append(up)
        downs.append(other.peer_port)
        if up.peer is other.peer:
            return ups + downs[::-1]
    return None


def validate_trees(topo: Topology, trees: List[SpanningTree]) -> None:
    """Check the two spanning-tree invariants against the *programmed*
    switch state, raising :class:`TreeValidationError` on a breach:

    * **reachability** — every (tree, edge switch) climb reaches a
      switch with every host below it, and every ``below`` entry steps
      down to a switch with that host below it or to the host's own
      port: so every (tree, host) label, from every edge switch, walks
      to the destination's host port without looping;
    * **disjointness** — two trees climb the same link between tiers
      ``t`` and ``t+1`` only if they agree on ``up[0..t]`` (trunk links
      into the top tier belong to exactly one tree).
    """
    problems: List[str] = []
    tier_of = {sw: t for t, tier in enumerate(topo.tiers) for sw in tier}
    for sw, tier in tier_of.items():
        for host_id, out in sw.below.items():
            if out is topo.host_port.get(host_id):
                continue
            if tier_of.get(out.peer, tier) >= tier \
                    or host_id not in out.peer.below:
                problems.append(f"{sw.name}: the way down to host "
                                f"{host_id} leaves through {out.name}")
    #: link name -> the first tree that climbed it
    owner: Dict[str, SpanningTree] = {}
    clashes = set()
    for tree, edge in product(trees, topo.tiers[0]):
        field = tree_field(tree.tree_id)
        node, level = edge, 0
        while len(node.below) < len(topo.host_port):
            # the climb's level-th link joins tiers level-1 and level
            level += 1
            out = node.climb.get(field)
            if out is None or tier_of.get(out.peer) != level:
                problems.append(
                    f"tree {tree.tree_id}: no route up from {edge.name} "
                    f"at {node.name}")
                break
            first = owner.setdefault(out.link.name, tree)
            if first.up[:level] != tree.up[:level]:
                clashes.add((first.tree_id, tree.tree_id, out.link.name))
            node = out.peer
    problems += [f"trees {a} and {b} share link {link}"
                 for a, b, link in sorted(clashes)]
    if problems:
        raise TreeValidationError("; ".join(problems[:20]))
