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
:func:`validate_trees` checks exactly this, plus full (tree x host)
shadow-MAC reachability, by walking the real L2 tables.

Each tree gets a shadow-MAC label per destination host;
:func:`install_tree_routes` programs the L2 tables so labelled packets
ride exactly that tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, zip_longest
from typing import Dict, List, Optional, Tuple

from repro.net.addresses import shadow_mac
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
    """Program shadow-MAC forwarding for every (tree, destination host):
    a tier-``t`` switch sends the label down toward the host when the
    host is below it, and out of up port ``tree.up[t]`` otherwise.

    The down entry goes on *every* switch above the host, not just the
    ones on the tree: that is what lets hardware fast failover detour a
    labelled packet through a sibling switch without controller help.
    At the destination's edge switch "down" is the host port (the host
    vSwitch rewrites the real MAC back, paper S3.2).
    """
    for tree in trees:
        labels = [(host_id, shadow_mac(tree.tree_id, host_id))
                  for host_id in topo.host_port]
        for tier, index in zip_longest(topo.tiers, tree.up):
            for sw in tier:
                below = topo.below[sw]
                # the top tier has no index: nowhere further to climb
                climb = topo.up[sw][index] if index is not None else None
                for host_id, label in labels:
                    out = below.get(host_id, climb)
                    if out is not None:
                        sw.install_route(label, out)


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

    * **reachability** — for every (tree, destination host), the shadow
      MAC walks the installed L2 tables from every edge switch to the
      destination's host port without looping;
    * **disjointness** — two trees cross the same link between tiers
      ``t`` and ``t+1`` only if they agree on ``up[0..t]`` (trunk links
      into the top tier belong to exactly one tree).
    """
    problems: List[str] = []
    #: link name -> the first tree that crossed it
    owner: Dict[str, SpanningTree] = {}
    clashes = set()
    max_hops = 2 * len(topo.tiers) + 1
    for tree, dst in product(trees, topo.tiers[0]):
        # below an edge switch are its own hosts, behind their host ports
        for nth, (host_id, target) in enumerate(topo.below[dst].items()):
            label = shadow_mac(tree.tree_id, host_id)
            for start in topo.tiers[0]:
                node, path = start, []
                while True:
                    out = node.l2_table.get(label)
                    if out is None:
                        problems.append(
                            f"tree {tree.tree_id}: no route for host "
                            f"{host_id}'s label at {node.name}")
                        break
                    if out is target:
                        break
                    if not isinstance(out.peer, Switch):
                        problems.append(
                            f"tree {tree.tree_id}: host {host_id}'s label "
                            f"delivered to the wrong host via {out.name}")
                        break
                    path.append(out)
                    node = out.peer
                    if len(path) > max_hops:
                        problems.append(
                            f"tree {tree.tree_id}: forwarding loop for "
                            f"host {host_id}'s label starting at "
                            f"{start.name}")
                        break
                if len(problems) > 20:
                    raise TreeValidationError(
                        "; ".join(problems[:20]) + "; ...")
                if nth or out is not target:
                    continue  # an edge's hosts share their fabric path
                # the path climbed len/2 tiers and came back down, so
                # its k-th link joins tiers level-1 and level
                for k, port in enumerate(path):
                    level = min(k, len(path) - 1 - k) + 1
                    first = owner.setdefault(port.link.name, tree)
                    if first.up[:level] != tree.up[:level]:
                        clashes.add(
                            (first.tree_id, tree.tree_id, port.link.name))
    problems += [f"trees {a} and {b} share link {link}"
                 for a, b, link in sorted(clashes)]
    if problems:
        raise TreeValidationError("; ".join(problems[:20]))
