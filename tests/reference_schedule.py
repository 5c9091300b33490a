"""The controller's weighting rule as it stood when every edge pair
weighed every tree leg by leg: the contract of
:meth:`repro.presto.controller.PrestoController.schedule_for`.

A tree's weight for a pair of edge switches is the slowest leg it
crosses between them (0 if a leg is down, or if the two never meet);
the usable trees are repeated once per unit of weight and interleaved.
``tests/test_controller.py`` requires the controller, which weighs each
pair from per-edge climb capacities, to hand out exactly the schedules
this one computes, healthy and degraded.  It is a reference
implementation, not a second path: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.net.addresses import host_mac, shadow_mac
from repro.net.routing import SpanningTree, tree_legs
from repro.net.switch import Switch
from repro.net.topology import Topology


def tree_weight(topo: Topology, tree: SpanningTree, src_leaf: Switch,
                dst_leaf: Switch) -> float:
    """Usable capacity of ``tree`` between two edge switches: the min of
    its leg rates, 0 when any leg is down or no tree joins them."""
    legs = tree_legs(topo, tree, src_leaf, dst_leaf)
    if legs is None:
        return 0.0
    if not all(leg.up for leg in legs):
        return 0.0
    if not legs:  # same edge switch
        return 1.0
    return min(leg.link.rate_bps for leg in legs)


def tree_plan(topo: Topology, trees: List[SpanningTree], src_leaf: Switch,
              dst_leaf: Switch) -> Tuple[int, ...]:
    """The tree ids hosts below ``src_leaf`` round-robin toward hosts
    below ``dst_leaf``, a tree repeated once per unit of weight."""
    weights = [(t, tree_weight(topo, t, src_leaf, dst_leaf)) for t in trees]
    usable = [(t, w) for t, w in weights if w > 0]
    if not usable:
        # disconnected pair: every tree
        usable = [(t, 1.0) for t in trees]
    min_w = min(w for _, w in usable)
    plan: List[int] = []
    for tree, w in usable:
        copies = max(1, int(round(w / min_w)))
        plan.extend([tree.tree_id] * copies)
    return tuple(interleave_schedule(plan))


def interleave_schedule(labels: List[int]) -> List[int]:
    """Place each copy of a label at evenly spaced fractional positions,
    then sort by (position, label)."""
    counts = Counter(labels)
    placed = []
    for label, count in counts.items():
        for k in range(count):
            placed.append(((k + 0.5) / count, label))
    placed.sort(key=lambda item: (item[0], item[1]))
    return [label for _, label in placed]


def schedules(topo: Topology,
              trees: List[SpanningTree]) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """Every host pair's schedule: the destination's real MAC below the
    same edge switch, else its shadow MACs along the edge pair's plan."""
    plans: Dict[Tuple[Switch, Switch], Tuple[int, ...]] = {}
    out = {}
    for src, src_leaf in topo.host_leaf.items():
        for dst, dst_leaf in topo.host_leaf.items():
            if src_leaf is dst_leaf:
                out[src, dst] = (host_mac(dst),)
                continue
            plan = plans.get((src_leaf, dst_leaf))
            if plan is None:
                plan = plans[src_leaf, dst_leaf] = tree_plan(
                    topo, trees, src_leaf, dst_leaf)
            out[src, dst] = tuple(shadow_mac(tree_id, dst) for tree_id in plan)
    return out
