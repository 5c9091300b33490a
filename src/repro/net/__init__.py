"""Network substrate: packets, links, switches, topologies, routing."""

from repro.net.addresses import (
    MacAddress,
    host_mac,
    is_shadow_mac,
    mac_str,
    shadow_mac,
    shadow_mac_host,
    shadow_mac_tree,
)
from repro.net.packet import Packet, Segment
from repro.net.queues import DropTailQueue
from repro.net.link import Link
from repro.net.port import Port
from repro.net.switch import EcmpGroup, FailoverGroup, Switch
from repro.net.topology import (
    Topology,
    build_clos,
    build_single_switch,
)
from repro.net.fabrics import (
    TopologySpec,
    build_fabric,
    build_fat_tree,
    build_leaf_spine,
    fabric_link_names,
)
from repro.net.routing import (
    SpanningTree,
    TopologyShapeError,
    TreeValidationError,
    allocate_spanning_trees,
    enumerate_paths,
    install_tree_routes,
    tree_legs,
    validate_trees,
)

__all__ = [
    "MacAddress",
    "host_mac",
    "shadow_mac",
    "shadow_mac_tree",
    "shadow_mac_host",
    "is_shadow_mac",
    "mac_str",
    "Packet",
    "Segment",
    "DropTailQueue",
    "Link",
    "Port",
    "Switch",
    "EcmpGroup",
    "FailoverGroup",
    "Topology",
    "build_clos",
    "build_single_switch",
    "TopologySpec",
    "build_fabric",
    "build_fat_tree",
    "build_leaf_spine",
    "fabric_link_names",
    "SpanningTree",
    "TopologyShapeError",
    "TreeValidationError",
    "allocate_spanning_trees",
    "enumerate_paths",
    "install_tree_routes",
    "tree_legs",
    "validate_trees",
]
