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
from repro.net.topology import Topology
from repro.net.fabrics import (
    SINGLE_SWITCH,
    TopologySpec,
    Wiring,
    build_fabric,
    fabric_link_names,
    wiring,
)
from repro.net.routing import (
    SpanningTree,
    TreeValidationError,
    allocate_spanning_trees,
    install_tree_routes,
    tree_legs,
    tree_root,
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
    "SINGLE_SWITCH",
    "TopologySpec",
    "Wiring",
    "build_fabric",
    "fabric_link_names",
    "wiring",
    "SpanningTree",
    "TreeValidationError",
    "allocate_spanning_trees",
    "install_tree_routes",
    "tree_legs",
    "tree_root",
    "validate_trees",
]
