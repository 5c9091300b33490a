"""MAC addressing, including Presto's shadow-MAC forwarding labels.

Shadow MACs (Agarwal et al., HotSDN'14) turn the destination MAC into an
opaque label: one label per (spanning tree, destination host) pair.  We
encode MACs as integers for speed; the layout is:

* real host MAC:     ``host_id``                      (tree field = 0)
* shadow MAC:        ``(tree_id + 1) << 32 | host_id``

so a shadow MAC is distinguishable from a real MAC, and a switch
forwards on two shifted halves without decoding anything else: the
*tree field* ``mac >> TREE_SHIFT`` (0 for a real MAC, ``tree_id + 1``
for a label) and the host ``mac & HOST_MASK``.
"""

from __future__ import annotations

MacAddress = int

TREE_SHIFT = 32
HOST_MASK = (1 << TREE_SHIFT) - 1


def host_mac(host_id: int) -> MacAddress:
    """The *real* MAC address of host ``host_id``."""
    if host_id < 0 or host_id > HOST_MASK:
        raise ValueError(f"host_id out of range: {host_id}")
    return host_id


def shadow_mac(tree_id: int, host_id: int) -> MacAddress:
    """The shadow MAC that routes to ``host_id`` along spanning tree
    ``tree_id``."""
    if tree_id < 0:
        raise ValueError(f"tree_id must be >= 0: {tree_id}")
    if host_id < 0 or host_id > HOST_MASK:
        raise ValueError(f"host_id out of range: {host_id}")
    return (tree_field(tree_id) << TREE_SHIFT) | host_id


def tree_field(tree_id: int) -> int:
    """The tree field (``mac >> TREE_SHIFT``) of tree ``tree_id``'s
    labels."""
    return tree_id + 1


def is_shadow_mac(mac: MacAddress) -> bool:
    """True when ``mac`` is a forwarding label rather than a real MAC."""
    return mac > HOST_MASK


def shadow_mac_tree(mac: MacAddress) -> int:
    """Spanning-tree id encoded in a shadow MAC."""
    if not is_shadow_mac(mac):
        raise ValueError(f"{mac} is not a shadow MAC")
    return (mac >> TREE_SHIFT) - 1


def shadow_mac_host(mac: MacAddress) -> int:
    """Destination host id encoded in any MAC (real or shadow)."""
    return mac & HOST_MASK


def mac_str(mac: MacAddress) -> str:
    """Human-readable rendering, e.g. ``t3:h00:00:05`` or ``h00:00:02``."""
    host = mac & HOST_MASK
    if is_shadow_mac(mac):
        return f"t{(mac >> TREE_SHIFT) - 1}:h{host:08x}"
    return f"h{host:08x}"
