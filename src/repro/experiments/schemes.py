"""Declarative scheme registry.

A *scheme* bundles everything the paper varies between compared
systems: how the edge picks paths (a factory of one
:class:`~repro.lb.base.Policy` per host from the config; the host's
:class:`~repro.lb.base.VSwitch` supplies everything else), which
receiver GRO runs, the transport (a row of :data:`TRANSPORTS`), whether
the topology is the "Optimal" single switch, and how leaf ECMP groups
hash.

Adding a scheme does not touch the harness::

    from repro.experiments.schemes import Scheme, register
    from repro.lb.flowlet import Flowlet

    register(Scheme(
        name="flowlet50us",
        description="flowlet switching, 50 us gap",
        policy=lambda cfg: Flowlet(gap_ns=usec(50)),
    ))

and it is immediately runnable everywhere (``Testbed``, the sweep
CLI's ``--schemes``, plotting scripts) because ``SCHEMES`` in
:mod:`repro.experiments.harness` is a live view of this registry.  A
new *decision* is a few lines over the flow's state record (contract:
:mod:`repro.lb.base`) that run unchanged at packet and flow fidelity.

Nor does adding a *transport*: it is one :data:`TRANSPORTS` row — a
function that opens one transfer on a testbed — and both
``add_elephant`` and every ``add_mice`` request go through it, at
packet and flow fidelity alike::

    from repro.experiments.schemes import TRANSPORTS
    from repro.host.app import RaceApp

    TRANSPORTS["race3"] = lambda tb, src, dst, size, start_ns, done: (
        RaceApp(tb, src, dst, size, start_ns, done, copies=3))
    register(Scheme(name="repflow3", transport="race3",
                    policy=lambda cfg: RepFlow()))
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.host.app import RaceApp
from repro.lb.base import Policy
from repro.lb.diffflow import DiffFlow
from repro.lb.ecmp import Ecmp
from repro.lb.elephant_iso import ElephantIso
from repro.lb.flowlet import Flowlet
from repro.lb.perpacket import PerPacket
from repro.lb.presto_ecmp import PrestoEcmp
from repro.lb.repflow import REPFLOW_MICE_BYTES, RepFlow
from repro.net.switch import HASH_FLOW, HASH_FLOWCELL
from repro.presto.flowcell import Presto
from repro.units import usec


@dataclass(frozen=True)
class Scheme:
    """One comparable system, declaratively."""

    name: str
    #: ``cfg -> Policy``, called once per host: what its vSwitch decides
    policy: Callable[..., Policy]
    description: str = ""
    #: receiver GRO this scheme runs by default: "official" | "presto"
    gro: str = "official"
    #: how transfers are opened: a :data:`TRANSPORTS` key
    transport: str = "tcp"
    #: "Optimal" runs on one non-blocking switch instead of the Clos
    single_switch: bool = False
    #: hash mode for leaf ECMP groups over the uplinks
    leaf_hash_mode: str = HASH_FLOW


# --- transports ----------------------------------------------------------------
# An open function is ``(tb, src, dst, size_bytes, start_ns, on_complete)
# -> Transfer``.  ``size_bytes=None`` is an unbounded stream;
# ``start_ns=None`` means "now, inside the caller's event" (a mice tick),
# which a transport may honour or treat as "at +0 through the heap".
# The data plane's ``tb.plane.open`` is the one primitive underneath.


def _open_tcp(tb, src, dst, size_bytes, start_ns, on_complete):
    return tb.plane.open(src, dst, size_bytes, start_ns, on_complete)


def _open_mptcp(tb, src, dst, size_bytes, start_ns, on_complete):
    return tb.plane.open(src, dst, size_bytes, start_ns, on_complete,
                         subflows=tb.cfg.mptcp_subflows)


def _open_repflow(tb, src, dst, size_bytes, start_ns, on_complete):
    """RepFlow races two copies of bounded mice only; elephants and
    unbounded streams stay single-path TCP."""
    if size_bytes is None or size_bytes > REPFLOW_MICE_BYTES:
        return _open_tcp(tb, src, dst, size_bytes, start_ns, on_complete)
    return RaceApp(tb, src, dst, size_bytes, start_ns, on_complete)


#: ``Scheme.transport`` -> open function; a new transport is one row
TRANSPORTS: Dict[str, Callable] = {
    "tcp": _open_tcp,
    "mptcp": _open_mptcp,
    "repflow": _open_repflow,
}

_REGISTRY: Dict[str, Scheme] = {}
#: scheme name -> the module whose import registered it, so a duplicate
#: registration error can name its rival (import-order debugging)
_REGISTERED_BY: Dict[str, str] = {}


def register(scheme: Scheme) -> Scheme:
    """Add ``scheme`` to the registry.  Name collisions are an error —
    re-registering would silently change what every experiment runs."""
    if scheme.name in _REGISTRY:
        raise ValueError(
            f"scheme {scheme.name!r} is already registered (by "
            f"{_REGISTERED_BY.get(scheme.name, '<unknown module>')}); "
            f"pick another name")
    if scheme.gro not in ("official", "presto"):
        raise ValueError(
            f"scheme {scheme.name!r}: gro must be 'official' or 'presto', "
            f"got {scheme.gro!r}")
    if scheme.transport not in TRANSPORTS:
        raise ValueError(
            f"scheme {scheme.name!r}: transport must be one of "
            f"{tuple(TRANSPORTS)}, got {scheme.transport!r}")
    _REGISTRY[scheme.name] = scheme
    caller = sys._getframe(1).f_globals.get("__name__", "<unknown module>")
    _REGISTERED_BY[scheme.name] = caller
    return scheme


def get_scheme(name: str) -> Scheme:
    scheme = _REGISTRY.get(name)
    if scheme is None:
        raise ValueError(
            f"unknown scheme {name!r}; pick from {scheme_names()} "
            f"(or register it via repro.experiments.schemes.register)")
    return scheme


def scheme_names() -> Tuple[str, ...]:
    """All registered scheme names, in registration order."""
    return tuple(_REGISTRY)


def is_registered(name: str) -> bool:
    return name in _REGISTRY


# --- the paper's eight comparable systems ------------------------------------
# Registration order is the canonical SCHEMES order experiments iterate
# in, so keep the original tuple's sequence.

register(Scheme(
    name="ecmp",
    description="per-flow ECMP hashing at the leaves (the baseline)",
    policy=lambda cfg: Ecmp(),
))

register(Scheme(
    name="presto",
    description="64 KB flowcells sprayed over shadow-MAC spanning trees",
    policy=lambda cfg: Presto(cfg.flowcell_bytes, cfg.presto_mode),
    gro="presto",
))

register(Scheme(
    name="mptcp",
    description="MPTCP with per-subflow ECMP paths (8 subflows)",
    policy=lambda cfg: Ecmp(),
    transport="mptcp",
))

register(Scheme(
    name="optimal",
    description="all hosts on one non-blocking switch (upper bound)",
    policy=lambda cfg: Policy(),
    single_switch=True,
))

register(Scheme(
    name="flowlet100us",
    description="flowlet switching with a 100 us idle gap",
    policy=lambda cfg: Flowlet(usec(100)),
))

register(Scheme(
    name="flowlet500us",
    description="flowlet switching with a 500 us idle gap",
    policy=lambda cfg: Flowlet(usec(500)),
))

register(Scheme(
    name="perpacket",
    description="per-packet random spraying (maximal reordering)",
    policy=lambda cfg: PerPacket(),
))

register(Scheme(
    name="presto_ecmp",
    description="Presto flowcells with per-hop (flow, cell) ECMP hashing",
    policy=lambda cfg: PrestoEcmp(cfg.flowcell_bytes),
    gro="presto",
    leaf_hash_mode=HASH_FLOWCELL,
))

# --- the scheme zoo: related-work competitors (see EXPERIMENTS.md
# "Tournament" for design summaries + citations) -------------------------------

register(Scheme(
    name="diffflow",
    description="DiffFlow: mice sprayed per-packet, elephants pinned "
                "via ECMP past a 100 KB cutoff",
    policy=lambda cfg: DiffFlow(cfg.zoo_threshold_bytes),
))

register(Scheme(
    name="repflow",
    description="RepFlow: mice duplicated onto a disjoint second tree, "
                "first finisher wins",
    policy=lambda cfg: RepFlow(),
    transport="repflow",
))

register(Scheme(
    name="elephant_iso",
    description="RDNA-style isolation: detected elephants moved to "
                "dedicated source-routed trees, mice share the rest",
    policy=lambda cfg: ElephantIso(cfg.zoo_threshold_bytes),
    gro="presto",
))
