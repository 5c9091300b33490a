"""Fabric shapes as data: the serializable :class:`TopologySpec`, the
:class:`Wiring` plan it expands to, and the one builder.

:class:`TopologySpec` is the single serializable, hashable description
of an experiment's fabric shape.  ``TestbedConfig`` carries one (the
legacy ``n_spines/n_leaves/hosts_per_leaf`` trio is a deprecated alias
that normalizes onto it) and the CLIs parse one from strings like
``fat-tree:k=8``.  :func:`wiring` expands a spec into a :class:`Wiring`
— tiers of switch names plus the ordered links between them — and
:func:`build_fabric` loops over that plan (or one written by hand) to
produce a wired :class:`~repro.net.topology.Topology`.  Two kinds:

* ``clos`` — the paper's 2-tier Clos testbed (Fig 3): every leaf links
  to every spine.  What a ``leaf-spine`` spec canonicalizes to, so
  equivalent shapes hash (and hit the result store) identically;
* ``fat-tree`` — the k-ary 3-tier fat tree the shadow-MAC spanning
  trees must generalize to (paper S3.1): k pods of k/2 edge + k/2 agg
  switches, (k/2)^2 cores, k^3/4 hosts.

Fat-tree wiring, k=4 (C = core, A = agg, E = edge)::

    class j=1: C1.1 C1.2        class j=2: C2.1 C2.2
                 \\   \\______________________/   /
                  \\______________________      /
      pod 1        |        |     pod 4  \\    |
               A1.1      A1.2         A4.1    A4.2
                 |   ><   |             |  ><  |
               E1.1      E1.2         E4.1    E4.2
               /  \\      /  \\         /  \\    /  \\
              h0  h1    h2  h3      h12 h13  h14 h15

Agg ``Ap.j`` (uplink class ``j``) connects to cores ``Cj.1 .. Cj.{k/2}``;
every edge connects to every agg in its own pod; hosts attach k/2 per
edge in pod-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.units import gbps, usec

#: spec kinds after canonicalization (leaf-spine parses into "clos")
KINDS = ("clos", "fat-tree")

#: k^3/4 hosts at k=64 is 65536 — far past anything the simulator can
#: usefully run; treat bigger k as a typo rather than an aspiration.
MAX_FAT_TREE_K = 64


@dataclass(frozen=True)
class TopologySpec:
    """Shape of an experiment fabric — hashable, store-serializable.

    Exactly one family of fields is set, by kind:

    * ``clos``: ``n_spines``, ``n_leaves``, ``hosts_per_leaf``
    * ``fat-tree``: ``k`` (even; k pods, k^3/4 hosts)

    Unused fields stay ``None`` and are omitted from serialization
    (``omit_if_none``), so adding a kind never perturbs existing
    hashes.  Construct via :meth:`clos`, :meth:`fat_tree`,
    :meth:`leaf_spine` or :meth:`parse`.
    """

    kind: str = "clos"
    n_spines: Optional[int] = field(
        default=None, metadata={"omit_if_none": True})
    n_leaves: Optional[int] = field(
        default=None, metadata={"omit_if_none": True})
    hosts_per_leaf: Optional[int] = field(
        default=None, metadata={"omit_if_none": True})
    k: Optional[int] = field(default=None, metadata={"omit_if_none": True})

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind == "clos":
            if self.k is not None:
                raise ValueError("clos spec does not take k")
            for name in ("n_spines", "n_leaves", "hosts_per_leaf"):
                value = getattr(self, name)
                if value is None or value < 1:
                    raise ValueError(
                        f"clos spec needs {name} >= 1, got {value}")
        elif self.kind == "fat-tree":
            if (self.n_spines, self.n_leaves, self.hosts_per_leaf) \
                    != (None, None, None):
                raise ValueError(
                    "fat-tree is fully defined by k; do not set the "
                    "clos fields")
            if self.k is None or self.k < 2 or self.k % 2:
                raise ValueError(
                    f"fat-tree k must be an even integer >= 2, got {self.k}")
            if self.k > MAX_FAT_TREE_K:
                raise ValueError(
                    f"fat-tree k capped at {MAX_FAT_TREE_K} "
                    f"(k={self.k} would be {self.k ** 3 // 4} hosts)")
        else:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; pick from {KINDS}")

    # --- constructors -----------------------------------------------------

    @classmethod
    def clos(cls, n_spines: int = 4, n_leaves: int = 4,
             hosts_per_leaf: int = 4) -> "TopologySpec":
        """The paper's 2-tier Clos (Fig 3 defaults: 4x4x4 = 16 hosts)."""
        return cls("clos", n_spines, n_leaves, hosts_per_leaf)

    @classmethod
    def fat_tree(cls, k: int) -> "TopologySpec":
        """k-ary 3-tier fat tree: k=4 -> 16 hosts, k=8 -> 128 hosts."""
        return cls("fat-tree", k=k)

    @classmethod
    def leaf_spine(cls, *, pods: int = 4, radix: Optional[int] = None,
                   oversub: float = 1.0, n_spines: Optional[int] = None,
                   hosts_per_leaf: Optional[int] = None) -> "TopologySpec":
        """Leaf-spine == 2-tier Clos, parameterized the way operators
        speak: ``radix`` ToR ports split between host ports and uplinks
        by the ``oversub`` ratio (host ports : uplinks), ``pods`` racks.
        Canonicalizes to a ``clos`` spec so equivalent shapes hash
        identically."""
        if radix is not None:
            if n_spines is not None or hosts_per_leaf is not None:
                raise ValueError(
                    "give radix (+oversub) or explicit spines/hosts, "
                    "not both")
            if oversub <= 0:
                raise ValueError(f"oversub must be positive, got {oversub}")
            spines = radix / (1.0 + oversub)
            hosts = radix - spines
            if (spines != int(spines) or hosts != int(hosts)
                    or int(spines) < 1 or int(hosts) < 1):
                raise ValueError(
                    f"radix={radix} does not split into whole uplink/host "
                    f"port counts at oversub={oversub}")
            n_spines, hosts_per_leaf = int(spines), int(hosts)
        if n_spines is None or hosts_per_leaf is None:
            raise ValueError(
                "leaf-spine needs radix (+oversub) or n_spines + "
                "hosts_per_leaf")
        return cls.clos(n_spines, pods, hosts_per_leaf)

    @classmethod
    def parse(cls, text: str) -> "TopologySpec":
        """Parse the CLI grammar ``kind[:key=value,...]``:

        * ``clos[:spines=4,leaves=4,hosts=4]``
        * ``fat-tree:k=8``
        * ``leaf-spine:radix=8,oversub=1,pods=4`` (or explicit
          ``spines=``/``hosts=`` instead of ``radix=``)
        """
        head, _, tail = text.strip().partition(":")
        kind = head.strip().lower().replace("_", "-")
        kind = {"fattree": "fat-tree", "leafspine": "leaf-spine"}.get(
            kind, kind)
        params: Dict[str, float] = {}
        if tail:
            for item in tail.split(","):
                key, sep, value = item.partition("=")
                key = key.strip().lower()
                if not sep or not key or not value.strip():
                    raise ValueError(
                        f"bad topology parameter {item!r} in {text!r} "
                        f"(want key=value)")
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"non-numeric topology parameter {item!r} in "
                        f"{text!r}") from None
                if not math.isfinite(params[key]):
                    # int(inf) / int(nan) would otherwise blow up below
                    raise ValueError(f"{key} must be finite in {text!r}")

        def pop_int(key: str, default: Optional[int] = None) -> Optional[int]:
            value = params.pop(key, None)
            if value is None:
                return default
            if value != int(value):
                raise ValueError(f"{key} must be an integer in {text!r}")
            return int(value)

        if kind == "fat-tree":
            k = pop_int("k")
            if k is None:
                raise ValueError(
                    f"fat-tree needs k (e.g. fat-tree:k=8), got {text!r}")
            spec = cls.fat_tree(k)
        elif kind == "clos":
            spec = cls.clos(pop_int("spines", 4), pop_int("leaves", 4),
                            pop_int("hosts", 4))
        elif kind == "leaf-spine":
            spec = cls.leaf_spine(
                pods=pop_int("pods", 4), radix=pop_int("radix"),
                oversub=params.pop("oversub", 1.0),
                n_spines=pop_int("spines"),
                hosts_per_leaf=pop_int("hosts"))
        else:
            raise ValueError(
                f"unknown topology kind {kind!r} in {text!r} "
                f"(want clos | fat-tree | leaf-spine)")
        if params:
            raise ValueError(
                f"unknown topology parameter(s) {sorted(params)} in {text!r}")
        return spec

    # --- shape queries ----------------------------------------------------

    @property
    def n_tiers(self) -> int:
        return 3 if self.kind == "fat-tree" else 2

    def n_hosts(self) -> int:
        if self.kind == "fat-tree":
            return self.k ** 3 // 4
        return self.n_leaves * self.hosts_per_leaf

    def n_edges(self) -> int:
        """Host-facing (edge/ToR) switch count."""
        if self.kind == "fat-tree":
            return self.k * self.k // 2
        return self.n_leaves

    def hosts_per_edge(self) -> int:
        if self.kind == "fat-tree":
            return self.k // 2
        return self.hosts_per_leaf

    def edge_of(self, host_id: int) -> int:
        """Rack (edge switch) index of a host; hosts attach pod-major."""
        if not 0 <= host_id < self.n_hosts():
            raise ValueError(
                f"host {host_id} outside fabric ({self.n_hosts()} hosts)")
        return host_id // self.hosts_per_edge()

    def legacy_fields(self) -> Tuple[int, int, int]:
        """``(n_spines, n_leaves, hosts_per_leaf)`` mirror kept in sync
        on ``TestbedConfig`` for legacy readers: uplinks per edge, edge
        count, hosts per edge."""
        if self.kind == "fat-tree":
            return self.k // 2, self.n_edges(), self.k // 2
        return self.n_spines, self.n_leaves, self.hosts_per_leaf

    def cli(self) -> str:
        """The :meth:`parse` round-trip string."""
        if self.kind == "fat-tree":
            return f"fat-tree:k={self.k}"
        return (f"clos:spines={self.n_spines},leaves={self.n_leaves},"
                f"hosts={self.hosts_per_leaf}")

    def slug(self) -> str:
        """Label/filename-safe name (used in sweep job labels)."""
        if self.kind == "fat-tree":
            return f"fat-tree-k{self.k}"
        return f"clos-{self.n_spines}x{self.n_leaves}x{self.hosts_per_leaf}"


SpecLike = Union[TopologySpec, str]


def as_spec(spec: SpecLike) -> TopologySpec:
    """Accept a :class:`TopologySpec` or its CLI string form."""
    if isinstance(spec, str):
        return TopologySpec.parse(spec)
    spec.validate()
    return spec


@dataclass(frozen=True)
class Wiring:
    """A fabric as data: what to build, in the order to build it."""

    #: switch names by tier: ``tiers[0]`` the edge switches hosts attach
    #: to ... ``tiers[-1]`` the spanning-tree roots
    tiers: Tuple[Tuple[str, ...], ...]
    #: ``(lower, upper)`` switch pairs, each climbing one tier, in
    #: wiring order (it fixes every switch's port order)
    links: Tuple[Tuple[str, str], ...] = ()
    #: switch creation order (it fixes the ECMP hash salts), each tier's
    #: switches in tier order; None = top tier first, the way the 2-tier
    #: testbed was always built
    creation: Optional[Tuple[str, ...]] = None


#: the paper's "Optimal" baseline: every host on one non-blocking switch
SINGLE_SWITCH = Wiring(tiers=(("SW",),))


def wiring(spec: SpecLike) -> Wiring:
    """The wiring plan of a spec — the only place a kind becomes a shape."""
    spec = as_spec(spec)
    if spec.kind == "fat-tree":
        idx = range(1, spec.k // 2 + 1)
        pods = range(1, spec.k + 1)
        cores = [f"C{j}.{m}" for j in idx for m in idx]
        aggs = [[f"A{p}.{j}" for j in idx] for p in pods]
        edges = [[f"E{p}.{i}" for i in idx] for p in pods]
        links, creation = [], list(cores)
        for p_aggs, p_edges in zip(aggs, edges):  # pod by pod
            creation += p_aggs + p_edges
            links += [(edge, agg) for edge in p_edges for agg in p_aggs]
            # agg j of every pod joins the cores of uplink class j
            links += [(agg, f"C{j}.{m}")
                      for j, agg in zip(idx, p_aggs) for m in idx]
        return Wiring((tuple(sum(edges, [])), tuple(sum(aggs, [])),
                       tuple(cores)), tuple(links), tuple(creation))
    spines = tuple(f"S{i + 1}" for i in range(spec.n_spines))
    leaves = tuple(f"L{i + 1}" for i in range(spec.n_leaves))
    return Wiring((leaves, spines),
                  tuple((leaf, spine) for leaf in leaves for spine in spines))


def build_fabric(
    sim: Simulator,
    spec: Union[SpecLike, Wiring],
    *,
    rate_bps: float = gbps(10),
    prop_delay_ns: int = usec(1),
    buffer_bytes: Optional[int] = None,
    pool_bytes: int = Topology.DEFAULT_POOL_BYTES,
    pool_alpha: float = Topology.DEFAULT_POOL_ALPHA,
) -> Topology:
    """The one topology builder: a spec (or a hand-written
    :class:`Wiring`) -> wired fabric.  Hosts are attached afterwards
    (``spec.hosts_per_edge()`` per ``topo.tiers[0]`` switch, in order)."""
    plan = spec if isinstance(spec, Wiring) else wiring(spec)
    tier_of = {name: t for t, tier in enumerate(plan.tiers) for name in tier}
    topo = Topology(sim, pool_bytes, pool_alpha)
    for name in plan.creation or [
            name for tier in reversed(plan.tiers) for name in tier]:
        topo.add_switch(name, tier_of[name])
    for a, b in plan.links:
        topo.connect(topo.switches[a], topo.switches[b],
                     rate_bps, prop_delay_ns, buffer_bytes)
    return topo


def fabric_link_names(
    spec: SpecLike,
) -> Tuple[List[str], Dict[str, List[str]]]:
    """``(fabric link names, switch name -> its fabric link names)``
    read off the wiring plan *without* building a topology — the faults
    subsystem draws fault targets from these before any testbed exists.
    Host access links are excluded (killing one isolates a host rather
    than exercising rerouting)."""
    links: List[str] = []
    by_switch: Dict[str, List[str]] = {}
    for a, b in wiring(spec).links:
        links.append(f"{a}--{b}")
        by_switch.setdefault(a, []).append(links[-1])
        by_switch.setdefault(b, []).append(links[-1])
    return links, by_switch
