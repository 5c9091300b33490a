"""Weighted max-min fair allocation by progressive filling.

The fluid engine's core primitive: given flows (each a set of directed
link resources, a weight and an optional demand cap) and per-link
capacities, raise every unfrozen flow's rate in lock-step — rate grows
as ``weight * t`` — until a link saturates or a flow meets its demand,
freeze the flows that caused it, and repeat.  The result is the
classic weighted max-min fair allocation (Bertsekas & Gallager §6.5),
which is what per-flow fair queueing plus TCP converges toward and
what flow-level simulators (RepFlow, psim) use in place of packet
queues.

:func:`fill` is the one filling loop.  It runs over records, not
dicts: a :class:`Leg` is a link resource (capacity, saturation slack,
the strands crossing it sorted by weight, their ascending weight sum)
and a :class:`Strand` a flow (its legs, weight, demand, rate).  The
fluid engine keeps one leg per port between reallocations, so a leg's
members are re-sorted and its weight sum retaken only when a strand
joined or left it; :func:`max_min_allocation` is the same loop behind
a list-of-triples interface, for tests and one-off solves.

The result is deterministic and — deliberately — exactly permutation
invariant: every sum over a set of flows is taken in ascending weight
order and everything else is a ``min`` or a set of frozen flows, so
reordering the input permutes the output rates without changing a
single bit.  The property tests in ``tests/test_fluid_allocator.py``
pin capacity respect, work conservation, bottleneck fairness and that
permutation invariance.

A round costs what is still unfrozen: live legs are compacted as their
strands freeze, demand scans visit demand-capped strands only, and the
unfrozen strands of one weight share one water level — bitwise each
one's rate, since all were raised by the same ``weight * dt`` sequence
from 0.0.  What the loop may *not* do is reassociate a single float
operation: FCTs are ``ceil(remaining / rate)`` nanoseconds, a last-bit
change in a rate moves committed digests, and
``tests/reference_allocator.py`` — the plain every-link-every-round
version — must agree bitwise.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Collection, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple)

#: relative slack under which a link counts as saturated (floats only)
_REL_EPS = 1e-12

Flow = Tuple[Sequence[Hashable], float, Optional[float]]

_by_weight = attrgetter("weight")


class Strand:
    """One flow of a fill: the legs it crosses (each once), a positive
    weight, an optional rate cap (``None`` = unbounded) and, after
    :func:`fill`, its rate."""

    __slots__ = ("legs", "weight", "demand", "rate", "live", "level")

    def __init__(self, weight: float = 0.0, demand: Optional[float] = None):
        self.legs: Sequence["Leg"] = ()
        self.weight = weight
        self.demand = demand
        self.rate = 0.0
        self.live = False      # unfrozen, during a fill
        self.level = None      # the fill's water level for `weight`


class Leg:
    """One link resource: its capacity and the strands crossing it.

    ``members`` is kept by whoever owns the leg (:meth:`join` /
    :meth:`leave`); :func:`fill` sorts it by weight and retakes
    ``wsum`` only when it changed.  ``rem``, ``cw`` and ``unfrozen``
    are the current fill's remaining capacity, unfrozen weight sum and
    unfrozen members."""

    __slots__ = ("name", "cap", "slack", "members", "wsum", "dirty",
                 "rem", "cw", "unfrozen")

    def __init__(self, name: Hashable, cap: float):
        self.name = name
        self.members: List[Strand] = []
        self.wsum = 0.0
        self.dirty = False
        self.set_capacity(cap)
        self.rem = 0.0
        self.cw = 0.0
        self.unfrozen: List[Strand] = self.members

    def set_capacity(self, cap: float) -> None:
        self.cap = cap
        self.slack = cap * _REL_EPS  # headroom under which it is saturated

    def join(self, strand: Strand) -> None:
        self.members.append(strand)
        self.dirty = True

    def leave(self, strand: Strand) -> None:
        self.members.remove(strand)
        self.dirty = True

    def _settle(self) -> None:
        """Sort members by weight and sum them in that order.  Addition
        is not associative in floats, so the ascending order is what
        keeps the allocation independent of the order strands joined."""
        members = self.members
        members.sort(key=_by_weight)
        total = 0.0
        for strand in members:
            total += strand.weight
        self.wsum = total
        self.dirty = False


class _Level:
    """The common rate of the unfrozen strands of one weight."""

    __slots__ = ("weight", "value", "count")

    def __init__(self, weight: float):
        self.weight = weight
        self.value = 0.0
        self.count = 0


def fill(legs: Iterable[Leg], strands: Collection[Strand]) -> None:
    """Set every strand's ``rate`` to its weighted max-min share.

    ``legs`` must include every leg a strand in ``strands`` crosses, and
    every member of those legs must be in ``strands``; legs without
    members are skipped.  A strand crossing no legs is limited only by
    its demand (``inf`` if it has none)."""
    levels: Dict[float, _Level] = {}
    capped: List[Strand] = []
    n_active = 0
    for strand in strands:
        strand.live = True
        level = levels.get(strand.weight)
        if level is None:
            levels[strand.weight] = level = _Level(strand.weight)
        level.count += 1
        strand.level = level
        if strand.demand is not None:
            capped.append(strand)
        n_active += 1
    live: List[Leg] = []
    for leg in legs:
        if leg.dirty:
            leg._settle()
        if leg.members:
            leg.rem = leg.cap
            leg.cw = leg.wsum
            leg.unfrozen = leg.members
            live.append(leg)
    rising = list(levels.values())

    while n_active:
        # Largest uniform time step `dt` such that raising every active
        # strand by weight*dt neither oversubscribes a leg nor
        # overshoots a demand.
        dt = None
        for leg in live:
            step = leg.rem / leg.cw
            if dt is None or step < dt:
                dt = step
        for strand in capped:
            step = (strand.demand - strand.level.value) / strand.weight
            if dt is None or step < dt:
                dt = step
        if dt is None:
            # Only unbounded strands crossing no legs remain: nothing
            # constrains them.  Freeze at infinity.
            for level in rising:
                level.value = float("inf")
            break

        if dt > 0.0:
            for level in rising:
                level.value += level.weight * dt
            saturated = []
            for leg in live:
                rem = leg.rem - leg.cw * dt
                leg.rem = rem
                if rem <= leg.slack:
                    saturated.append(leg)
        else:
            saturated = [leg for leg in live if leg.rem <= leg.slack]

        # Freeze: first strands that met their demand, then strands
        # crossing a saturated leg.  At least one strand freezes per
        # round (the minimizing constraint is met with equality), so the
        # loop terminates after at most n rounds.
        frozen: List[Strand] = []
        for strand in capped:
            demand = strand.demand
            if strand.level.value >= demand - abs(demand) * _REL_EPS:
                strand.rate = demand
                strand.live = False
                frozen.append(strand)
        for leg in saturated:
            for strand in leg.unfrozen:
                if strand.live:
                    strand.live = False
                    strand.rate = strand.level.value
                    frozen.append(strand)
        if not frozen:
            # Numerical corner: dt rounded to zero without meeting any
            # constraint exactly (e.g. a denormal demand gap whose step
            # underflows).  Freeze the tightest constraint outright —
            # a demand-capped strand whose gap underflowed (the earliest
            # in input order among equals), else the tightest leg (by
            # name among equals).
            demand_gap, gapped = None, None
            for strand in capped:
                gap = (strand.demand - strand.level.value) / strand.weight
                if demand_gap is None or gap < demand_gap:
                    demand_gap, gapped = gap, strand
            tightest = min(live, key=lambda leg: (leg.rem, repr(leg.name)),
                           default=None)
            if gapped is not None and (
                    tightest is None or demand_gap <= tightest.rem):
                gapped.rate = gapped.demand
                gapped.live = False
                frozen.append(gapped)
            elif tightest is not None:
                for strand in tightest.unfrozen:
                    strand.live = False
                    strand.rate = strand.level.value
                    frozen.append(strand)
            else:
                break

        n_active -= len(frozen)
        if not n_active:
            break
        stale = set()   # legs that lost a strand this round
        for strand in frozen:
            strand.level.count -= 1
            stale.update(strand.legs)
        for leg in stale:
            leg.unfrozen = members = [s for s in leg.unfrozen if s.live]
            total = 0.0
            for strand in members:
                total += strand.weight
            leg.cw = total
        live = [leg for leg in live if leg.unfrozen]
        rising = [level for level in rising if level.count]
        capped = [strand for strand in capped if strand.live]

    if n_active:  # stopped with strands unfrozen: they keep their level
        for strand in strands:
            if strand.live:
                strand.rate = strand.level.value


def max_min_allocation(
    flows: Sequence[Flow],
    capacity: Dict[Hashable, float],
) -> List[float]:
    """Weighted max-min rates for ``flows`` over ``capacity``.

    ``flows``
        sequence of ``(links, weight, demand)`` triples: the directed
        link resources the flow crosses (hashable ids, each a key of
        ``capacity``), a positive weight, and an optional rate cap
        (``None`` = unbounded demand).  A flow crossing no links is
        limited only by its demand.
    ``capacity``
        per-link capacity, in the same rate unit the result uses.

    Returns one rate per flow, aligned with the input order.
    """
    legs: Dict[Hashable, Leg] = {}
    strands: List[Strand] = []
    for i, (links, weight, demand) in enumerate(flows):
        if weight <= 0:
            raise ValueError(f"flow {i}: weight must be positive, got {weight}")
        if demand is not None and demand < 0:
            raise ValueError(f"flow {i}: demand must be >= 0, got {demand}")
        strand = Strand(float(weight),
                        None if demand is None else float(demand))
        crossed = []
        for link in links:
            leg = legs.get(link)
            if leg is None:
                if link not in capacity:
                    raise ValueError(f"flow {i}: unknown link {link!r}")
                legs[link] = leg = Leg(link, 0.0)
            elif leg.members[-1] is strand:
                continue  # a path may repeat a link: count it once
            leg.join(strand)
            crossed.append(leg)
        strand.legs = crossed
        strands.append(strand)
    for link, leg in legs.items():
        cap = float(capacity[link])
        if cap < 0:
            raise ValueError(f"link {link!r}: capacity must be >= 0, got {cap}")
        leg.set_capacity(cap)
    fill(legs.values(), strands)
    return [strand.rate for strand in strands]
