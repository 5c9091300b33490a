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

The function is pure and deterministic, and — deliberately — exactly
permutation invariant: every sum over a set of flows is taken in
sorted order and everything else is a ``min`` or a set of frozen
flows, so reordering the input ``flows`` list permutes the output
rates without changing a single bit.  The property tests in
``tests/test_fluid_allocator.py`` pin capacity respect, work
conservation, bottleneck fairness and that permutation invariance.

The fluid engine calls it once per reallocation over every pipe in
the fabric, so a round costs what is still unfrozen (active flows and
the links they cross are compacted as flows freeze, demand scans
visit demand-capped flows only) plus the links that just lost a flow.
What it may *not* do is reassociate a single float operation: FCTs are
``ceil(remaining / rate)`` nanoseconds, a last-bit change in a rate
moves committed digests, and ``tests/reference_allocator.py`` — the
plain every-link-every-round version — must agree bitwise.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

#: relative slack under which a link counts as saturated (floats only)
_REL_EPS = 1e-12

Flow = Tuple[Sequence[Hashable], float, Optional[float]]


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
    n = len(flows)
    rates = [0.0] * n
    if n == 0:
        return rates

    #: link -> the still-unfrozen flows crossing it
    members: Dict[Hashable, List[int]] = {}
    demands: List[Optional[float]] = []
    weights: List[float] = []
    for i, (links, weight, demand) in enumerate(flows):
        if weight <= 0:
            raise ValueError(f"flow {i}: weight must be positive, got {weight}")
        if demand is not None and demand < 0:
            raise ValueError(f"flow {i}: demand must be >= 0, got {demand}")
        weights.append(float(weight))
        demands.append(None if demand is None else float(demand))
        for link in links:
            on_link = members.get(link)
            if on_link is None:
                if link not in capacity:
                    raise ValueError(f"flow {i}: unknown link {link!r}")
                members[link] = [i]
            elif on_link[-1] != i:  # a path may repeat a link: count it once
                on_link.append(i)

    remaining: Dict[Hashable, float] = {}
    #: headroom under which a link counts as saturated
    slack: Dict[Hashable, float] = {}
    #: sum of the unfrozen weights on a link.  Addition is not
    #: associative in floats, so the sum is always taken over the
    #: weights in ascending order — which is what keeps the whole
    #: allocation independent of the order of ``flows``.  Each member
    #: list is sorted by weight once; dropping frozen flows keeps it
    #: sorted, and a link's sum is retaken only when one of its flows
    #: froze.
    wsum: Dict[Hashable, float] = {}
    for link, on_link in members.items():
        cap = float(capacity[link])
        if cap < 0:
            raise ValueError(f"link {link!r}: capacity must be >= 0, got {cap}")
        remaining[link] = cap
        slack[link] = cap * _REL_EPS
        on_link.sort(key=weights.__getitem__)
        total = 0.0
        for i in on_link:
            total += weights[i]
        wsum[link] = total

    unfrozen = [True] * n
    active = list(range(n))       # unfrozen flows, ascending
    capped = [i for i in active if demands[i] is not None]
    live = list(members)          # links an unfrozen flow still crosses
    while active:
        # Largest uniform time step `dt` such that raising every active
        # flow by weight*dt neither oversubscribes a link nor overshoots
        # a demand.
        dt = None
        for link in live:
            step = remaining[link] / wsum[link]
            if dt is None or step < dt:
                dt = step
        for i in capped:
            step = (demands[i] - rates[i]) / weights[i]
            if dt is None or step < dt:
                dt = step
        if dt is None:
            # Only unbounded flows crossing no links remain: nothing
            # constrains them.  Freeze at infinity.
            for i in active:
                rates[i] = float("inf")
            break
        dt = max(dt, 0.0)

        if dt > 0.0:
            for i in active:
                rates[i] += weights[i] * dt
            for link in live:
                remaining[link] -= wsum[link] * dt

        # Freeze: first flows that met their demand, then flows crossing
        # a saturated link.  At least one flow freezes per round (the
        # minimizing constraint is met with equality), so the loop
        # terminates after at most n rounds.
        frozen: List[int] = []
        for i in capped:
            if rates[i] >= demands[i] - abs(demands[i]) * _REL_EPS:
                rates[i] = demands[i]
                unfrozen[i] = False
                frozen.append(i)
        for link in live:
            if remaining[link] <= slack[link]:
                for i in members[link]:
                    if unfrozen[i]:
                        unfrozen[i] = False
                        frozen.append(i)
        if not frozen:
            # Numerical corner: dt rounded to zero without meeting any
            # constraint exactly (e.g. a denormal demand gap whose step
            # underflows).  Freeze the tightest constraint outright —
            # a demand-capped flow whose gap underflowed (the earliest
            # in input order among equals), else the tightest link
            # (by name among equals).
            demand_gap, demand_idx = None, None
            for i in capped:
                gap = (demands[i] - rates[i]) / weights[i]
                if demand_gap is None or gap < demand_gap:
                    demand_gap, demand_idx = gap, i
            tightest = min(
                live, key=lambda link: (remaining[link], repr(link)),
                default=None)
            if demand_idx is not None and (
                    tightest is None or demand_gap <= remaining[tightest]):
                rates[demand_idx] = demands[demand_idx]
                frozen.append(demand_idx)
            elif tightest is not None:
                frozen.extend(members[tightest])
            else:
                break
            for i in frozen:
                unfrozen[i] = False

        if len(frozen) == len(active):
            break
        stale = set()   # links that lost a flow this round
        for i in frozen:
            stale.update(flows[i][0])
        for link in stale:
            members[link] = on_link = [i for i in members[link] if unfrozen[i]]
            total = 0.0
            for i in on_link:
                total += weights[i]
            wsum[link] = total
        live = [link for link in live if members[link]]
        active = [i for i in active if unfrozen[i]]
        capped = [i for i in capped if unfrozen[i]]
    return rates
