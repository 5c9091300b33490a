"""The allocator as it stood before reallocation became incremental,
kept verbatim: the arithmetic contract of
:func:`repro.fluid.allocator.max_min_allocation`.

Progressive filling is a sequence of float operations, and FCTs are
``ceil(remaining / rate)`` nanoseconds, so a last-bit change in a rate
moves the digests pinned in ``benchmarks/ledger/expected.json`` and the
flow goldens.  ``tests/test_fluid_allocator.py`` requires the
production function to return *bitwise* the rates this one does.  It is
a reference implementation, not a second path: nothing under ``src/``
imports it.
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

    link_flows: Dict[Hashable, List[int]] = {}
    demands: List[Optional[float]] = []
    weights: List[float] = []
    for i, (links, weight, demand) in enumerate(flows):
        if weight <= 0:
            raise ValueError(f"flow {i}: weight must be positive, got {weight}")
        if demand is not None and demand < 0:
            raise ValueError(f"flow {i}: demand must be >= 0, got {demand}")
        weights.append(float(weight))
        demands.append(None if demand is None else float(demand))
        for link in set(links):
            if link not in capacity:
                raise ValueError(f"flow {i}: unknown link {link!r}")
            link_flows.setdefault(link, []).append(i)

    remaining: Dict[Hashable, float] = {}
    for link in link_flows:
        cap = float(capacity[link])
        if cap < 0:
            raise ValueError(f"link {link!r}: capacity must be >= 0, got {cap}")
        remaining[link] = cap

    # Links iterated in a stable sorted order so every reduction below
    # is independent of dict insertion order (permutation invariance).
    ordered_links = sorted(link_flows, key=repr)

    active = [True] * n
    n_active = n
    while n_active:
        # Largest uniform time step `dt` such that raising every active
        # flow by weight*dt neither oversubscribes a link nor overshoots
        # a demand.  Weight sums are computed over *sorted* weight
        # values: addition is not associative in floats, and this keeps
        # the sum — hence the whole allocation — order independent.
        dt = None
        for link in ordered_links:
            wsum = _active_weight(link_flows[link], active, weights)
            if wsum <= 0.0:
                continue
            step = remaining[link] / wsum
            if dt is None or step < dt:
                dt = step
        for i in range(n):
            if not active[i] or demands[i] is None:
                continue
            step = (demands[i] - rates[i]) / weights[i]
            if dt is None or step < dt:
                dt = step
        if dt is None:
            # Only unbounded flows crossing no links remain: nothing
            # constrains them.  Freeze at infinity.
            for i in range(n):
                if active[i]:
                    rates[i] = float("inf")
                    active[i] = False
            break
        dt = max(dt, 0.0)

        if dt > 0.0:
            for i in range(n):
                if active[i]:
                    rates[i] += weights[i] * dt
            for link in ordered_links:
                wsum = _active_weight(link_flows[link], active, weights)
                if wsum > 0.0:
                    remaining[link] -= wsum * dt

        # Freeze: first flows that met their demand, then flows crossing
        # a saturated link.  At least one flow freezes per round (the
        # minimizing constraint is met with equality), so the loop
        # terminates after at most n rounds.
        froze = False
        for i in range(n):
            if (active[i] and demands[i] is not None
                    and rates[i] >= demands[i] - abs(demands[i]) * _REL_EPS):
                rates[i] = demands[i]
                active[i] = False
                froze = True
        for link in ordered_links:
            cap = float(capacity[link])
            if remaining[link] <= cap * _REL_EPS:
                remaining[link] = max(remaining[link], 0.0)
                for i in link_flows[link]:
                    if active[i]:
                        active[i] = False
                        froze = True
        if not froze:
            # Numerical corner: dt rounded to zero without meeting any
            # constraint exactly (e.g. a denormal demand gap whose step
            # underflows).  Freeze the tightest constraint outright —
            # a demand-capped flow whose gap underflowed, else the
            # tightest link.
            demand_gap, demand_idx = None, None
            for i in range(n):
                if not active[i] or demands[i] is None:
                    continue
                gap = (demands[i] - rates[i]) / weights[i]
                if demand_gap is None or gap < demand_gap:
                    demand_gap, demand_idx = gap, i
            tightest = min(
                (link for link in ordered_links
                 if _active_weight(link_flows[link], active, weights) > 0.0),
                key=lambda link: (remaining[link], repr(link)),
                default=None,
            )
            if demand_idx is not None and (
                    tightest is None or demand_gap <= remaining[tightest]):
                rates[demand_idx] = demands[demand_idx]
                active[demand_idx] = False
            elif tightest is not None:
                for i in link_flows[tightest]:
                    active[i] = False
            else:
                break
        n_active = sum(active)
    return rates


def _active_weight(indices: List[int], active: List[bool],
                   weights: List[float]) -> float:
    """Sum of active weights on a link, reduced in sorted value order so
    the float result does not depend on flow insertion order."""
    values = sorted(weights[i] for i in indices if active[i])
    total = 0.0
    for value in values:
        total += value
    return total
