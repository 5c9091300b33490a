"""Property-based tests of the weighted max-min allocator (hypothesis).

The invariants the fluid engine's correctness rests on:

1. **Capacity** — no link ever carries more than its capacity.
2. **Work conservation** — a flow's rate can only be raised by
   violating a capacity or a demand cap: every flow is pinned against
   at least one saturated link, its demand, or is unbounded (inf).
3. **Bottleneck fairness** — equal-weight flows sharing one saturated
   link and nothing else get equal rates; weighted flows get rates
   proportional to their weights.
4. **Permutation invariance** — permuting the input flow list permutes
   the output rates *bit-for-bit* (every float reduction inside runs
   in sorted order), which is what makes serial and parallel sweeps
   byte-identical.
5. **Arithmetic contract** — the rates are *bitwise* those of
   ``tests/reference_allocator.py`` (the allocator as it stood before
   it was made incremental): FCTs are ``ceil(remaining / rate)`` ns, so
   a last-bit change moves every pinned digest.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fluid.allocator import max_min_allocation
from tests.reference_allocator import (
    max_min_allocation as reference_allocation,
)

LINKS = [f"L{i}" for i in range(12)]

#: float slack for capacity / conservation checks (the allocator works
#: in absolute rates around ~1e0-1e2 here)
EPS = 1e-9


@st.composite
def allocation_case(draw, max_links=6, max_flows=8, hostile=False):
    """(flows, capacity): up to 8 flows over up to 6 links, some flows
    demand-capped, weights in [0.1, 8].  ``hostile`` adds what the
    fluid engine never sends but the function accepts: zero-capacity
    links, a link repeated inside one path, zero and denormal demands."""
    n_links = draw(st.integers(1, max_links))
    links = LINKS[:n_links]
    rate = st.floats(0.125, 100.0, allow_nan=False)
    demand = st.floats(0.0, 50.0, allow_nan=False)
    if hostile:
        rate = st.one_of(rate, st.just(0.0))
        demand = st.one_of(demand, st.sampled_from([0.0, 5e-324]))
    capacity = {link: draw(rate) for link in links}
    n_flows = draw(st.integers(1, max_flows))
    flows = []
    for _ in range(n_flows):
        path = draw(st.lists(st.sampled_from(links), min_size=1,
                             max_size=n_links, unique=not hostile))
        weight = draw(st.floats(0.1, 8.0, allow_nan=False))
        flows.append((tuple(path), weight,
                      draw(st.one_of(st.none(), demand))))
    return flows, capacity


def link_loads(flows, rates):
    loads = {}
    for (links, _, _), rate in zip(flows, rates):
        for link in set(links):
            loads[link] = loads.get(link, 0.0) + rate
    return loads


@settings(max_examples=200, deadline=None)
@given(allocation_case())
def test_capacity_respected(case):
    flows, capacity = case
    rates = max_min_allocation(flows, capacity)
    assert all(r >= 0.0 for r in rates)
    for link, load in link_loads(flows, rates).items():
        assert load <= capacity[link] * (1 + 1e-9) + EPS


@settings(max_examples=200, deadline=None)
@given(allocation_case())
def test_work_conserving(case):
    """Every finite-rate flow is pinned: against its demand cap or
    against a link with (numerically) zero headroom."""
    flows, capacity = case
    rates = max_min_allocation(flows, capacity)
    loads = link_loads(flows, rates)
    for (links, _, demand), rate in zip(flows, rates):
        if math.isinf(rate):
            assert demand is None and not links
            continue
        at_demand = demand is not None and rate >= demand - EPS
        at_link = any(
            loads[link] >= capacity[link] * (1 - 1e-6) - EPS
            for link in set(links)
        )
        assert at_demand or at_link, (
            f"flow rate {rate} not pinned by demand {demand} "
            f"or any of {sorted(set(links))}")


@settings(max_examples=200, deadline=None)
@given(allocation_case())
def test_permutation_invariance_exact(case):
    """Shuffling the flow list permutes the rates without changing a
    single bit — the property serial/parallel determinism rides on."""
    flows, capacity = case
    base = max_min_allocation(flows, capacity)
    order = list(range(len(flows)))
    rng = random.Random(0xF1D0)
    for _ in range(3):
        rng.shuffle(order)
        shuffled = max_min_allocation([flows[i] for i in order], capacity)
        for pos, i in enumerate(order):
            assert shuffled[pos] == base[i]  # bitwise, not approx


@settings(max_examples=300, deadline=None)
@given(allocation_case(max_links=12, max_flows=30, hostile=True))
def test_bitwise_equal_to_reference_allocator(case):
    """Same floats, operation for operation: ``==`` on every rate, and
    the sign of a zero too."""
    flows, capacity = case
    rates = max_min_allocation(flows, capacity)
    expected = reference_allocation(flows, capacity)
    assert rates == expected
    assert ([math.copysign(1.0, r) for r in rates]
            == [math.copysign(1.0, r) for r in expected])


def test_bottleneck_fairness_equal_weights():
    flows = [(("A",), 1.0, None) for _ in range(4)]
    rates = max_min_allocation(flows, {"A": 10.0})
    assert rates == [2.5, 2.5, 2.5, 2.5]


def test_bottleneck_fairness_weighted():
    flows = [(("A",), 1.0, None), (("A",), 3.0, None)]
    rates = max_min_allocation(flows, {"A": 8.0})
    assert rates == pytest.approx([2.0, 6.0])


def test_classic_two_bottleneck_example():
    """Bertsekas & Gallager's shape: a long flow crossing both links
    shares the tighter one; short flows soak up the leftovers."""
    flows = [
        (("A", "B"), 1.0, None),  # long flow
        (("A",), 1.0, None),
        (("B",), 1.0, None),
    ]
    rates = max_min_allocation(flows, {"A": 10.0, "B": 4.0})
    assert rates[0] == pytest.approx(2.0)   # bottlenecked on B
    assert rates[2] == pytest.approx(2.0)
    assert rates[1] == pytest.approx(8.0)   # A's leftover
    assert rates[0] + rates[1] == pytest.approx(10.0)
    assert rates[0] + rates[2] == pytest.approx(4.0)


def test_demand_caps_free_capacity_for_others():
    flows = [(("A",), 1.0, 1.0), (("A",), 1.0, None)]
    rates = max_min_allocation(flows, {"A": 10.0})
    assert rates == pytest.approx([1.0, 9.0])


def test_linkless_flows():
    """No links: bounded flows sit at their demand, unbounded at inf."""
    rates = max_min_allocation([((), 1.0, 7.0), ((), 1.0, None)], {})
    assert rates[0] == 7.0
    assert math.isinf(rates[1])


def test_zero_capacity_blackhole():
    rates = max_min_allocation(
        [(("A",), 1.0, None), (("B",), 1.0, None)],
        {"A": 0.0, "B": 5.0},
    )
    assert rates == pytest.approx([0.0, 5.0])


def test_input_validation():
    """Bad input is refused, in the reference allocator's words."""
    for flows, capacity in [
        ([(("A",), 0.0, None)], {"A": 1.0}),
        ([(("A",), 1.0, -1.0)], {"A": 1.0}),
        ([(("A",), 1.0, None), (("A", "missing"), 1.0, None)], {"A": 1.0}),
        ([(("A",), 1.0, None)], {"A": -1.0}),
    ]:
        with pytest.raises(ValueError) as expected:
            reference_allocation(flows, capacity)
        with pytest.raises(ValueError) as raised:
            max_min_allocation(flows, capacity)
        assert str(raised.value) == str(expected.value)
    assert max_min_allocation([], {"A": 1.0}) == []
