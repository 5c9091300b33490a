"""Conformance matrix for the traffic surface: fidelity x transport x
kind of traffic.

``add_elephant`` / ``add_mice`` / ``add_probe`` must hand back the same
*shape* whatever the data plane and transport underneath — measurement
code reads ``tb.apps`` without knowing either — and the wire flow ids a
call sequence allocates are a property of the scheme's transport, not
of the engine that carries them.
"""

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.host.transfer import Transfer
from repro.units import KB, msec, usec

FIDELITIES = ("packet", "flow")
#: one scheme per transport row: tcp, mptcp, repflow
SCHEMES = ("presto", "mptcp", "repflow")

#: kind -> (opener, wire flows it occupies per transport)
KINDS = {
    "elephant_unbounded": (
        lambda tb: tb.add_elephant(0, 2),
        {"presto": 1, "mptcp": 8, "repflow": 1}),
    "elephant_50KB": (
        lambda tb: tb.add_elephant(0, 2, size_bytes=50 * KB),
        {"presto": 1, "mptcp": 8, "repflow": 2}),
    "elephant_2MB": (
        lambda tb: tb.add_elephant(0, 2, size_bytes=2_000_000),
        {"presto": 1, "mptcp": 8, "repflow": 1}),
    "mice": (
        lambda tb: tb.add_mice(1, 3, size_bytes=50 * KB,
                               interval_ns=usec(500), stop_ns=msec(1)),
        # two requests by t = 1 ms
        {"presto": 2, "mptcp": 16, "repflow": 4}),
    "probe": (
        lambda tb: tb.add_probe(0, 3, interval_ns=usec(200)),
        {"presto": 2, "mptcp": 2, "repflow": 2}),
}


def _testbed(scheme, fidelity):
    return Testbed(TestbedConfig(
        scheme=scheme, n_spines=2, n_leaves=2, hosts_per_leaf=2, seed=1,
        fidelity=fidelity, validate=True))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_every_traffic_object_is_a_transfer(fidelity, scheme, kind):
    opener, n_flows = KINDS[kind]
    tb = _testbed(scheme, fidelity)
    app = opener(tb)
    assert isinstance(app, Transfer)
    assert tb.apps == [app]
    tb.run(msec(2))
    assert tb.last_invariant_report.ok
    # the Transfer protocol is live, not just present
    assert len(app.flow_ids()) == n_flows[scheme]
    assert set(app.delivered_by_flow()) == set(app.flow_ids())
    assert app.delivered_bytes() == sum(app.delivered_by_flow().values())
    assert all(isinstance(fct, int) for fct in app.fcts_ns)
    if kind == "mice":
        assert isinstance(app.dup_suppressed_bytes, int)
        assert (app.dup_suppressed_bytes > 0) == (scheme == "repflow")
        assert app.sent == 2 and len(app.fcts_ns) == 2
    if kind == "probe":
        assert app.fcts_ns == () and app.rtts_ns


@pytest.mark.parametrize("scheme", SCHEMES)
def test_flow_id_allocation_is_fidelity_independent(scheme):
    """The same call sequence allocates the same wire flow ids, per
    app, at both fidelities: ids come from the transport row and the
    one spawner, not from a per-engine copy of either."""
    allocated = {}
    for fidelity in FIDELITIES:
        tb = _testbed(scheme, fidelity)
        for opener, _ in KINDS.values():
            opener(tb)
        tb.run(msec(2))
        allocated[fidelity] = tuple(app.flow_ids() for app in tb.apps)
    assert allocated["packet"] == allocated["flow"]
    flat = [f for ids in allocated["flow"] for f in ids]
    assert sorted(flat) == list(range(1, len(flat) + 1))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_start_ns_is_a_delay_from_the_call(fidelity, scheme):
    """``start_ns`` counts from the moment of the call, whatever the
    clock reads then — on every transport and both data planes."""
    tb = _testbed(scheme, fidelity)
    opened = []
    tb.sim.schedule(msec(1), lambda: opened.append(tb.add_elephant(
        0, 2, size_bytes=10 * KB, start_ns=usec(300))))
    tb.run(msec(1) + usec(300))
    (app,) = opened
    assert app.delivered_bytes() == 0  # no byte before now + start_ns
    tb.run(msec(3))
    assert app.delivered_bytes() == 10 * KB
    assert 0 < app.fct_ns < msec(2) - usec(300)
