"""End-to-end integration tests: the paper's headline behaviours at
reduced scale (kept fast enough for the unit-test suite)."""

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.collectors import Window
from repro.metrics.reordering import ReorderTracker
from repro.metrics.stats import jain_fairness
from repro.units import KB, msec, usec


def test_presto_tracks_optimal_on_two_paths():
    rates = {}
    for scheme in ("presto", "optimal"):
        tb = Testbed(TestbedConfig(scheme=scheme, n_spines=2, n_leaves=2,
                                   hosts_per_leaf=2, seed=1))
        apps = [tb.add_elephant(0, 2), tb.add_elephant(1, 3, start_ns=usec(100))]
        tb.run(msec(15))
        rates[scheme] = sum(a.delivered_bytes() for a in apps) * 8 / 15e-3 / 1e9
    assert rates["presto"] > 0.93 * rates["optimal"]


def test_presto_masks_reordering_end_to_end():
    tb = Testbed(TestbedConfig(scheme="presto", n_spines=4, n_leaves=2,
                               hosts_per_leaf=1, seed=2))
    tracker = ReorderTracker()
    tb.hosts[1].segment_tap = tracker.observe
    tb.add_elephant(0, 1)
    tb.run(msec(15))
    counts = tracker.out_of_order_counts()
    assert counts, "no flowcells observed"
    frac_zero = sum(1 for c in counts if c == 0) / len(counts)
    assert frac_zero > 0.99


def test_presto_spreads_flowcells_over_all_spines():
    tb = Testbed(TestbedConfig(scheme="presto", n_spines=4, n_leaves=2,
                               hosts_per_leaf=1, seed=3))
    tb.add_elephant(0, 1)
    tb.run(msec(10))
    # measure the data direction only (spine -> L2); the reverse ACK
    # stream pins one spine and would skew rx counts
    l2 = tb.topo.switches["L2"]
    down_bytes = [tb.topo.port_between(s, l2).tx_bytes for s in tb.topo.tiers[1]]
    assert min(down_bytes) > 0
    # round robin: spine loads within a few percent of each other
    assert max(down_bytes) < 1.1 * min(down_bytes)


def test_ecmp_flow_stays_on_one_spine():
    tb = Testbed(TestbedConfig(scheme="ecmp", n_spines=4, n_leaves=2,
                               hosts_per_leaf=1, seed=3))
    tb.add_elephant(0, 1)
    tb.run(msec(5))
    # only the hashed spine carries data toward the receiver's leaf
    l2 = tb.topo.switches["L2"]
    active = [
        s for s in tb.topo.tiers[1]
        if tb.topo.port_between(s, l2).tx_bytes > 100_000
    ]
    assert len(active) == 1


def test_presto_no_loss_on_symmetric_stride():
    tb = Testbed(TestbedConfig(scheme="presto", seed=4))
    from repro.workloads.synthetic import stride_pairs

    for src, dst in stride_pairs(16, 8):
        tb.add_elephant(src, dst, start_ns=tb.streams.stream("s").randrange(usec(300)))
    window = Window(tb)
    tb.run(msec(15))
    assert window.close().loss_rate() < 1e-3
    assert tb.plane.counters().dropped_pkts == 0


def test_failover_keeps_network_connected():
    cfg = TestbedConfig(scheme="presto", seed=5)
    tb = Testbed(cfg)
    tb.controller.enable_fast_failover(usec(100))
    link = next(l for l in tb.topo.links if l.name == "L1--S1")
    link.set_down()
    app = tb.add_elephant(0, 12)   # L1 -> L4 through the degraded fabric
    rev = tb.add_elephant(12, 0)   # and the blackhole-prone reverse
    tb.run(msec(30))
    assert app.delivered_bytes() > 1_000_000
    assert rev.delivered_bytes() > 1_000_000


def test_weighted_stage_rebalances():
    cfg = TestbedConfig(scheme="presto", seed=6)
    tb = Testbed(cfg)
    link = next(l for l in tb.topo.links if l.name == "L1--S1")
    link.set_down()
    tb.controller.push_all()
    apps = [tb.add_elephant(i, 12 + i, start_ns=i * usec(100)) for i in range(4)]
    tb.run(msec(25))
    rates = [a.delivered_bytes() * 8 / 25e-3 / 1e9 for a in apps]
    assert min(rates) > 2.0            # nobody starved
    assert jain_fairness(rates) > 0.9  # evenly spread over 3 trees
    # and tree 0 (via S1) is not used by L1 senders
    s1 = tb.topo.switches["S1"]
    l1_up = tb.topo.port_between(tb.topo.switches["L1"], s1)
    assert l1_up.tx_pkts == 0


def test_mice_tail_presto_beats_ecmp():
    tails = {}
    for scheme in ("presto", "ecmp"):
        tb = Testbed(TestbedConfig(scheme=scheme, seed=7))
        from repro.workloads.synthetic import stride_pairs

        rng = tb.streams.stream("starts")
        for src, dst in stride_pairs(16, 8):
            tb.add_elephant(src, dst, start_ns=rng.randrange(usec(300)))
        mice = [tb.add_mice(src, dst, size_bytes=50 * KB,
                            interval_ns=msec(3), start_ns=msec(5))
                for src, dst in stride_pairs(16, 8)[::4]]
        tb.run(msec(40))
        fcts = sorted(f for m in mice for f in m.fcts_ns)
        assert fcts, f"no mice completed under {scheme}"
        tails[scheme] = fcts[int(len(fcts) * 0.9):]
    # compare upper tails (p90+ mean)
    presto_tail = sum(tails["presto"]) / len(tails["presto"])
    ecmp_tail = sum(tails["ecmp"]) / len(tails["ecmp"])
    assert presto_tail < ecmp_tail


def test_perpacket_spraying_floods_receiver():
    """The paper's argument against per-packet schemes: once competing
    traffic skews the per-path queues, per-packet spraying reorders
    massively, official GRO floods TCP with small segments and
    throughput collapses.  (Perfectly symmetric load keeps RR spraying
    accidentally in-order — DRB's assumption — so the competitor here is
    pinned to one path to create the skew real fabrics have.)"""
    from repro.net.addresses import shadow_mac

    rates = {}
    for scheme in ("perpacket", "presto"):
        tb = Testbed(TestbedConfig(scheme=scheme, n_spines=2, n_leaves=2,
                                   hosts_per_leaf=2, seed=8))
        app = tb.add_elephant(0, 2)
        # competitor rides tree 0 only: path queues become unequal
        tb.hosts[1].lb.set_schedule(3, [shadow_mac(0, 3)])
        tb.add_elephant(1, 3, start_ns=usec(100))
        tb.run(msec(15))
        rates[scheme] = app.delivered_bytes() * 8 / 15e-3 / 1e9
    assert rates["perpacket"] < 0.85 * rates["presto"]
