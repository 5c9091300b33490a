"""Unit tests for the experiment harness (Testbed construction)."""

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.schemes import scheme_names
from repro.host.gro import OfficialGro, PrestoGro
from repro.lb.base import VSwitch
from repro.lb.ecmp import Ecmp
from repro.lb.flowlet import Flowlet
from repro.lb.perpacket import PerPacket
from repro.lb.presto_ecmp import PrestoEcmp
from repro.net.switch import HASH_FLOW, HASH_FLOWCELL
from repro.presto.flowcell import Presto
from repro.runner.cli import format_table
from repro.units import KB, msec, usec


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        Testbed(TestbedConfig(scheme="magic"))


def test_all_schemes_construct():
    for scheme in scheme_names():
        tb = Testbed(TestbedConfig(scheme=scheme, n_spines=2, n_leaves=2,
                                   hosts_per_leaf=1))
        assert len(tb.hosts) == 2


def test_scheme_lb_types():
    expected = {
        "presto": Presto,
        "presto_ecmp": PrestoEcmp,
        "ecmp": Ecmp,
        "mptcp": Ecmp,
        "flowlet100us": Flowlet,
        "flowlet500us": Flowlet,
        "perpacket": PerPacket,
    }
    for scheme, policy_type in expected.items():
        tb = Testbed(TestbedConfig(scheme=scheme, n_spines=2, n_leaves=2,
                                   hosts_per_leaf=1))
        assert type(tb.hosts[0].lb) is VSwitch  # one class, every scheme
        assert type(tb.hosts[0].lb.policy) is policy_type


def test_scheme_default_gro():
    presto = Testbed(TestbedConfig(scheme="presto", n_spines=2, n_leaves=2,
                                   hosts_per_leaf=1))
    assert isinstance(presto.hosts[0].gro, PrestoGro)
    ecmp = Testbed(TestbedConfig(scheme="ecmp", n_spines=2, n_leaves=2,
                                 hosts_per_leaf=1))
    assert isinstance(ecmp.hosts[0].gro, OfficialGro)


def test_gro_override():
    tb = Testbed(TestbedConfig(scheme="presto", gro_override="official",
                               n_spines=2, n_leaves=2, hosts_per_leaf=1))
    assert isinstance(tb.hosts[0].gro, OfficialGro)


def test_flowlet_gap_configured():
    tb100 = Testbed(TestbedConfig(scheme="flowlet100us", n_spines=2,
                                  n_leaves=2, hosts_per_leaf=1))
    tb500 = Testbed(TestbedConfig(scheme="flowlet500us", n_spines=2,
                                  n_leaves=2, hosts_per_leaf=1))
    assert tb100.hosts[0].lb.policy.gap_ns == usec(100)
    assert tb500.hosts[0].lb.policy.gap_ns == usec(500)


def test_optimal_is_single_switch():
    tb = Testbed(TestbedConfig(scheme="optimal"))
    assert len(tb.topo.switches) == 1
    assert len(tb.hosts) == 16


def test_presto_ecmp_underlay_hash_mode():
    tb = Testbed(TestbedConfig(scheme="presto_ecmp", n_spines=2, n_leaves=2,
                               hosts_per_leaf=1))
    assert tb.topo.tiers[0][0].ecmp_default.mode == HASH_FLOWCELL
    tb2 = Testbed(TestbedConfig(scheme="ecmp", n_spines=2, n_leaves=2,
                                hosts_per_leaf=1))
    assert tb2.topo.tiers[0][0].ecmp_default.mode == HASH_FLOW


def test_presto_schedules_pushed():
    tb = Testbed(TestbedConfig(scheme="presto", n_spines=4, n_leaves=2,
                               hosts_per_leaf=2))
    labels = tb.hosts[0].lb.labels_for(2)  # cross-leaf destination
    assert len(labels) == 4


def test_ablation_knobs_propagate():
    tb = Testbed(TestbedConfig(scheme="presto", flowcell_bytes=16 * KB,
                               presto_mode="random", gro_adaptive=False,
                               n_spines=2, n_leaves=2, hosts_per_leaf=1))
    assert tb.hosts[0].lb.policy.threshold == 16 * KB
    assert tb.hosts[0].lb.policy.mode == "random"
    assert tb.hosts[0].gro.adaptive is False


def test_experiment_tcp_rto_scaled():
    tb = Testbed(TestbedConfig(scheme="presto", n_spines=2, n_leaves=2,
                               hosts_per_leaf=1))
    assert tb.cfg.tcp.min_rto_ns == msec(20)


def test_format_table():
    text = format_table(["a", "bb"], [[1, 2], ["x", "yy"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "bb" in lines[0]
    assert set(lines[1]) <= {"-", "+"}


def test_reproducibility_same_seed_same_result():
    def run():
        tb = Testbed(TestbedConfig(scheme="presto", n_spines=2, n_leaves=2,
                                   hosts_per_leaf=2, seed=9))
        app = tb.add_elephant(0, 2)
        tb.run(msec(5))
        return app.delivered_bytes()

    assert run() == run()


def test_different_seed_different_hash_choices():
    def labels(seed):
        tb = Testbed(TestbedConfig(scheme="ecmp", seed=seed))
        app = tb.add_elephant(0, 8)
        tb.run(msec(1))
        seg_macs = set()
        sender = tb.hosts[0].senders[app.flow_id]
        return tb.hosts[0].lb.flow(app.flow_id).idx

    picks = {labels(s) for s in range(8)}
    assert len(picks) > 1


# --- config validation (the search can generate nonsense knobs) --------------


class TestConfigValidation:
    def test_flowcell_bytes_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="flowcell_bytes"):
                TestbedConfig(flowcell_bytes=bad)

    def test_gro_alpha_positive_and_finite(self):
        for bad in (0.0, -2.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="gro_alpha"):
                TestbedConfig(gro_alpha=bad)
        TestbedConfig(gro_alpha=2.0)  # the paper's own value passes

    def test_gro_ewma_gain_in_unit_interval(self):
        for bad in (0.0, -0.5, 1.0001, 2.0):
            with pytest.raises(ValueError, match="gro_ewma_gain"):
                TestbedConfig(gro_ewma_gain=bad)
        TestbedConfig(gro_ewma_gain=1.0)  # closed upper end
        TestbedConfig(gro_ewma_gain=0.125)

    def test_delays_must_be_nonnegative(self):
        for name in ("failover_latency_ns", "ctrl_detection_delay_ns",
                     "ctrl_reaction_delay_ns"):
            with pytest.raises(ValueError, match=name):
                TestbedConfig(**{name: -1})
            TestbedConfig(**{name: 0})

    def test_zoo_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="zoo_threshold_bytes"):
            TestbedConfig(zoo_threshold_bytes=0)
        TestbedConfig(zoo_threshold_bytes=100 * KB)

    def test_gro_ewma_gain_reaches_the_gro(self):
        tb = Testbed(TestbedConfig(scheme="presto", gro_ewma_gain=0.5))
        assert tb.hosts[0].gro.ewma_gain == 0.5

    def test_zoo_threshold_reaches_the_zoo_lbs(self):
        tb = Testbed(TestbedConfig(scheme="diffflow",
                                   zoo_threshold_bytes=200 * KB))
        assert tb.hosts[0].lb.policy.threshold == 200 * KB
        tb = Testbed(TestbedConfig(scheme="elephant_iso",
                                   zoo_threshold_bytes=512 * KB))
        assert tb.hosts[0].lb.policy.threshold == 512 * KB

    def test_validation_does_not_perturb_store_hashes(self):
        # the new tri-state knobs serialize as *omitted* when unset, so
        # every pre-existing store record keeps its content hash (the
        # canonical pin lives in test_fabrics.py; this guards the
        # serialized field set directly)
        from repro.runner.serialize import to_jsonable

        fields = to_jsonable(TestbedConfig())["fields"]
        assert "gro_ewma_gain" not in fields
        assert "zoo_threshold_bytes" not in fields
