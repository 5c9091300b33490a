"""Tests for the TopologySpec API, datacenter fabric builders, the
multi-tier spanning-tree allocator and the fabric sweep.

Covers the PR's acceptance surface:

* TopologySpec parse/validate/normalize round trips, including the
  leaf-spine oversubscription math;
* hash stability — legacy trio configs and their TopologySpec
  equivalents hash bit-identically, so no cached result invalidates;
* hypothesis properties over fat-tree/leaf-spine shapes: full
  host-to-host reachability, one tree per core, pairwise trunk
  disjointness, and every (tree, host) shadow-MAC label resolving to
  the destination's access port;
* wiring that is not a stack of tiers rejected at construction instead
  of producing wrong trees;
* the programmed state of six fabrics against the parent-generated
  ``tests/golden/fabric_tables.json``;
* a fabric no builder knows (a wiring literal) carrying Presto traffic
  over every tree, before and after a link failure;
* the bounded-memory streaming collectors behind the fabric sweep;
* an end-to-end 128-host fat-tree sweep through the runner (tier 2).
"""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.fabric_sweep import (
    FabricCellResult,
    fabric_config,
    fabric_specs,
    run_fabric_cell,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.stats import percentile
from repro.metrics.streaming import P2Quantile, StreamingQuantiles, TopK
from repro.net.addresses import shadow_mac
from repro.net.fabrics import (
    TopologySpec,
    Wiring,
    build_fabric,
    fabric_link_names,
    wiring,
)
from repro.net.routing import (
    TreeValidationError,
    allocate_spanning_trees,
    install_tree_routes,
    tree_legs,
    tree_root,
    validate_trees,
)
from repro.runner.serialize import content_hash, from_jsonable, to_jsonable
from repro.sim.engine import Simulator
from repro.units import msec

SEED_DEFAULT_CONFIG_HASH = "bc4b591b401b0e68"

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "gen_golden", ROOT / "tools" / "gen_golden.py")
gen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_golden)
FABRIC_TABLES = json.loads(
    (ROOT / "tests" / "golden" / "fabric_tables.json").read_text())


# --- TopologySpec API --------------------------------------------------------


def test_spec_parse_round_trips():
    for text, expect in [
        ("fat-tree:k=8", TopologySpec.fat_tree(8)),
        ("fattree:k=4", TopologySpec.fat_tree(4)),
        ("clos:spines=2,leaves=3,hosts=4", TopologySpec.clos(2, 3, 4)),
        ("clos", TopologySpec.clos()),
        ("leaf-spine:pods=8,radix=12,oversub=3", TopologySpec.leaf_spine(
            pods=8, radix=12, oversub=3)),
    ]:
        spec = TopologySpec.parse(text)
        assert spec == expect
        # cli() rendering re-parses to the same spec
        assert TopologySpec.parse(spec.cli()) == spec


def test_spec_parse_rejects_garbage():
    for bad in ("fat-tree", "fat-tree:k=3", "fat-tree:k=banana",
                "clos:spines=0", "hypercube:d=4", "fat-tree:q=8",
                "clos:spines=2,leaves=2,hosts=2,extra=1"):
        with pytest.raises(ValueError):
            TopologySpec.parse(bad)
    # non-finite numbers name the key instead of overflowing in int()
    for bad, key in (("fat-tree:k=inf", "k"), ("fat-tree:k=nan", "k"),
                     ("leaf-spine:radix=8,oversub=nan", "oversub")):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            TopologySpec.parse(bad)


def test_fat_tree_arithmetic():
    spec = TopologySpec.fat_tree(4)
    assert spec.n_hosts() == 16
    assert spec.n_edges() == 8
    assert spec.hosts_per_edge() == 2
    assert spec.n_tiers == 3
    assert TopologySpec.fat_tree(8).n_hosts() == 128
    assert spec.edge_of(0) == 0 and spec.edge_of(15) == 7
    with pytest.raises(ValueError):
        spec.edge_of(16)


def test_leaf_spine_oversubscription_math():
    # radix 48 at 2:1 oversub: 16 spines, 32 hosts per leaf
    spec = TopologySpec.leaf_spine(pods=4, radix=48, oversub=2.0)
    assert spec.kind == "clos"
    assert spec.n_spines == 16
    assert spec.n_leaves == 4
    assert spec.hosts_per_leaf == 32
    with pytest.raises(ValueError):
        TopologySpec.leaf_spine(pods=4, radix=47, oversub=2.0)


def test_spec_serializes_and_hashes():
    spec = TopologySpec.fat_tree(8)
    assert from_jsonable(to_jsonable(spec)) == spec
    assert content_hash(spec) == content_hash(TopologySpec.fat_tree(8))
    assert content_hash(spec) != content_hash(TopologySpec.fat_tree(4))
    assert hash(spec) == hash(TopologySpec.fat_tree(8))


# --- hash stability (acceptance criterion) -----------------------------------


def test_legacy_trio_and_spec_hash_identically():
    """A 2-tier spec normalizes into the legacy trio, so configs built
    either way hash bit-identically — no cached store entry, golden
    fixture or sweep cache key moves."""
    assert content_hash(TestbedConfig()) == SEED_DEFAULT_CONFIG_HASH
    via_spec = TestbedConfig(topology=TopologySpec.clos(4, 4, 4))
    assert content_hash(via_spec) == SEED_DEFAULT_CONFIG_HASH
    assert via_spec.topology is None  # normalized away
    via_str = TestbedConfig(topology="clos:spines=4,leaves=4,hosts=4")
    assert content_hash(via_str) == SEED_DEFAULT_CONFIG_HASH
    via_ls = TestbedConfig(
        topology=TopologySpec.leaf_spine(pods=4, n_spines=4,
                                         hosts_per_leaf=4))
    assert content_hash(via_ls) == SEED_DEFAULT_CONFIG_HASH
    assert "topology" not in to_jsonable(TestbedConfig())["fields"]


def test_fat_tree_config_hash_differs_and_round_trips():
    cfg = TestbedConfig(topology="fat-tree:k=4")
    assert content_hash(cfg) != SEED_DEFAULT_CONFIG_HASH
    again = from_jsonable(to_jsonable(cfg))
    assert content_hash(again) == content_hash(cfg)
    assert again.topology_spec() == TopologySpec.fat_tree(4)
    # legacy mirror keeps 2-tier consumers meaningful
    assert (cfg.n_spines, cfg.n_leaves, cfg.hosts_per_leaf) == (2, 8, 2)


def test_conflicting_spec_and_trio_rejected():
    with pytest.raises(ValueError):
        TopologySpec(kind="fat-tree", k=4, n_spines=2)
    with pytest.raises(ValueError):
        TopologySpec(kind="clos", n_spines=2, n_leaves=2,
                     hosts_per_leaf=2, k=4)


# --- fabric builders + multi-tier trees --------------------------------------


def _fat_tree_testbed(k: int, scheme: str = "presto") -> Testbed:
    return Testbed(TestbedConfig(scheme=scheme,
                                 topology=TopologySpec.fat_tree(k)))


def test_fat_tree_shape_k4():
    tb = _fat_tree_testbed(4)
    topo = tb.topo
    assert [len(tier) for tier in topo.tiers] == [8, 8, 4]  # edge, agg, core
    assert len(tb.hosts) == 16
    for edge, agg in zip(topo.tiers[0], topo.tiers[1]):
        assert len(topo.up[edge]) == 2 and not topo.down[edge]
        assert len(topo.up[agg]) == 2 and len(topo.down[agg]) == 2
        assert len(topo.below[edge]) == 2      # its own hosts
        assert len(topo.below[agg]) == 4       # its pod's hosts
    for core in topo.tiers[2]:
        assert len(topo.down[core]) == 4 and len(topo.below[core]) == 16
    trees = tb.controller.trees
    # one per core, class-major: up = (agg class, core offset)
    assert [t.up for t in trees] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [tree_root(topo, t) for t in trees] == topo.tiers[2]
    validate_trees(topo, trees)


@settings(max_examples=8, deadline=None)
@given(k=st.sampled_from([2, 4, 6]),
       seed=st.integers(min_value=0, max_value=2**16))
def test_fat_tree_paths_and_trees_properties(k, seed):
    """For every even k: trees number (k/2)^2 (one per core), the
    validator's reachability + disjointness invariants hold, and the
    trees give every host pair one path per core across pods, one per
    agg inside a pod."""
    import random

    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.fat_tree(k))
    n_hosts = TopologySpec.fat_tree(k).n_hosts()

    class _H:
        def __init__(self, host_id):
            self.host_id = host_id
            self.receivers = {}

        def attach(self, port, topo):
            pass

    spec = TopologySpec.fat_tree(k)
    for h in range(n_hosts):
        topo.attach_host(_H(h), topo.tiers[0][spec.edge_of(h)])
    trees = allocate_spanning_trees(topo)
    assert len(trees) == (k // 2) ** 2
    install_tree_routes(topo, trees)
    validate_trees(topo, trees)  # raises on any violation

    rng = random.Random(seed)
    for _ in range(4):
        a, b = rng.randrange(n_hosts), rng.randrange(n_hosts)
        paths = {tuple(tree_legs(topo, tree, topo.host_leaf[a],
                                 topo.host_leaf[b])) for tree in trees}
        if spec.edge_of(a) == spec.edge_of(b):
            assert paths == {()}
        else:
            same_pod = (spec.edge_of(a) // (k // 2)
                        == spec.edge_of(b) // (k // 2))
            assert len(paths) == (k // 2 if same_pod else (k // 2) ** 2)
            assert {len(p) for p in paths} == {2 if same_pod else 4}


@settings(max_examples=8, deadline=None)
@given(k=st.sampled_from([2, 4, 6]))
def test_every_tree_host_label_resolves(k):
    """Walking any (tree, host) shadow-MAC label from any edge switch
    terminates at the destination host's access port."""
    sim = Simulator()
    spec = TopologySpec.fat_tree(k)
    topo = build_fabric(sim, spec)

    class _H:
        def __init__(self, host_id):
            self.host_id = host_id
            self.receivers = {}

        def attach(self, port, topo):
            pass

    for h in range(spec.n_hosts()):
        topo.attach_host(_H(h), topo.tiers[0][spec.edge_of(h)])
    trees = allocate_spanning_trees(topo)
    install_tree_routes(topo, trees)
    for tree in trees:
        for host_id in range(spec.n_hosts()):
            label = shadow_mac(tree.tree_id, host_id)
            for start in topo.tiers[0]:
                node, hops = start, 0
                while hops <= 2 * len(topo.tiers) + 1:
                    out = node.l2_table.get(label)
                    assert out is not None, (
                        f"tree {tree.tree_id} label for host {host_id} "
                        f"dead-ends at {node.name}")
                    if out is topo.host_port[host_id]:
                        break
                    node = out.peer
                    hops += 1
                else:
                    pytest.fail(f"label walk looped: tree {tree.tree_id} "
                                f"host {host_id} from {start.name}")


def test_tree_trunks_pairwise_disjoint_k4():
    """Different trees never share an agg<->core trunk link; sharing an
    edge<->agg access link is only legal within an uplink class."""
    tb = _fat_tree_testbed(4)
    trunk_links = {}
    spec = TopologySpec.fat_tree(4)
    for tree in tb.controller.trees:
        for src in range(0, 16, 2):
            for dst in range(0, 16, 2):
                src_leaf = tb.topo.tiers[0][spec.edge_of(src)]
                dst_leaf = tb.topo.tiers[0][spec.edge_of(dst)]
                legs = tree_legs(tb.topo, tree, src_leaf, dst_leaf)
                if not legs or len(legs) != 4:
                    continue
                for leg in legs[1:3]:  # agg->core, core->agg
                    owner = trunk_links.setdefault(leg.link.name,
                                                   tree.tree_id)
                    assert owner == tree.tree_id, (
                        f"trunk {leg.link.name} shared by trees "
                        f"{owner} and {tree.tree_id}")


def test_validator_catches_broken_tree():
    tb = _fat_tree_testbed(4)
    # corrupt one edge's route for tree 0 toward host 15
    label = shadow_mac(0, 15)
    victim = tb.topo.tiers[0][0]
    del victim.l2_table[label]
    with pytest.raises(TreeValidationError, match="no route|dead-ends"):
        validate_trees(tb.topo, tb.controller.trees)


def test_fabric_link_names_match_built_topology():
    for spec in (TopologySpec.fat_tree(4), TopologySpec.clos(3, 2, 2)):
        sim = Simulator()
        topo = build_fabric(sim, spec)
        names, by_switch = fabric_link_names(spec)
        built = {link.name for link in topo.links}
        assert set(names) <= built
        for sw, links in by_switch.items():
            assert set(links) <= built


def test_fabric_tables_golden_covers_every_shape():
    assert list(FABRIC_TABLES) == list(gen_golden.FABRIC_SHAPES)


@pytest.mark.parametrize("shape", gen_golden.FABRIC_SHAPES)
def test_programmed_state_matches_parent_commit_golden(shape):
    """Every L2 entry, ECMP group, failover bucket and schedule the
    tier walk programs equals what the per-kind code it replaced
    programmed (the golden was generated by that code)."""
    assert gen_golden.fabric_tables_digest(shape) == FABRIC_TABLES[shape]


# --- wiring plans ------------------------------------------------------------


def test_wiring_is_what_gets_built():
    """Switch creation order (salts), port order and link order all come
    from the plan — they are behaviour."""
    for spec in (TopologySpec.fat_tree(4), TopologySpec.clos(3, 2, 2)):
        plan = wiring(spec)
        topo = build_fabric(Simulator(), spec)
        assert [[sw.name for sw in tier] for tier in topo.tiers] \
            == [list(tier) for tier in plan.tiers]
        assert [link.name for link in topo.links] \
            == [f"{a}--{b}" for a, b in plan.links]
        assert list(topo.switches) == list(
            plan.creation or sum(reversed(plan.tiers), ()))
        for name, sw in topo.switches.items():
            assert [p.peer.name for p in topo.up[sw]] \
                == [b for a, b in plan.links if a == name]


def test_links_must_climb_exactly_one_tier():
    with pytest.raises(ValueError, match="one tier"):
        build_fabric(Simulator(), Wiring((("E1", "E2"),), (("E1", "E2"),)))
    with pytest.raises(ValueError, match="one tier"):
        build_fabric(Simulator(),
                     Wiring((("E1",), ("A1",), ("C1",)), (("E1", "C1"),)))


def test_uneven_up_fanout_has_no_trees():
    topo = build_fabric(Simulator(), Wiring(
        (("E1", "E2"), ("S1", "S2")),
        (("E1", "S1"), ("E1", "S2"), ("E2", "S1"))))
    with pytest.raises(ValueError, match="up-port counts"):
        allocate_spanning_trees(topo)


# --- the seam: fabrics no builder knows ----------------------------------------

_W, _PODS = (1, 2), (1, 2, 3)

SEAM_FABRICS = {
    # 3 pods x (2 edges + 3 aggs), 2 roots per agg class: 3 x 2 trees
    "wide-pods": Wiring(
        tiers=(tuple(f"E{p}.{i}" for p in _PODS for i in _W),
               tuple(f"A{p}.{j}" for p in _PODS for j in _PODS),
               tuple(f"R{j}.{m}" for j in _PODS for m in _W)),
        links=tuple((f"E{p}.{i}", f"A{p}.{j}")
                    for p in _PODS for i in _W for j in _PODS)
        + tuple((f"A{p}.{j}", f"R{j}.{m}")
                for p in _PODS for j in _PODS for m in _W)),
    # 4 tiers: 2 groups x 2 pods x 2 edges, every tier 2 up ports: 8 trees
    "four-tier": Wiring(
        tiers=(tuple(f"E{g}.{p}.{i}" for g in _W for p in _W for i in _W),
               tuple(f"A{g}.{p}.{j}" for g in _W for p in _W for j in _W),
               tuple(f"C{g}.{j}.{m}" for g in _W for j in _W for m in _W),
               tuple(f"R{j}.{m}.{n}" for j in _W for m in _W for n in _W)),
        links=tuple((f"E{g}.{p}.{i}", f"A{g}.{p}.{j}")
                    for g in _W for p in _W for i in _W for j in _W)
        + tuple((f"A{g}.{p}.{j}", f"C{g}.{j}.{m}")
                for g in _W for p in _W for j in _W for m in _W)
        + tuple((f"C{g}.{j}.{m}", f"R{j}.{m}.{n}")
                for g in _W for j in _W for m in _W for n in _W)),
}


@pytest.mark.parametrize("name", SEAM_FABRICS)
def test_unknown_fabric_carries_presto_over_every_tree(name):
    """Hand-wired the way examples/custom_topology.py does it (plan ->
    Topology, hosts, PrestoController): the trees validate, every label
    resolves, and elephants ride every tree, then survive a link-down
    on hardware failover alone."""
    from repro.fluid.engine import FluidEngine
    from repro.host.app import BulkApp, FlowIdAllocator
    from repro.host.gro import PrestoGro
    from repro.host.host import Host
    from repro.host.tcp import TcpConfig
    from repro.presto.controller import PrestoController
    from repro.lb.base import VSwitch
    from repro.presto.flowcell import Presto
    from repro.units import KB

    plan = SEAM_FABRICS[name]
    sim = Simulator()
    topo = build_fabric(sim, plan)
    tcp = TcpConfig(min_rto_ns=msec(20), initial_rto_ns=msec(20))
    hosts = []
    for host_id in range(2 * len(plan.tiers[0])):
        hosts.append(Host(sim, host_id, lb=VSwitch(host_id, Presto()),
                          gro=PrestoGro(),
                          tcp_cfg=tcp, model_cpu=False))
        topo.attach_host(hosts[-1], topo.tiers[0][host_id // 2])
    controller = PrestoController(topo)
    for host in hosts:
        controller.register_vswitch(host.lb)
    topo.install_underlay()
    controller.enable_fast_failover(latency_ns=0)

    trees = controller.trees
    assert len(trees) == {"wide-pods": 6, "four-tier": 8}[name]
    assert sorted(tree_root(topo, t).name for t in trees) \
        == sorted(plan.tiers[-1])            # one tree per root
    validate_trees(topo, trees)

    engine = FluidEngine(sim, topo, flowcell_bytes=64 * KB)
    for tree in trees:
        for dst in range(len(hosts)):
            for src in range(len(hosts)):
                if src != dst:
                    path = engine.resolve_path(
                        src, dst, 1, shadow_mac(tree.tree_id, dst), 0, 0)
                    assert path and path[-1] == topo.host_port[dst].name

    # one elephant per host, to the same slot half the fabric away
    flow_ids = FlowIdAllocator()
    apps = [BulkApp(sim, hosts[h], hosts[(h + len(hosts) // 2) % len(hosts)],
                    flow_ids.next()) for h in range(len(hosts))]
    sim.run(until=msec(1))
    assert all(app.delivered_bytes() > 0 for app in apps)
    for root in topo.tiers[-1]:
        assert root.rx_pkts > 0, f"no traffic over the tree through {root.name}"

    before = [app.delivered_bytes() for app in apps]
    topo.links[0].set_down()  # controller never told: failover only
    sim.run(until=msec(2))
    assert all(app.delivered_bytes() > b for app, b in zip(apps, before))


# --- streaming collectors ----------------------------------------------------


def test_p2_exact_below_five_samples():
    q = P2Quantile(0.5)
    for v in (5.0, 1.0, 3.0):
        q.add(v)
    assert q.value() == 3.0


def test_p2_small_n_matches_exact_percentile():
    assert P2Quantile(0.9).value() is None  # no samples yet
    q = P2Quantile(0.5)
    q.add(7.0)
    assert q.value() == 7.0  # n=1: the sample is every percentile
    q.add(3.0)
    assert q.value() == 5.0  # n=2: linear interpolation, not a marker
    samples = [4.0, 2.0, 8.0, 6.0]
    for pct in (0.5, 0.9, 0.99, 0.999):
        est = P2Quantile(pct)
        for v in samples:
            est.add(v)
        assert est.value() == pytest.approx(percentile(samples, pct * 100))


def test_p2_duplicate_heavy_streams_stay_finite():
    # all-identical stream: every marker collapses to the same height
    q = P2Quantile(0.99)
    for _ in range(50):
        q.add(5.0)
    assert q.value() == 5.0
    # duplicates below five samples use the exact fallback
    q = P2Quantile(0.5)
    for v in (2.0, 2.0, 1.0):
        q.add(v)
    assert q.value() == 2.0
    # near-constant stream with one outlier must not diverge or crash
    q = P2Quantile(0.9)
    for i in range(200):
        q.add(1.0 if i != 100 else 100.0)
    value = q.value()
    assert 1.0 <= value <= 100.0


def test_streaming_quantiles_track_exact_percentiles():
    import random

    rng = random.Random(42)
    xs = [rng.lognormvariate(10, 1.5) for _ in range(20000)]
    sq = StreamingQuantiles()
    sq.extend(xs)
    s = sq.summary()
    assert s["count"] == len(xs)
    assert s["min"] == min(xs) and s["max"] == max(xs)
    for q, key in [(50, "p50"), (90, "p90"), (99, "p99")]:
        exact = percentile(xs, q)
        assert abs(s[key] - exact) / exact < 0.05, key
    assert abs(s["p99.9"] - percentile(xs, 99.9)) / percentile(xs, 99.9) < 0.2


def test_topk_keeps_largest_with_payloads():
    tk = TopK(3)
    for i, v in enumerate([5.0, 1.0, 9.0, 7.0, 3.0, 9.0]):
        tk.add(v, f"item{i}")
    values = [v for v, _ in tk.items()]
    assert values == [9.0, 9.0, 7.0]
    assert tk.items()[0][1] == "item2"  # first 9.0 wins the tie


def test_empty_streams_summarize_cleanly():
    s = StreamingQuantiles().summary()
    assert s["count"] == 0 and s["mean"] is None and s["p99"] is None
    assert TopK(4).items() == []


# --- fabric sweep ------------------------------------------------------------


def test_fabric_cell_runs_with_validation_and_bounded_memory():
    r = run_fabric_cell(
        fabric_config("fat-tree:k=4", "presto", 1), "websearch",
        duration_ns=msec(3), validate=True)
    assert isinstance(r, FabricCellResult)
    assert r.trees_validated
    assert r.flows_started > 0 and r.flows_completed > 0
    assert r.fct_summary["count"] >= 0
    assert len(r.worst_fcts) <= 16
    # serializes for the result store
    rt = from_jsonable(to_jsonable(r))
    assert rt.fct_summary == r.fct_summary


def test_fabric_cell_rejects_unknown_workload():
    with pytest.raises(ValueError, match="workload"):
        run_fabric_cell(fabric_config("fat-tree:k=4", "presto", 1),
                        "bitcoin-mining")


def test_fabric_specs_validate_topologies_up_front():
    with pytest.raises(ValueError):
        fabric_specs(topologies=("fat-tree:k=5",))
    specs = fabric_specs(topologies=("fat-tree:k=4",),
                         workloads=("incast",), schemes=("presto",),
                         seeds=(1,))
    assert len(specs) == 1
    assert specs[0].label == "fabric/fat-tree-k4/incast/presto/seed1"


def test_runner_cli_rejects_topology_for_non_fabric_sweeps(capsys):
    from repro.runner.cli import main

    # scalability declares no --topology, so its parser rejects the flag
    with pytest.raises(SystemExit) as exc:
        main(["run", "scalability", "--topology", "fat-tree:k=4"])
    assert exc.value.code == 2
    assert "--topology" in capsys.readouterr().err
    for bad in ("fat-tree:k=5", "fat-tree:k=inf"):
        assert main(["run", "fabric", "--topology", bad]) == 2
        assert "bad --topology" in capsys.readouterr().err
    # no sweep name is a usage error, whatever flags follow
    assert main(["run", "--topology", "fat-tree:k=4"]) == 2
    assert "sweep name is required" in capsys.readouterr().err


# --- tier 2: datacenter-scale end-to-end -------------------------------------


@pytest.mark.tier2
def test_k8_flow_fidelity_sweep_through_runner(tmp_path):
    """The acceptance-criteria run, scaled to the test budget: a
    128-host fat-tree k=8 trace sweep at flow fidelity through the
    runner CLI, spanning-tree invariants armed."""
    from repro.runner.cli import main

    rc = main([
        "run", "fabric", "--topology", "fat-tree:k=8", "--fidelity", "flow",
        "--seeds", "1", "--duration-ms", "3", "--validate",
        "--results-dir", str(tmp_path), "--quiet",
    ])
    assert rc == 0
    out = tmp_path / "runner_fabric.json"
    assert out.exists()
    import json

    payload = json.loads(out.read_text())
    cells = payload["data"]
    assert cells  # six (workload, scheme) cells on k=8
