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
* tier-agnostic helpers raising :class:`TopologyShapeError` instead of
  returning wrong answers on unsupported shapes;
* the bounded-memory streaming collectors behind the fabric sweep;
* an end-to-end 128-host fat-tree sweep through the runner (tier 2).
"""

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
    as_spec,
    build_fabric,
    fabric_link_names,
)
from repro.net.routing import (
    TopologyShapeError,
    TreeValidationError,
    allocate_spanning_trees,
    enumerate_paths,
    install_tree_routes,
    validate_trees,
)
from repro.net.topology import Topology
from repro.runner.serialize import content_hash, from_jsonable, to_jsonable
from repro.sim.engine import Simulator
from repro.units import msec

SEED_DEFAULT_CONFIG_HASH = "bc4b591b401b0e68"


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
    assert len(topo.cores) == 4
    assert len(topo.leaves) == 8       # edges play the leaf role
    assert len(topo.spines) == 8       # aggs play the spine role
    assert len(topo.pod_edges) == 4 and len(topo.pod_aggs) == 4
    assert len(tb.hosts) == 16
    assert topo.n_tiers == 3
    trees = tb.controller.trees
    assert len(trees) == 4             # one per core
    validate_trees(topo, trees)


@settings(max_examples=8, deadline=None)
@given(k=st.sampled_from([2, 4, 6]),
       seed=st.integers(min_value=0, max_value=2**16))
def test_fat_tree_paths_and_trees_properties(k, seed):
    """For every even k: every host pair has at least one path, trees
    number (k/2)^2 (one per core), and the validator's reachability +
    disjointness invariants hold."""
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
        topo.attach_host(_H(h), topo.leaves[spec.edge_of(h)])
    trees = allocate_spanning_trees(topo)
    assert len(trees) == (k // 2) ** 2
    install_tree_routes(topo, trees)
    validate_trees(topo, trees)  # raises on any violation

    rng = random.Random(seed)
    for _ in range(4):
        a, b = rng.randrange(n_hosts), rng.randrange(n_hosts)
        paths = enumerate_paths(topo, a, b)
        assert paths, f"no path {a}->{b} on k={k}"
        if spec.edge_of(a) != spec.edge_of(b):
            # inter-pod pairs see one path per core, intra-pod one per agg
            same_pod = (spec.edge_of(a) // (k // 2)
                        == spec.edge_of(b) // (k // 2))
            assert len(paths) == (k // 2 if same_pod else (k // 2) ** 2)


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
        topo.attach_host(_H(h), topo.leaves[spec.edge_of(h)])
    trees = allocate_spanning_trees(topo)
    install_tree_routes(topo, trees)
    for tree in trees:
        for host_id in range(spec.n_hosts()):
            label = shadow_mac(tree.tree_id, host_id)
            for start in topo.leaves:
                node, hops = start, 0
                while hops <= 2 * topo.n_tiers + 1:
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
    from repro.net.routing import tree_legs

    spec = TopologySpec.fat_tree(4)
    for tree in tb.controller.trees:
        for src in range(0, 16, 2):
            for dst in range(0, 16, 2):
                src_leaf = tb.topo.leaves[spec.edge_of(src)]
                dst_leaf = tb.topo.leaves[spec.edge_of(dst)]
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
    victim = tb.topo.leaves[0]
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


# --- tier-agnostic error behavior --------------------------------------------


def test_enumerate_paths_raises_on_unsupported_shape():
    sim = Simulator()
    topo = Topology(sim)
    s1 = topo.add_switch("X1")
    s2 = topo.add_switch("X2")
    topo.connect(s1, s2)

    class _H:
        def __init__(self, host_id):
            self.host_id = host_id
            self.receivers = {}

        def attach(self, port, topo):
            pass

    topo.attach_host(_H(0), s1)
    topo.attach_host(_H(1), s2)
    with pytest.raises(TopologyShapeError):
        enumerate_paths(topo, 0, 1)


def test_pod_of_switch_raises_without_metadata():
    sim = Simulator()
    topo = build_fabric(sim, TopologySpec.clos(2, 2, 2))
    with pytest.raises(ValueError, match="pod"):
        topo.pod_of_switch(topo.leaves[0])


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
    assert main(["run", "--topology", "fat-tree:k=5"]) == 2
    assert "bad --topology" in capsys.readouterr().err


# --- tier 2: datacenter-scale end-to-end -------------------------------------


@pytest.mark.tier2
def test_k8_flow_fidelity_sweep_through_runner(tmp_path):
    """The acceptance-criteria run, scaled to the test budget: a
    128-host fat-tree k=8 trace sweep at flow fidelity through the
    runner CLI, spanning-tree invariants armed."""
    from repro.runner.cli import main

    rc = main([
        "run", "--topology", "fat-tree:k=8", "--fidelity", "flow",
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
