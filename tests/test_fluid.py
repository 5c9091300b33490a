"""The fluid flow-level engine: dispatch, config-hash stability,
physics sanity, determinism, failover, and the tier-2 cross-fidelity
and speedup gates.

Tier 1 pins the contracts: ``TestbedConfig(fidelity=...)`` serializes
omit-if-default (seed config hashes — and with them every cached
runner result — are bit-unchanged), ``Testbed(cfg)`` plugs in the
fluid data plane at ``fidelity="flow"``, the engine reproduces
line rate / fair shares / failover plateaus exactly, and serial vs
parallel sweeps are byte-identical.  Tier 2 runs the cross-fidelity
agreement gate and the >=20x speedup floor.
"""

import json
import math
import time

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.scalability import (
    scalability_config,
    scalability_specs,
)
from repro.experiments.synthetic import run_synthetic_seed
from repro.fluid.engine import FluidTransfer
from repro.runner import collect_results, run_jobs, to_jsonable
from repro.runner.serialize import content_hash
from repro.units import KB, msec

# --- satellite 1: omit-if-default serialization ------------------------------

#: content hashes captured at the seed commit, before ``fidelity``
#: existed.  If any of these move, every cached runner result and
#: golden fixture silently invalidates — that is a bug, not churn.
SEED_DEFAULT_CONFIG_HASH = "bc4b591b401b0e68"
SEED_SCALABILITY_CONFIG_HASH = "988859f88690486b"
SEED_SCALABILITY_SPEC_HASH = "51060f0e7e217978"


def test_seed_config_hashes_unchanged():
    assert content_hash(TestbedConfig()) == SEED_DEFAULT_CONFIG_HASH
    assert (content_hash(scalability_config("presto", 4, 1))
            == SEED_SCALABILITY_CONFIG_HASH)
    assert scalability_specs()[0].hash == SEED_SCALABILITY_SPEC_HASH


def test_explicit_packet_hashes_like_default():
    """``fidelity="packet"`` normalizes to None, so explicit-packet
    configs hash — and hit the result store — exactly like historic
    ones."""
    assert (content_hash(TestbedConfig(fidelity="packet"))
            == SEED_DEFAULT_CONFIG_HASH)
    assert TestbedConfig(fidelity="packet").fidelity is None
    assert "fidelity" not in to_jsonable(TestbedConfig())["fields"]


def test_flow_fidelity_changes_hash():
    assert (content_hash(TestbedConfig(fidelity="flow"))
            != SEED_DEFAULT_CONFIG_HASH)
    assert (to_jsonable(TestbedConfig(fidelity="flow"))["fields"]["fidelity"]
            == "flow")


def test_invalid_fidelity_rejected():
    with pytest.raises(ValueError, match="fidelity"):
        TestbedConfig(fidelity="quantum")


# --- dispatch ----------------------------------------------------------------


def test_testbed_dispatches_on_fidelity():
    """One ``Testbed`` class; the config knob alone decides whether
    transfers are fluids on a ``FluidEngine`` or packet-level apps."""
    flow = Testbed(TestbedConfig(fidelity="flow"))
    assert type(flow) is Testbed
    assert isinstance(flow.add_elephant(0, 5), FluidTransfer)
    assert flow.engine.transfers == [flow.apps[0]]
    for cfg in (TestbedConfig(), TestbedConfig(fidelity="packet")):
        packet = Testbed(cfg)
        assert type(packet) is Testbed
        assert not hasattr(packet, "engine")
        assert not isinstance(packet.add_elephant(0, 5), FluidTransfer)
        assert hasattr(packet.hosts[0], "gro")  # hosts with a real stack
    assert not hasattr(flow.hosts[0], "gro")


# --- physics sanity ----------------------------------------------------------


def _flow_testbed(scheme="presto", n_paths=4):
    return Testbed(scalability_config(scheme, n_paths, seed=1,
                                      fidelity="flow"))


def test_fluid_elephants_fill_line_rate():
    """Four presto elephants over four spines: every flow gets exactly
    its 10G line rate (the fluid allocation has no queueing noise)."""
    tb = _flow_testbed()
    apps = [tb.add_elephant(i, 4 + i, start_ns=0) for i in range(4)]
    tb.run(msec(4))
    rate = tb.topo.links[0].rate_bps
    for app in apps:
        delivered = sum(app.delivered_by_flow().values())
        expected = rate * msec(4) / 8e9  # bps over 4 ms -> bytes
        assert delivered == pytest.approx(expected, rel=0.02)


def test_fluid_mice_fct_presto_beats_ecmp():
    """The headline ordering survives the fidelity change: with the
    fabric saturated by stride elephants, presto mice finish faster
    than ecmp mice (whose elephants collide and crowd the mice out)."""
    fcts = {}
    for scheme in ("presto", "ecmp"):
        run = run_synthetic_seed(
            TestbedConfig(scheme=scheme, seed=1, fidelity="flow"),
            workload="stride",
            warm_ns=msec(3), measure_ns=msec(6),
            with_mice=True, mice_interval_ns=msec(1),
        )
        assert run.mice_fcts_ns, scheme
        fcts[scheme] = sum(run.mice_fcts_ns) / len(run.mice_fcts_ns)
    assert fcts["presto"] < fcts["ecmp"]


def test_fluid_transfer_byte_ledger_exact():
    """Bounded transfers complete with delivered == size, to the byte,
    and the invariant checker signs off on the run."""
    cfg = TestbedConfig(scheme="presto", seed=1, fidelity="flow",
                        validate=True)
    tb = Testbed(cfg)
    app = tb.add_mice(0, 8, size_bytes=200 * KB, interval_ns=msec(2),
                      start_ns=0)
    tb.run(msec(6))
    assert app.fcts_ns, "mice must complete"
    for transfer in tb.engine.transfers:
        if transfer.done:
            assert sum(transfer.delivered_by_flow().values()) \
                == transfer.size_bytes


def test_fluid_failover_timeline_phases():
    """The Fig 17 plateaus, computed exactly by the fluid engine:
    10G symmetric, 7.5G after the spine link dies (4 flows on 3
    spines... weighted by the controller to the same 7.5G)."""
    from repro.experiments.failure import run_failure_timeline

    tl = run_failure_timeline(
        "L1->L4", seed=1, warm_ns=msec(5), measure_ns=msec(8),
        cfg=TestbedConfig(scheme="presto", seed=1, fidelity="flow"),
    )
    phases = {k: p.mean_flow_tput_bps for k, p in tl.phases.items()}
    assert phases["symmetry"] == pytest.approx(10e9, rel=0.02)
    assert phases["failover"] == pytest.approx(7.5e9, rel=0.05)
    assert phases["weighted"] == pytest.approx(7.5e9, rel=0.05)
    assert tl.convergence.time_to_rebalance_ns is not None


# --- satellite 3: serial vs parallel byte-identical --------------------------


def _result_bytes(results):
    return [json.dumps(to_jsonable(r), indent=2, sort_keys=True)
            for r in results]


def test_fluid_serial_parallel_byte_identical():
    """The same flow-fidelity sweep through 1 worker and through a
    2-process pool produces byte-identical results: the allocator's
    sorted-order float reductions leave nothing for fork order or
    dict seeding to perturb."""
    specs = scalability_specs(
        schemes=("presto", "ecmp"), path_counts=(2, 4), seeds=(1,),
        warm_ns=msec(1), measure_ns=msec(2), with_probes=True,
        fidelity="flow",
    )
    serial = collect_results(run_jobs(specs, jobs=1))
    parallel = collect_results(run_jobs(specs, jobs=2))
    assert _result_bytes(serial) == _result_bytes(parallel)


# --- tier 2: cross-fidelity agreement + speedup floor ------------------------


@pytest.mark.tier2
def test_cross_fidelity_mice_ordering_agreement():
    """Both engines must rank the schemes identically on mice FCT
    (presto < ecmp) — the fluid engine is allowed to be absolutely
    faster (no slow-start), never differently *ordered*."""
    means = {}
    for fidelity in (None, "flow"):
        for scheme in ("presto", "ecmp"):
            run = run_synthetic_seed(
                TestbedConfig(scheme=scheme, seed=1, fidelity=fidelity),
                workload="stride",
                warm_ns=msec(4), measure_ns=msec(8),
                with_mice=True, mice_interval_ns=msec(1),
            )
            assert run.mice_fcts_ns, (fidelity, scheme)
            means[(fidelity, scheme)] = (
                sum(run.mice_fcts_ns) / len(run.mice_fcts_ns))
    assert means[(None, "presto")] < means[(None, "ecmp")]
    assert means[("flow", "presto")] < means[("flow", "ecmp")]


@pytest.mark.tier2
def test_fct_ordering_oracle_passes_at_flow_fidelity():
    from repro.validate.oracles import FCT_ORDERING

    report = FCT_ORDERING.run(seeds=(1, 2, 3), scale=0.3, fidelity="flow")
    assert report.passed, report.failures()


@pytest.mark.tier2
def test_fluid_at_least_20x_faster_on_scalability_grid():
    """The acceptance floor: the fluid engine runs the scalability
    sweep grid >= 20x faster than the packet engine (observed: several
    hundred x)."""
    grid = dict(schemes=("presto", "ecmp"), path_counts=(2, 4), seeds=(1,),
                warm_ns=msec(1), measure_ns=msec(3), with_probes=True)
    walls = {}
    for fidelity in (None, "flow"):
        specs = scalability_specs(fidelity=fidelity, **grid)
        t0 = time.perf_counter()
        outcomes = run_jobs(specs, jobs=1)
        walls[fidelity] = time.perf_counter() - t0
        assert all(o.ok for o in outcomes)
    speedup = walls[None] / walls["flow"]
    assert speedup >= 20.0, f"fluid only {speedup:.1f}x faster"
