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
import random
import time

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.scalability import SCALABILITY, scalability_config
from repro.experiments.synthetic import run_synthetic_seed
from repro.faults.schedule import FaultSchedule, LinkDown, random_schedule
from repro.faults.soak import _fabric_names
from repro.fluid.engine import FluidTransfer
from repro.host import app as host_app
from repro.runner.pool import collect_results, run_jobs
from repro.runner.serialize import content_hash, to_jsonable
from repro.units import KB, MB, SEC, msec, usec
from tests.reference_allocator import (
    max_min_allocation as reference_allocation,
)

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
    assert SCALABILITY.specs()[0].hash == SEED_SCALABILITY_SPEC_HASH


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


def test_fluid_transfer_byte_ledger_exact(monkeypatch):
    """Bounded transfers complete with delivered == size, to the byte,
    and the invariant checker signs off on the run."""
    monkeypatch.setattr(host_app, "MICE_BYTES", 200 * KB)
    cfg = TestbedConfig(scheme="presto", seed=1, fidelity="flow",
                        validate=True)
    tb = Testbed(cfg)
    app = tb.add_mice(0, 8, interval_ns=msec(2), start_ns=0)
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
    specs = SCALABILITY.specs(
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
def test_fluid_at_least_20x_faster_on_scalability_grid():
    """The acceptance floor: the fluid engine runs the scalability
    sweep grid >= 20x faster than the packet engine (observed: several
    hundred x)."""
    grid = dict(schemes=("presto", "ecmp"), path_counts=(2, 4), seeds=(1,),
                warm_ns=msec(1), measure_ns=msec(3), with_probes=True)
    walls = {}
    for fidelity in (None, "flow"):
        specs = SCALABILITY.specs(fidelity=fidelity, **grid)
        t0 = time.perf_counter()
        outcomes = run_jobs(specs, jobs=1)
        walls[fidelity] = time.perf_counter() - t0
        assert all(o.ok for o in outcomes)
    speedup = walls[None] / walls["flow"]
    assert speedup >= 20.0, f"fluid only {speedup:.1f}x faster"


# --- reallocation cost: path reuse, one completion timer ---------------------

FAST_CONTROL = dict(ctrl_detection_delay_ns=usec(300),
                    ctrl_reaction_delay_ns=usec(200))


def _fresh_solve(engine):
    """The allocation rebuilt from nothing kept: the routed pipes of the
    active transfers, solved by the reference allocator over the links'
    current rates.  Returns (pipes, rates, members by port name)."""
    pipes, entries, members = [], [], {}
    for transfer in engine._active:
        for pipe in transfer.pipes:
            if pipe.path is None or pipe.weight <= 0.0:
                continue
            pipes.append(pipe)
            entries.append((pipe.path, pipe.weight, None))
            for name in set(pipe.path):
                members.setdefault(name, []).append(pipe)
    capacity = {name: port.link.rate_bps / (8.0 * SEC)
                for name, port in engine._ports.items()}
    return pipes, reference_allocation(entries, capacity), members


def _assert_kept_state_is_fresh(tb):
    """Wrap ``FluidEngine._realloc``: after every reallocation, every
    active pipe's kept ``path`` must be what a fresh walk of the switch
    tables returns right now, every pipe's rate must be bitwise (sign of
    zero included) what the reference allocator gives over entries
    rebuilt from scratch, and every port's leg must hold exactly the
    pipes crossing it, with their ascending weight sum.  Returns the
    running count of pipes compared."""
    engine = tb.engine
    realloc = engine._realloc
    compared = [0]

    def checked():
        realloc()
        now = tb.sim.now
        for transfer in engine._active:
            for pipe in transfer.pipes:
                assert pipe.path == engine.resolve_path(
                    transfer.src, transfer.dst, pipe.flow_id, pipe.dst_mac,
                    pipe.flowcell_id, now), (
                    f"t={now}: stale path on flow {pipe.flow_id}")
                compared[0] += 1
        pipes, rates, members = _fresh_solve(engine)
        assert set(engine._routed) == set(pipes)
        for pipe, rate in zip(pipes, rates):
            assert (pipe.rate, math.copysign(1.0, pipe.rate)) == (
                rate, math.copysign(1.0, rate)), (
                f"t={now}: flow {pipe.flow_id} at {pipe.rate!r}, "
                f"a fresh solve says {rate!r}")
        for transfer in engine._active:
            for pipe in transfer.pipes:
                if pipe not in engine._routed:
                    assert (pipe.rate, math.copysign(1.0, pipe.rate)) == (
                        0.0, 1.0)
        for name, leg in engine._legs.items():
            fresh = members.get(name, [])
            assert len(leg.members) == len(fresh)
            assert set(leg.members) == set(fresh), f"t={now}: leg {name}"
            assert leg.cap == engine._ports[name].link.rate_bps / (8.0 * SEC)
            total = 0.0
            for weight in sorted(pipe.weight for pipe in fresh):
                total += weight
            assert (leg.wsum, leg.dirty) == (total, False), (
                f"t={now}: leg {name}")

    engine._realloc = checked
    return compared


def _chaos_testbed(scheme, topology, failover_latency_ns, control, seed):
    cfg = TestbedConfig(scheme=scheme, seed=seed, fidelity="flow",
                        topology=topology, validate=True,
                        failover_latency_ns=failover_latency_ns,
                        **FAST_CONTROL)
    tb = Testbed(cfg)
    tb.controller.enable_fast_failover(failover_latency_ns)
    if control:
        tb.enable_control_plane()
    return tb


@pytest.mark.parametrize("topology", [None, "fat-tree:k=4"])
@pytest.mark.parametrize("scheme", ["presto", "ecmp", "presto_ecmp", "mptcp"])
def test_reused_paths_equal_fresh_walks_under_random_faults(scheme, topology,
                                                            monkeypatch):
    """A pipe's path is walked again only when the forwarding epoch
    moved.  Under random link deaths, flaps, degradations and switch
    outages — with backups engaging 0 / 50 us / 2 ms after a failure and
    the control plane reweighting or not — what the engine kept must
    equal a fresh walk after every single reallocation."""
    monkeypatch.setattr(host_app, "MICE_BYTES", 100 * KB)
    compared = 0
    for failover_latency_ns in (0, usec(50), msec(2)):
        for control in (False, True):
            for seed in (1, 2, 3):
                tb = _chaos_testbed(scheme, topology, failover_latency_ns,
                                    control, seed)
                links, killable = _fabric_names(tb.cfg)
                rng = random.Random(seed)
                random_schedule(rng, links, window_ns=msec(4), max_faults=2,
                                switches=killable).arm(tb.sim, tb.topo)
                n_hosts = len(tb.hosts)
                for i in range(4):
                    tb.add_elephant(i, n_hosts - 1 - i,
                                    size_bytes=rng.choice((None, 3 * MB)),
                                    start_ns=rng.randrange(usec(100)))
                tb.add_mice(1, n_hosts - 2, interval_ns=usec(150),
                            stop_ns=msec(5))
                counter = _assert_kept_state_is_fresh(tb)
                tb.run(msec(6))
                compared += counter[0]
    assert compared > 1_000  # the wrapper really ran


@pytest.mark.parametrize("scheme", ["presto", "presto_ecmp"])
def test_arrival_on_the_timestamp_a_failover_window_closes(scheme):
    """The transfer's start event is older than the delayed realloc the
    link change requested, so at the closing timestamp it is sliced
    first: its walk must already see the engaged backup, and whatever
    was walked inside the window must be walked again."""
    latency = usec(50)
    tb = _chaos_testbed(scheme, None, latency, control=False, seed=1)
    down_at = usec(400)
    tb.add_elephant(0, 15)
    inside = tb.add_elephant(2, 13, size_bytes=2 * MB,
                             start_ns=down_at + latency // 2)
    late = tb.add_elephant(1, 14, size_bytes=2 * MB,
                           start_ns=down_at + latency)
    FaultSchedule.of(LinkDown(down_at, "L1--S1")).arm(tb.sim, tb.topo)
    counter = _assert_kept_state_is_fresh(tb)

    tb.sim.run(until=down_at + latency - 1)
    assert any(pipe.path is None for pipe in inside.pipes)  # blackholed
    tb.sim.run(until=down_at + latency)
    for transfer in (inside, late):
        assert transfer.pipes
        for pipe in transfer.pipes:
            assert pipe.path is not None and "L1->S1" not in pipe.path
    tb.run(msec(6))
    assert counter[0] and late.done and inside.done


def test_link_index_equals_a_fresh_solve_through_every_kind_of_change(
        monkeypatch):
    """The engine keeps one leg per port between reallocations, so
    every change that moves a pipe onto, off or along a leg is driven
    here with each reallocation checked against a from-scratch solve:
    arrivals and completions, the control plane's schedule pushes
    (re-slices), a link going down and back up inside one failover
    detection window, and a rate change on a leg that carries pipes."""
    from repro.faults.schedule import LinkDegrade, LinkUp

    monkeypatch.setattr(host_app, "MICE_BYTES", 100 * KB)
    latency, down_at = usec(50), usec(400)
    tb = _chaos_testbed("presto", None, latency, control=True, seed=3)
    engine = tb.engine
    starts = [0]
    start = engine._start_transfer

    def counted_start(transfer):
        starts[0] += 1
        start(transfer)

    engine._start_transfer = counted_start
    carried_at_change = []
    degraded = next(l for l in tb.topo.links if l.name == "L2--S3")
    degraded.on_state_change.append(lambda link: carried_at_change.append(
        any(engine._legs[p.name].members for p in link.ports
            if p.name in engine._legs)))
    FaultSchedule.of(
        LinkDown(down_at, "L1--S1"), LinkUp(down_at + latency // 2, "L1--S1"),
        LinkDegrade(usec(700), "L2--S3", 0.5, duration_ns=msec(1)),
    ).arm(tb.sim, tb.topo)
    tb.add_elephant(0, 15)
    tb.add_elephant(4, 11, size_bytes=3 * MB, start_ns=usec(20))
    tb.add_elephant(8, 7, size_bytes=2 * MB, start_ns=down_at + latency // 4)
    tb.add_mice(1, 14, interval_ns=usec(150), stop_ns=msec(5))
    counter = _assert_kept_state_is_fresh(tb)
    tb.run(msec(6))

    assert counter[0] > 500 and not engine.violations
    assert sum(t.done for t in engine.transfers) >= 10   # completions
    assert engine.slices > starts[0]                     # schedule pushes
    assert carried_at_change == [True, True]             # slowed, restored


def test_cell_hashed_drop_does_not_blackhole_the_flows_other_cells():
    """Inside a failover detection window a ``HASH_FLOWCELL`` leaf drops
    the cells that hash onto the dead uplink — and only those.  The
    walk's ``_cell_hashed`` report has to survive the drop, or the
    slice memo keys the None on (flow, real MAC) alone and every later
    cell of the flow inherits it."""
    latency, down_at = msec(2), usec(400)
    tb = _chaos_testbed("presto_ecmp", None, latency, control=False, seed=1)
    FaultSchedule.of(LinkDown(down_at, "L1--S1")).arm(tb.sim, tb.topo)
    inside = tb.add_elephant(2, 13, size_bytes=4 * MB,
                             start_ns=down_at + usec(50))
    counter = _assert_kept_state_is_fresh(tb)
    tb.sim.run(until=down_at + usec(100))

    group = tb.topo.host_leaf[2].ecmp_default
    flow_id, mac = inside.pipes[0].flow_id, inside.pipes[0].dst_mac
    cells = range(1, 65)                       # 4 MB of 64 KB flowcells
    dead = [c for c in cells if group.select(flow_id, c).name == "L1->S1"]
    assert 4 < len(dead) < 28
    for cell in (dead[0], next(c for c in cells if c not in dead)):
        path = tb.engine.resolve_path(2, 13, flow_id, mac, cell, tb.sim.now)
        assert tb.engine._cell_hashed
        assert (path is None) == (cell in dead)

    lost = sum(p.weight for p in inside.pipes if p.path is None)
    assert lost == pytest.approx(len(dead) / 64)
    assert {p.path[1] for p in inside.pipes if p.path} == {
        "L1->S2", "L1->S3", "L1->S4"}
    assert counter[0]


# --- one pipeline: the fluid walk is the path a packet takes -----------------


def _walk_fabric(fabric, leaf_hash_mode, failover_latency_ns):
    """A hand-built flow-fidelity fabric (``failover_latency_ns=None``:
    no fast failover).  Returns (sim, topo, engine, trees, traces,
    arrived): every port appends its name to ``traces[flow_id]`` as a
    packet leaves through it, every host records what reaches it."""
    from repro.fluid.engine import FluidEngine
    from repro.fluid.testbed import FluidHost
    from repro.lb.base import VSwitch
    from repro.net.fabrics import TopologySpec, build_fabric
    from repro.presto.controller import PrestoController
    from repro.sim.engine import Simulator
    from tests.test_fabrics import SEAM_FABRICS

    sim = Simulator()
    if fabric == "four-tier":
        plan = SEAM_FABRICS[fabric]
        topo = build_fabric(sim, plan)
        edge_of = lambda host_id: host_id // 2        # noqa: E731
        n_hosts = 2 * len(plan.tiers[0])
    else:
        spec = TopologySpec.parse(fabric)
        topo = build_fabric(sim, spec)
        edge_of, n_hosts = spec.edge_of, spec.n_hosts()
    traces, arrived = {}, {}
    for host_id in range(n_hosts):
        host = FluidHost(host_id, VSwitch(host_id))
        host.receive = (lambda pkt, in_port=None, host_id=host_id:
                        arrived.__setitem__(pkt.flow_id, host_id))
        topo.attach_host(host, topo.tiers[0][edge_of(host_id)])
    controller = PrestoController(topo)
    topo.install_underlay(leaf_hash_mode=leaf_hash_mode)
    if failover_latency_ns is not None:
        controller.enable_fast_failover(failover_latency_ns)
    for link in topo.links:
        for port in link.ports:
            port.on_dequeue = (lambda pkt, name=port.name:
                               traces.setdefault(pkt.flow_id, []).append(name))
    engine = FluidEngine(sim, topo, flowcell_bytes=64 * KB,
                         failover_latency_ns=failover_latency_ns or 0)
    return sim, topo, engine, controller.trees, traces, arrived


@pytest.mark.parametrize("failover_latency_ns", [None, 0, usec(50)])
@pytest.mark.parametrize("leaf_hash_mode", ["flow", "flowcell"])
@pytest.mark.parametrize("fabric", ["clos:spines=4,leaves=4,hosts=2",
                                    "fat-tree:k=4", "four-tier"])
def test_fluid_walk_is_the_path_a_packet_takes(fabric, leaf_hash_mode,
                                               failover_latency_ns):
    """``resolve_path`` and ``Switch.receive`` share one statement of
    the pipeline (``Switch.next_hop``), and receive keeps an inlined
    below/climb hit: so a real packet injected at the source edge must
    leave through exactly the ports the walk names, hop for hop, and
    die (blackhole, detection window, mislabel, the 2-tier root's
    relabel-and-bounce running out of hop budget) exactly where the
    walk says None — on a healthy fabric, inside a failover detection
    window and after it closes, under seeded random link-down sets,
    for shadow-MAC labels and real MACs."""
    from repro.net.addresses import host_mac, shadow_mac
    from repro.net.packet import Packet

    flow_ids = iter(range(1, 1 << 30))
    delivered = blackholed = ttl_drops = 0
    for seed in range(5):
        rng = random.Random(seed)
        sim, topo, engine, trees, traces, arrived = _walk_fabric(
            fabric, leaf_hash_mode, failover_latency_ns)
        n_hosts = len(topo.hosts)

        def inject_and_compare(count):
            at = sim.now
            sent = []
            for _ in range(count):
                src, dst = rng.sample(range(n_hosts), 2)
                tree = rng.choice([None, *trees])
                mac = (host_mac(dst) if tree is None
                       else shadow_mac(tree.tree_id, dst))
                flow, cell = next(flow_ids), rng.randrange(1, 4)
                sent.append((src, dst, flow, mac, cell))
                topo.host_port[src].peer_port.send(Packet(
                    flow_id=flow, src_host=src, dst_host=dst, dst_mac=mac,
                    kind="data", seq=0, payload_len=100, flowcell_id=cell))
            sim.run()  # nothing else is scheduled: drains the packets
            for src, dst, flow, mac, cell in sent:
                walked = engine.resolve_path(src, dst, flow, mac, cell, at)
                hashed = engine._cell_hashed
                taken = (tuple(traces[flow]) if arrived.get(flow) == dst
                         else None)
                assert walked == taken, (seed, at, src, dst, mac, cell,
                                         traces.get(flow))
                # the memo contract: a walk that says it never hashed on
                # the cell — delivered or dropped — is every cell's walk
                if not hashed:
                    assert walked == engine.resolve_path(
                        src, dst, flow, mac, cell + 7, at)
            return sum(arrived.get(s[2]) == s[1] for s in sent)

        assert inject_and_compare(20) == 20            # healthy: all arrive
        sim.run(until=usec(200))
        links = list(topo.links)
        if seed == 0 and len(topo.tiers) == 2:
            # every root loses its way down to leaf 1: each relabels
            # onto the next tree and bounces, until the hop budget ends
            down = [l for l in links if l.name.startswith("L1--S")]
        else:
            down = rng.sample(links, rng.randrange(1, 5))
        for link in down:
            link.set_down()
        got = inject_and_compare(40)                   # window still open
        assert sim.now < usec(200) + (failover_latency_ns or usec(50))
        sim.run(until=usec(300))
        got += inject_and_compare(40)                  # window closed
        delivered += got
        blackholed += 80 - got
        ttl_drops += sum(sw.ttl_drops for sw in topo.switches.values())
    assert delivered > 100 and blackholed > 10
    if failover_latency_ns is not None and len(topo.tiers) == 2:
        assert ttl_drops > 0  # the loop kill was among the cases


def test_heap_holds_one_completion_timer_not_one_per_transfer():
    """Every reallocation re-predicts every completion, so only the
    earliest prediction can ever fire.  The engine keeps that one timer:
    what lives in the heap is the not-yet-started transfers, the pending
    reallocations and it — and the simulator never lets dead entries
    outnumber live ones by more than its compaction floor.  (One timer
    per active transfer, cancelled and re-armed per reallocation, blew
    through this with ~190 transfers in flight.)"""
    from repro.sim.engine import _COMPACT_MIN

    tb = Testbed(TestbedConfig(scheme="presto", seed=1, fidelity="flow"))
    engine, sim = tb.engine, tb.sim
    rng = random.Random(5)
    for i in range(200):
        src = rng.randrange(16)
        tb.add_elephant(src, (src + rng.randrange(4, 12)) % 16,
                        size_bytes=400 * KB, start_ns=i * usec(8))
    in_flight = 0
    while sim.step():
        started = sum(1 for t in engine.transfers if t.pipes or t.done)
        live = 200 - started + len(engine._realloc_times) + 1
        assert sim.pending_count() <= live + max(_COMPACT_MIN, live) + 1
        in_flight = max(in_flight, len(engine._active))
    assert in_flight > 150 and all(t.done for t in engine.transfers)
