"""The scheme zoo and its tournament: property tests for the three
literature schemes (DiffFlow / RepFlow / elephant isolation), the
tournament driver's ranking + ordering machinery, and tier-2
cross-fidelity parity.

Property tests (hypothesis) pin the zoo's contract corners:

* DiffFlow's threshold boundary — classification is cumulative and
  latched, and a flow of *exactly* the cutoff lives and dies a mouse;
* RepFlow's byte ledger — the application delivers exactly the flow
  size despite two copies on the wire, with the loser's payload
  accounted as suppressed duplicates, never as delivered bytes;
* elephant isolation's label split — a clean partition of the distinct
  schedule labels, which on a fat tree (k=4) puts mice and detected
  elephants on fabric-link-disjoint spanning trees.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.harness import Testbed, TestbedConfig
from repro.host.transfer import delivered_for
from repro.lb.base import Policy, VSwitch
from repro.lb.diffflow import DIFFFLOW_THRESHOLD, DiffFlow
from repro.lb.elephant_iso import ElephantIso
from repro.lb.repflow import RepFlow
from repro.net.addresses import shadow_mac_tree
from repro.presto.flowcell import flowcell
from repro.units import KB, msec

LABELS = [1001, 1002, 1003, 1004]


def seg(lb, flow=1, seq=0, end=10 * KB, dst=3):
    """Label one segment [seq, end) of ``flow``; returns its dst_mac."""
    return lb.label(flow, dst, end - seq, end, 0)[0]


def make_lb(cls, seed=1, **kwargs):
    lb = VSwitch(0, cls(**kwargs), random.Random(seed))
    lb.set_schedule(3, LABELS)
    return lb


def is_elephant(lb, flow_id):
    """Promotion is the latched pin on the flow's state record."""
    return lb.flow(flow_id).pin >= 0


# --- DiffFlow: the threshold boundary ----------------------------------------


@st.composite
def chunked_exact_threshold(draw):
    """Segment lengths that sum to exactly DIFFFLOW_THRESHOLD."""
    cuts = draw(st.lists(
        st.integers(min_value=1, max_value=DIFFFLOW_THRESHOLD - 1),
        max_size=6, unique=True))
    bounds = [0] + sorted(cuts) + [DIFFFLOW_THRESHOLD]
    return [b - a for a, b in zip(bounds, bounds[1:])]


class TestDiffFlowBoundary:
    @settings(max_examples=50, deadline=None)
    @given(chunks=chunked_exact_threshold(), seed=st.integers(0, 2**16))
    def test_flow_of_exactly_threshold_bytes_stays_a_mouse(self, chunks,
                                                           seed):
        lb = make_lb(DiffFlow, seed=seed)
        offset = 0
        for length in chunks:
            seg(lb, seq=offset, end=offset + length)
            offset += length
            assert not is_elephant(lb, 1)
        assert offset == DIFFFLOW_THRESHOLD

    @settings(max_examples=50, deadline=None)
    @given(extra=st.integers(min_value=1, max_value=10 * KB),
           seed=st.integers(0, 2**16))
    def test_crossing_threshold_promotes_once_and_latches(self, extra, seed):
        lb = make_lb(DiffFlow, seed=seed)
        pinned = seg(lb, end=DIFFFLOW_THRESHOLD + extra)
        assert is_elephant(lb, 1)
        assert pinned in LABELS
        # latched: later segments — including retransmits *below* the
        # threshold — keep the same classification and the same path
        for seq in (0, DIFFFLOW_THRESHOLD - 1, DIFFFLOW_THRESHOLD + extra):
            assert seg(lb, seq=seq, end=seq + 1) == pinned
            assert is_elephant(lb, 1)

    def test_mice_spray_per_packet_elephants_keep_their_pin(self):
        lb = make_lb(DiffFlow)
        # mouse: the segment answer is SPRAY (cell 0), and consecutive
        # packets rotate across the schedule
        assert lb.label(1, 3, 8 * 1448, 8 * 1448, 0)[1] == 0
        macs = [lb.spray(1, 3)[0] for _ in range(8)]
        assert set(macs) == set(LABELS)
        assert all(a != b for a, b in zip(macs, macs[1:]))
        # elephant: the per-packet step declines, so every wire packet
        # keeps the pinned label TSO replicated from the segment
        pinned, cell = lb.label(2, 3, 1448, DIFFFLOW_THRESHOLD + 1, 0)
        assert pinned in LABELS and cell == 1
        assert lb.spray(2, 3) is None

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            DiffFlow(threshold=0)


# --- RepFlow: disjoint copies and the byte ledger ----------------------------


class TestRepFlowPaths:
    @settings(max_examples=50, deadline=None)
    @given(n_labels=st.integers(min_value=2, max_value=8),
           seed=st.integers(0, 2**16))
    def test_replica_rides_a_different_tree(self, n_labels, seed):
        lb = VSwitch(0, RepFlow(), random.Random(seed))
        lb.set_schedule(3, list(range(2001, 2001 + n_labels)))
        lb.pair(10, 11)
        primary, replica = seg(lb, flow=10), seg(lb, flow=11)
        assert primary != replica
        # sticky: both copies keep their pick for every later segment
        assert seg(lb, flow=11, seq=1448, end=2 * 1448) == replica


@settings(max_examples=6, deadline=None)
@given(size=st.integers(min_value=1, max_value=100 * KB))
def test_repflow_byte_conservation_despite_duplication(size):
    """Received payload == flow size: the winner's bytes are the
    delivery, the loser's are suppressed duplicates — a distinct
    ledger entry, never double-counted."""
    tb = Testbed(TestbedConfig(scheme="repflow", n_spines=2, n_leaves=2,
                               hosts_per_leaf=2, seed=1))
    app = tb.add_elephant(0, 2, size_bytes=size)
    tb.run(msec(20))
    assert app.winner is not None, "copy never completed"
    assert app.delivered_bytes() == size
    by_flow = app.delivered_by_flow()
    (leader,) = app.winner.flow_ids()
    (loser,) = [f for f in app.flow_ids() if f != leader]
    assert by_flow[leader] == size
    assert by_flow[loser] == 0
    # the suppressed duplicate is exactly what the receiver actually
    # saw of the losing copy, and the ledger splits without overlap
    loser_rx = delivered_for(tb.hosts[2], loser)
    assert app.dup_suppressed_bytes == loser_rx
    total_rx = sum(delivered_for(tb.hosts[2], f) for f in app.flow_ids())
    assert app.delivered_bytes() + app.dup_suppressed_bytes == total_rx


def test_repflow_replicates_only_mice():
    tb = Testbed(TestbedConfig(scheme="repflow", n_spines=2, n_leaves=2,
                               hosts_per_leaf=2, seed=1))
    assert len(tb.add_elephant(0, 2, size_bytes=50 * KB).flow_ids()) == 2
    assert len(tb.add_elephant(1, 3, size_bytes=2_000_000).flow_ids()) == 1
    # unbounded transfers cannot race to completion
    assert len(tb.add_elephant(0, 3).flow_ids()) == 1


@pytest.fixture
def repflow3():
    """A test-local scheme whose transport is a 3-copy race: the whole
    definition is one TRANSPORTS row plus a registration — the seam
    ROADMAP item 3 asks for, with no engine or harness edits."""
    from repro.experiments import schemes
    from repro.host.app import RaceApp

    schemes.TRANSPORTS["race3"] = lambda tb, src, dst, size, start, done: (
        RaceApp(tb, src, dst, size, start, done, copies=3))
    schemes.register(schemes.Scheme(
        name="repflow3", transport="race3",
        policy=lambda cfg: RepFlow()))
    yield "repflow3"
    del schemes._REGISTRY["repflow3"], schemes.TRANSPORTS["race3"]
    del schemes._REGISTERED_BY["repflow3"]


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
def test_new_transport_is_one_table_row_at_both_fidelities(repflow3,
                                                           fidelity):
    size = 60 * KB
    tb = Testbed(TestbedConfig(scheme=repflow3, n_spines=2, n_leaves=2,
                               hosts_per_leaf=2, seed=1, fidelity=fidelity,
                               validate=True))
    done = []
    app = tb.add_elephant(0, 2, size_bytes=size, on_complete=done.append)
    mice = tb.add_mice(1, 3, size_bytes=size, interval_ns=msec(1),
                       stop_ns=msec(2))
    tb.run(msec(20))
    assert tb.last_invariant_report.ok
    assert len(app.flow_ids()) == 3 and len(mice.flow_ids()) == 2 * 3
    # first finisher wins, exactly once, and only its bytes count
    assert done == [app] and app.winner in app.copies
    assert app.fct_ns == min(c.fct_ns for c in app.copies)
    assert app.delivered_bytes() == size
    assert app.delivered_by_flow()[app.winner.flow_ids()[0]] == size
    assert app.dup_suppressed_bytes > 0
    assert len(mice.fcts_ns) == 2 and mice.delivered_bytes() == 2 * size
    assert mice.dup_suppressed_bytes > 0


# --- the policy seam: a scheme the old interface made awkward ------------------


class HostHashedRoutes(Policy):
    """Host-stamped source routing (Nakamura et al.'s host-driven path
    choice): the *sender* cuts Algorithm-1 flowcells and hashes (flow
    key, cell) onto a tree — ``presto_ecmp``'s per-cell decision moved
    from the leaf to the edge, so the label fixes the whole route."""

    def __init__(self, cell_bytes):
        self.cell_bytes = cell_bytes

    def __call__(self, st, n, nbytes, end_seq, now, rng):
        if st.pin < 0:
            st.pin = rng.randrange(1 << 32)  # this flow's hash key
        flowcell(st, nbytes, n, self.cell_bytes, rng)
        return hash((st.pin, st.cell)) % n, st.cell  # ints: no hash salt


@pytest.fixture
def host_hashed():
    """Registered here and only here: the seam ROADMAP item 2 asks for
    is one ``register(Scheme(...))`` — no engine, NIC or harness edit."""
    from repro.experiments import schemes

    name = "host_hashed_routes"
    schemes.register(schemes.Scheme(
        name=name, gro="presto",
        policy=lambda cfg: HostHashedRoutes(cfg.flowcell_bytes)))
    yield name
    del schemes._REGISTRY[name], schemes._REGISTERED_BY[name]


def test_a_new_policy_runs_at_both_fidelities_with_no_src_edit(host_hashed):
    size = 4 * 1024 * KB
    shares = {}
    for fidelity in ("packet", "flow"):
        tb = Testbed(TestbedConfig(scheme=host_hashed, n_spines=2, n_leaves=2,
                                   hosts_per_leaf=2, seed=3, validate=True,
                                   fidelity=fidelity))
        # one elephant out of each leaf, so each has its uplinks to
        # itself and bytes per uplink are bytes per label
        apps = [tb.add_elephant(0, 2, size_bytes=size),
                tb.add_elephant(3, 1, size_bytes=size)]
        tb.run(msec(40))
        assert tb.last_invariant_report.ok
        # byte conservation: every transfer delivered exactly its size
        assert [a.delivered_bytes() for a in apps] == [size, size]
        carried = tb.plane.counters().port_tx_bytes
        shares[fidelity] = [
            carried[f"{leaf}->S1"]
            / (carried[f"{leaf}->S1"] + carried[f"{leaf}->S2"])
            for leaf in ("L1", "L2")]
    # The same per-flow keys and cell ids hash onto the same trees at
    # either fidelity: 31 of 64 cells on tree 0 from L1, 30 of 64 from
    # L2 (round robin would say 32 and 32).  What differs is headers,
    # slow-start-sized first segments shifting the cell cuts, and the
    # other elephant's ACKs: per-label byte shares within 3 points.
    assert shares["flow"] == [31 / 64, 30 / 64]
    for packet, flow in zip(shares["packet"], shares["flow"]):
        assert abs(packet - flow) < 0.03, shares
    # ...and nothing under src/ has heard of it (what `git grep` says)
    for path in (Path(__file__).parent.parent / "src").rglob("*.py"):
        text = path.read_text().lower()
        assert host_hashed not in text and "hosthashedroutes" not in text


# --- elephant isolation: the label partition ---------------------------------


def split_labels(labels):
    """The reference partition the policy's index arithmetic is held to:
    (shared mice labels, dedicated elephant labels) over the schedule's
    distinct labels — the first ``ceil(n/2)`` shared, the rest
    dedicated; with fewer than two distinct labels both share it."""
    distinct = list(dict.fromkeys(labels))
    k = (len(distinct) + 1) // 2
    return distinct[:k], distinct[k:] or distinct


class TestSplitLabels:
    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.integers(0, 9), min_size=1, max_size=12))
    def test_partitions_distinct_labels(self, labels):
        """Mice cycle every shared label and nothing else; two promoted
        elephants take the first dedicated labels round-robin."""
        shared, dedicated = split_labels(labels)
        distinct = list(dict.fromkeys(labels))
        if len(distinct) < 2:
            # degraded fabric: everything shares the one tree
            assert shared == distinct and dedicated == distinct
        else:
            assert shared + dedicated == distinct
            assert shared and dedicated
        lb = VSwitch(0, ElephantIso(threshold=1 * KB, flowcell_bytes=1 * KB),
                     random.Random(1))
        lb.set_schedule(3, labels)
        mice = {seg(lb, flow=9 + i, seq=0, end=1 * KB)
                for i in range(40)}            # random first-touch cursors
        assert mice <= set(shared)
        walked = {seg(lb, flow=7, seq=i * 100, end=(i + 1) * 100)
                  for i in range(10)}          # one mouse, 1 KB: one cell
        assert len(walked) == 1 and walked <= set(shared)
        for slot, flow in enumerate((1, 2, 3)):
            seg(lb, flow=flow, seq=0, end=1 * KB)
            assert not is_elephant(lb, flow)
            macs = {seg(lb, flow=flow, seq=KB + i * KB, end=2 * KB + i * KB)
                    for i in range(6)}
            assert is_elephant(lb, flow)
            assert macs == {dedicated[slot % len(dedicated)]}


def test_elephant_iso_disjoint_trees_on_fat_tree_k4():
    """On the k=4 fat tree the positional split lands mice on uplink
    class 0 and elephants on class 1 — no shared fabric link anywhere
    (only the host access legs, which every tree must traverse)."""
    from repro.net.routing import tree_legs

    tb = Testbed(TestbedConfig(scheme="elephant_iso", topology="fat-tree:k=4",
                               seed=1))
    topo, trees = tb.topo, tb.controller.trees
    links = {}
    for tree in trees:
        used = set()
        for src_leaf in topo.tiers[0]:
            for dst_leaf in topo.tiers[0]:
                if src_leaf is not dst_leaf:
                    for port in tree_legs(topo, tree, src_leaf, dst_leaf):
                        used.add(port.link.name)
        links[tree.tree_id] = used
    for src in (0, 5, 15):
        lb = tb.hosts[src].lb
        for dst in range(len(tb.hosts)):
            if dst == src or topo.host_leaf[dst] is topo.host_leaf[src]:
                continue  # same-leaf pairs route on real MACs, not trees
            shared, dedicated = split_labels(lb.labels_for(dst))
            mice_links = set().union(
                *(links[shadow_mac_tree(m)] for m in shared))
            elephant_links = set().union(
                *(links[shadow_mac_tree(m)] for m in dedicated))
            assert not mice_links & elephant_links, (src, dst)


def test_elephant_iso_moves_detected_elephants_off_shared_trees():
    lb = make_lb(ElephantIso)
    shared, dedicated = split_labels(LABELS)
    offset, macs_before = 0, set()
    while offset <= lb.policy.threshold:
        mac = seg(lb, seq=offset, end=offset + 64 * KB)
        if not is_elephant(lb, 1):
            macs_before.add(mac)
        offset += 64 * KB
    assert is_elephant(lb, 1)
    assert macs_before <= set(shared)
    assert seg(lb, seq=offset, end=offset + 64 * KB) in dedicated


def test_elephant_iso_flowcells_stay_monotone_across_promotion():
    """One Algorithm-1 counter spans the mouse->elephant transition,
    so the segment-level flowcell sequence never decreases or skips
    (the ValidationProbe invariant)."""
    lb = make_lb(ElephantIso)
    cells, offset = [], 0
    for _ in range(40):
        cells.append(lb.label(1, 3, 48 * KB, offset + 48 * KB, 0)[1])
        offset += 48 * KB
    assert is_elephant(lb, 1)
    assert all(0 <= b - a <= 1 for a, b in zip(cells, cells[1:]))


# --- the tournament driver ---------------------------------------------------


def _cell(topology, workload, scheme, mean):
    from repro.experiments.tournament import TournamentCell

    return TournamentCell(
        topology=topology, workload=workload, scheme=scheme, seeds=(1,),
        flows_started=10, flows_completed=10, mean_fct_ns=mean,
        p50_fct_ns=mean, p99_fct_ns=mean, mean_elephant_fct_ns=None)


class TestTournamentRanking:
    def test_borda_ranking_orders_by_mean_place(self):
        from repro.experiments.tournament import rank_standings

        cells = [
            _cell("clos", "websearch", "presto", 100.0),
            _cell("clos", "websearch", "ecmp", 200.0),
            _cell("clos", "datamining", "presto", 300.0),
            _cell("clos", "datamining", "ecmp", 150.0),
            _cell("fat", "websearch", "presto", 90.0),
            _cell("fat", "websearch", "ecmp", 95.0),
        ]
        standings = rank_standings(cells, ("ecmp", "presto"))
        assert [s.scheme for s in standings] == ["presto", "ecmp"]
        assert standings[0].rank == 1 and standings[0].wins == 2
        assert standings[0].mean_rank == round(4 / 3, 4)

    def test_no_result_cells_place_last_and_ties_break_by_name(self):
        from repro.experiments.tournament import rank_standings

        cells = [
            _cell("clos", "websearch", "b", None),
            _cell("clos", "websearch", "a", None),
            _cell("clos", "websearch", "c", 50.0),
        ]
        standings = rank_standings(cells, ("a", "b", "c"))
        assert [s.scheme for s in standings] == ["c", "a", "b"]

    def test_ordering_checks_gate_trace_cells_only(self):
        from repro.experiments.tournament import ordering_checks

        cells = [
            _cell("clos:spines=4,leaves=4,hosts=4", "websearch",
                  "presto", 100.0),
            _cell("clos:spines=4,leaves=4,hosts=4", "websearch",
                  "ecmp", 120.0),
            _cell("clos:spines=4,leaves=4,hosts=4", "incast",
                  "presto", 500.0),
            _cell("clos:spines=4,leaves=4,hosts=4", "incast",
                  "ecmp", 100.0),
        ]
        checks = ordering_checks(cells)
        assert len(checks) == 1  # incast is never gated
        assert checks[0].ok and checks[0].ratio == pytest.approx(0.8333)

    def test_ordering_check_fails_when_presto_slower(self):
        from repro.experiments.tournament import ordering_checks

        cells = [
            _cell("fat-tree:k=4", "datamining", "presto", 200.0),
            _cell("fat-tree:k=4", "datamining", "ecmp", 100.0),
        ]
        (check,) = ordering_checks(cells)
        assert not check.ok and check.ratio == pytest.approx(2.0)

    def test_specs_reject_unknown_inputs(self):
        from repro.experiments.tournament import tournament_specs

        with pytest.raises(ValueError, match="unknown scheme"):
            tournament_specs(schemes=("nope",))
        with pytest.raises(ValueError, match="unknown workload"):
            tournament_specs(schemes=("ecmp",), workloads=("nope",))
        with pytest.raises(ValueError):
            tournament_specs(schemes=("ecmp",), topologies=("nope:k=4",))

    def test_registered_as_runner_sweep(self):
        from repro.runner.sweeps import SWEEPS

        assert "tournament" in SWEEPS
        flags = {p.flag for p in SWEEPS["tournament"].params}
        assert {"--topology", "--workloads", "--duration-ms"} <= flags
        assert SWEEPS["tournament"].artifact.path == "TOURNAMENT.json"


def test_tiny_tournament_is_deterministic(tmp_path):
    """The same grid twice — without a shared store — byte-identical
    JSON and a full set of standings/checks."""
    from repro.experiments.tournament import (
        render_markdown,
        run_tournament,
        tournament_json,
    )

    kwargs = dict(
        schemes=("ecmp", "presto"),
        topologies=("clos:spines=2,leaves=2,hosts=2",),
        workloads=("websearch",),
        seeds=(1,),
        duration_ns=msec(2),
    )
    first = run_tournament(**kwargs)
    second = run_tournament(**kwargs)
    assert tournament_json(first) == tournament_json(second)
    assert [s.scheme for s in first.standings] == ["presto", "ecmp"] or \
           [s.scheme for s in first.standings] == ["ecmp", "presto"]
    assert len(first.cells) == 2
    assert len(first.checks) == 1
    report = render_markdown(first)
    assert "## Standings" in report and "## Ordering checks" in report


def test_zoo_golden_fixtures_pin_tournament_cells():
    """Zoo goldens serialize FabricCellResult (a tournament cell);
    the legacy eight keep their scalability RunResult layout — the
    dispatch that guarantees their bytes never moved."""
    from repro.experiments.goldens import ZOO_SCHEMES
    from repro.experiments.schemes import scheme_names

    golden_dir = Path(__file__).parent / "golden"
    for scheme in scheme_names():
        payload = json.loads((golden_dir / f"{scheme}.json").read_text())
        kind = payload["__dataclass__"]
        if scheme in ZOO_SCHEMES:
            assert kind.endswith("FabricCellResult"), scheme
        else:
            assert kind.endswith("RunResult"), scheme


# --- tier 2: cross-fidelity parity ------------------------------------------

#: flow fidelity omits slow-start and queueing delay, so it is
#: absolutely faster; the band documents how far the engines may sit
#: apart on the clos seed cell (observed 4-8x across the zoo) while
#: still agreeing on workload shape (identical arrivals)
CROSS_FIDELITY_MAX_RATIO = 10.0


@pytest.mark.tier2
@pytest.mark.parametrize("scheme", ["diffflow", "repflow", "elephant_iso"])
def test_cross_fidelity_fct_parity(scheme):
    from repro.experiments.fabric_sweep import fabric_config, run_fabric_cell

    cells = {}
    for fidelity in ("packet", "flow"):
        cells[fidelity] = run_fabric_cell(
            fabric_config("clos:spines=4,leaves=4,hosts=4", scheme, 1,
                          fidelity),
            workload="websearch", duration_ns=msec(5), load_scale=2.0,
            drain_ns=msec(5))
    packet, flow = cells["packet"], cells["flow"]
    # the offered workload is engine-independent
    assert packet.flows_started == flow.flows_started
    assert packet.fct_summary["count"] and flow.fct_summary["count"]
    ratio = packet.fct_summary["mean"] / flow.fct_summary["mean"]
    assert 1.0 <= ratio <= CROSS_FIDELITY_MAX_RATIO, ratio

