"""Figure oracles: machine-checked, seed-robust claims per headline
paper result.

Each oracle runs a scaled-down configuration of the existing
experiment code (the same ``Testbed`` path the figures use) across a
seed sweep via :mod:`repro.runner`, then asserts the paper's
*qualitative* claim — orderings and bounds, never exact numbers, so
the verdicts survive re-seeding and scale changes:

``fct_ordering`` (Figs 9/16)
    Under a fabric-saturating stride workload with concurrent mice,
    Presto's mean mice FCT is strictly better than ECMP's and within a
    tolerance band of the non-blocking Optimal.

``gro_reordering`` (Figs 5/11)
    The fraction of flowcells delivered to TCP with zero out-of-order
    interleavings stays near one for Presto (flowcells + Presto GRO)
    and strictly beats per-packet spraying into the unmodified GRO.

``tournament_ordering`` (Tournament)
    On a doubled-load websearch tournament cell (see
    :mod:`repro.experiments.tournament`), Presto's and RepFlow's mean
    mice FCT both beat per-flow ECMP's — the relative ordering the
    related-work zoo exists to demonstrate.  Packet fidelity only:
    the collision queueing RepFlow hedges against is invisible to the
    fluid engine.

``failover`` (Figs 17/18)
    After a mid-run link failure: the control plane reacts; hardware
    failover restores throughput within a bound long before that
    reaction; the post-reweight phase recovers at least a floor
    fraction of pre-fault per-flow throughput.

Thresholds are deliberately loose (documented constants below): a
violated oracle means a *regression in the reproduced physics*, not a
tolerance misjudged by a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.failure import run_failure_timeline
from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.synthetic import run_synthetic_seed
from repro.metrics.reordering import ReorderTracker
from repro.metrics.stats import mean
from repro.runner import JobSpec, ref_of
from repro.runner.sweep import SweepOptions
from repro.units import msec, usec
from repro.validate.report import OracleReport

# --- thresholds (the qualitative claims, as numbers) -------------------------

#: Presto's mean mice FCT must stay within this factor of Optimal's
#: (paper: near-optimal; the band absorbs seed noise at reduced scale)
FCT_OPTIMAL_TOLERANCE = 2.0
#: fraction of flowcells TCP must see with zero out-of-order
#: interleavings under Presto + Presto GRO (paper Fig 5a: ~all)
PRESTO_ZERO_OOO_MIN = 0.9
#: ceiling on the fraction of segments TCP receives behind the highest
#: sequence already delivered, under Presto (loss retransmissions are
#: the only legitimate source, so near zero)
PRESTO_OOO_SEGMENTS_MAX = 0.05
#: post-reweight mean per-flow throughput floor, as a fraction of the
#: pre-fault symmetry phase (paper Fig 17: 3 of 4 trees stay usable)
REBALANCE_MIN_FRACTION = 0.6

# --- per-oracle base windows (multiplied by ``scale``) -----------------------

FCT_SCHEMES = ("presto", "ecmp", "optimal")
FCT_WARM_NS = msec(10)
FCT_MEASURE_NS = msec(20)
FCT_MICE_INTERVAL_NS = msec(2)

REORDER_SCHEMES = ("presto", "perpacket")
REORDER_DURATION_NS = msec(25)

FAILOVER_WORKLOAD = "L1->L4"
FAILOVER_WARM_NS = msec(8)
FAILOVER_MEASURE_NS = msec(12)

#: the tournament ordering claim is checked on a doubled-load
#: websearch cell: at 1x the access links dominate and the field
#: compresses; at 2x fabric collisions separate the schemes
TOURNAMENT_SCHEMES = ("ecmp", "presto", "repflow")
TOURNAMENT_TOPOLOGY = "clos:spines=4,leaves=4,hosts=4"
TOURNAMENT_WORKLOAD = "websearch"
TOURNAMENT_DURATION_NS = msec(5)
TOURNAMENT_DRAIN_NS = msec(5)
TOURNAMENT_LOAD_SCALE = 2.0


def _scaled_ns(base_ns: int, scale: float) -> int:
    """Scale a window, floored so a tiny test scale still simulates."""
    return max(int(base_ns * scale), usec(100))


# --- fct_ordering ------------------------------------------------------------


def _fct_specs(seeds: Sequence[int], scale: float,
               fidelity: Optional[str] = None,
               topology: Optional[str] = None) -> List[JobSpec]:
    # topology rides inside each cell's config, where the default (and
    # any 2-tier clos spec) normalizes to the hash-preserving None —
    # historic stride cells keep their cache keys.
    return [
        JobSpec.make(
            run_synthetic_seed,
            cfg=TestbedConfig(scheme=scheme, seed=seed, fidelity=fidelity,
                              topology=topology),
            label=f"validate/fct/{scheme}/seed{seed}",
            workload="stride",
            warm_ns=_scaled_ns(FCT_WARM_NS, scale),
            measure_ns=_scaled_ns(FCT_MEASURE_NS, scale),
            with_mice=True,
            mice_interval_ns=_scaled_ns(FCT_MICE_INTERVAL_NS, scale),
        )
        for scheme in FCT_SCHEMES
        for seed in seeds
    ]


def _fct_evaluate(seeds: Tuple[int, ...], scale: float,
                  results: List[Any]) -> OracleReport:
    report = OracleReport(oracle="fct_ordering", figure="Fig 9/16",
                          seeds=seeds)
    samples: Dict[str, List[int]] = {}
    it = iter(results)
    for scheme in FCT_SCHEMES:
        samples[scheme] = [f for _ in seeds for f in next(it).mice_fcts_ns]
    report.require(
        "mice_samples",
        all(samples[s] for s in FCT_SCHEMES),
        detail="every scheme must complete mice inside the run",
        **{f"n_{s}": len(samples[s]) for s in FCT_SCHEMES},
    )
    means_ms = {
        s: (mean(samples[s]) / 1e6 if samples[s] else float("inf"))
        for s in FCT_SCHEMES
    }
    report.require(
        "presto_beats_ecmp",
        means_ms["presto"] < means_ms["ecmp"],
        detail="mean mice FCT under a saturating stride workload",
        presto_ms=means_ms["presto"], ecmp_ms=means_ms["ecmp"],
    )
    report.require(
        "presto_near_optimal",
        means_ms["presto"] <= FCT_OPTIMAL_TOLERANCE * means_ms["optimal"],
        detail=f"mean mice FCT within {FCT_OPTIMAL_TOLERANCE}x of Optimal",
        presto_ms=means_ms["presto"], optimal_ms=means_ms["optimal"],
        tolerance=FCT_OPTIMAL_TOLERANCE,
    )
    return report


# --- tournament_ordering -----------------------------------------------------


def _tournament_specs(seeds: Sequence[int], scale: float,
                      fidelity: Optional[str] = None,
                      topology: Optional[str] = None) -> List[JobSpec]:
    # Packet fidelity is the point: RepFlow's hedge pays off against
    # hash-collision queueing, which the fluid engine's smooth rate
    # sharing never produces (there, the duplicate's access-link cost
    # is all that remains and the claim inverts).
    if fidelity == "flow":
        raise ValueError(
            "tournament_ordering is packet-only: RepFlow's first-"
            "finisher gain comes from collision queueing the fluid "
            "engine does not model")
    from repro.experiments.fabric_sweep import fabric_config, run_fabric_cell

    return [
        JobSpec.make(
            run_fabric_cell,
            cfg=fabric_config(topology or TOURNAMENT_TOPOLOGY, scheme,
                              seed, fidelity),
            label=f"validate/tournament/{scheme}/seed{seed}",
            workload=TOURNAMENT_WORKLOAD,
            duration_ns=_scaled_ns(TOURNAMENT_DURATION_NS, scale),
            load_scale=TOURNAMENT_LOAD_SCALE,
            drain_ns=_scaled_ns(TOURNAMENT_DRAIN_NS, scale),
        )
        for scheme in TOURNAMENT_SCHEMES
        for seed in seeds
    ]


def _tournament_evaluate(seeds: Tuple[int, ...], scale: float,
                         results: List[Any]) -> OracleReport:
    report = OracleReport(oracle="tournament_ordering", figure="Tournament",
                          seeds=seeds)
    # count-weighted mean over seeds: cells carry P^2 summaries, not
    # raw FCT populations
    means_ms: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    it = iter(results)
    for scheme in TOURNAMENT_SCHEMES:
        total, n = 0.0, 0
        for _ in seeds:
            summary = next(it).fct_summary
            count = summary.get("count") or 0
            if count and summary.get("mean") is not None:
                total += summary["mean"] * count
                n += count
        counts[scheme] = n
        means_ms[scheme] = (total / n / 1e6) if n else float("inf")
    report.require(
        "mice_samples",
        all(counts[s] for s in TOURNAMENT_SCHEMES),
        detail="every scheme must complete mice inside the run",
        **{f"n_{s}": counts[s] for s in TOURNAMENT_SCHEMES},
    )
    report.require(
        "presto_beats_ecmp",
        means_ms["presto"] < means_ms["ecmp"],
        detail="mean mice FCT on the doubled-load websearch cell",
        presto_ms=means_ms["presto"], ecmp_ms=means_ms["ecmp"],
    )
    report.require(
        "repflow_beats_ecmp",
        means_ms["repflow"] < means_ms["ecmp"],
        detail="replicated mice must win the race against collision "
               "queueing despite doubling their own access-link load",
        repflow_ms=means_ms["repflow"], ecmp_ms=means_ms["ecmp"],
    )
    return report


# --- gro_reordering ----------------------------------------------------------


@dataclass
class ReorderCell:
    """One (scheme, seed) reordering trial's raw evidence."""

    scheme: str
    seed: int
    #: per-flowcell interleave counts (Fig 5a; only meaningful for
    #: schemes that actually batch segments into flowcells)
    ooo_counts: List[int] = field(default_factory=list)
    pushed_segments: int = 0
    #: segments delivered to TCP behind the highest sequence already
    #: delivered for their flow — scheme-agnostic TCP-visible disorder
    ooo_segments: int = 0

    @property
    def frac_zero_ooo(self) -> float:
        if not self.ooo_counts:
            return 0.0
        return (sum(1 for c in self.ooo_counts if c == 0)
                / len(self.ooo_counts))


class _SeqOrderTap:
    """Segment tap: feed the ReorderTracker and count sequence-order
    violations as TCP would see them."""

    def __init__(self, inner):
        self.inner = inner
        self._hi: Dict[int, int] = {}
        self.total = 0
        self.ooo = 0

    def __call__(self, seg) -> None:
        self.inner(seg)
        hi = self._hi.get(seg.flow_id)
        self.total += 1
        if hi is not None and seg.seq < hi:
            self.ooo += 1
        if hi is None or seg.end_seq > hi:
            self._hi[seg.flow_id] = seg.end_seq


def reorder_config(scheme: str, seed: int) -> TestbedConfig:
    """The Fig 4b two-path fabric, receive window pinned to 1 MB so the
    path queues breathe enough to reorder (see
    :func:`repro.experiments.gro_micro.run_fig5`)."""
    cfg = TestbedConfig(scheme=scheme, n_spines=2, n_leaves=2,
                        hosts_per_leaf=2, seed=seed)
    return replace(cfg, tcp=replace(cfg.tcp, rcv_wnd=1024 * 1024))


def run_reorder_cell(cfg: TestbedConfig,
                     duration_ns: int = REORDER_DURATION_NS) -> ReorderCell:
    """One (scheme, seed) trial — the picklable job unit."""
    tb = Testbed(cfg)
    trackers = []
    taps = []
    for dst in (2, 3):
        tracker = ReorderTracker()
        tap = _SeqOrderTap(tracker.observe)
        tb.hosts[dst].segment_tap = tap
        trackers.append(tracker)
        taps.append(tap)
    tb.add_elephant(0, 2)
    tb.add_elephant(1, 3)
    tb.run(duration_ns)
    return ReorderCell(
        scheme=cfg.scheme,
        seed=cfg.seed,
        ooo_counts=[c for t in trackers for c in t.out_of_order_counts()],
        pushed_segments=sum(tap.total for tap in taps),
        ooo_segments=sum(tap.ooo for tap in taps),
    )


def _reorder_specs(seeds: Sequence[int], scale: float,
                   fidelity: Optional[str] = None,
                   topology: Optional[str] = None) -> List[JobSpec]:
    if fidelity == "flow":
        raise ValueError(
            "gro_reordering is packet-only: it taps per-segment GRO "
            "delivery, which the fluid engine does not model")
    if topology is not None:
        raise ValueError(
            "gro_reordering pins the Fig 4b two-path fabric; "
            "--topology does not apply")
    return [
        JobSpec.make(
            run_reorder_cell,
            cfg=reorder_config(scheme, seed),
            label=f"validate/reorder/{scheme}/seed{seed}",
            duration_ns=_scaled_ns(REORDER_DURATION_NS, scale),
        )
        for scheme in REORDER_SCHEMES
        for seed in seeds
    ]


def _reorder_evaluate(seeds: Tuple[int, ...], scale: float,
                      results: List[Any]) -> OracleReport:
    report = OracleReport(oracle="gro_reordering", figure="Fig 5/11",
                          seeds=seeds)
    counts: Dict[str, List[int]] = {}
    pushed: Dict[str, int] = {}
    ooo: Dict[str, int] = {}
    it = iter(results)
    for scheme in REORDER_SCHEMES:
        cells = [next(it) for _ in seeds]
        counts[scheme] = [c for cell in cells for c in cell.ooo_counts]
        pushed[scheme] = sum(cell.pushed_segments for cell in cells)
        ooo[scheme] = sum(cell.ooo_segments for cell in cells)
    report.require(
        "segments_observed",
        all(pushed[s] for s in REORDER_SCHEMES),
        detail="both schemes must deliver observable segments",
        **{f"n_{s}": pushed[s] for s in REORDER_SCHEMES},
    )
    frac_zero_presto = (
        (sum(1 for c in counts["presto"] if c == 0) / len(counts["presto"]))
        if counts["presto"] else 0.0)
    report.require(
        "presto_flowcells_in_order",
        frac_zero_presto >= PRESTO_ZERO_OOO_MIN,
        detail="fraction of flowcells TCP sees with zero out-of-order "
               "interleavings under Presto + Presto GRO",
        frac_zero_presto=frac_zero_presto,
        threshold=PRESTO_ZERO_OOO_MIN,
    )
    frac_ooo = {
        s: (ooo[s] / pushed[s] if pushed[s] else 1.0)
        for s in REORDER_SCHEMES
    }
    report.require(
        "presto_ooo_bounded",
        frac_ooo["presto"] <= PRESTO_OOO_SEGMENTS_MAX,
        detail="fraction of segments TCP receives behind the highest "
               "delivered sequence under Presto + Presto GRO",
        frac_ooo_presto=frac_ooo["presto"],
        threshold=PRESTO_OOO_SEGMENTS_MAX,
    )
    report.require(
        "presto_beats_perpacket",
        frac_ooo["presto"] < frac_ooo["perpacket"],
        detail="per-packet spraying into the stock GRO must expose "
               "strictly more TCP-visible disorder than Presto's "
               "flowcells",
        frac_ooo_presto=frac_ooo["presto"],
        frac_ooo_perpacket=frac_ooo["perpacket"],
    )
    return report


# --- failover ----------------------------------------------------------------


def _failover_specs(seeds: Sequence[int], scale: float,
                    fidelity: Optional[str] = None,
                    topology: Optional[str] = None) -> List[JobSpec]:
    if topology is not None:
        raise ValueError(
            "failover replays the paper's L1->L4 timeline on the "
            "16-host Clos; --topology does not apply")
    specs = []
    for seed in seeds:
        kwargs = dict(
            workload=FAILOVER_WORKLOAD,
            seed=seed,
            warm_ns=_scaled_ns(FAILOVER_WARM_NS, scale),
            measure_ns=_scaled_ns(FAILOVER_MEASURE_NS, scale),
        )
        # The explicit cfg joins the kwargs only when fidelity is set,
        # so default runs keep their historical content hashes (cache
        # keys in the ResultStore stay warm).  It rides in kwargs —
        # never the JobSpec ``cfg`` slot, whose value is passed as the
        # first positional argument (``workload`` here).
        if fidelity is not None:
            kwargs["cfg"] = TestbedConfig(
                scheme="presto", seed=seed, fidelity=fidelity)
        specs.append(JobSpec(
            fn=ref_of(run_failure_timeline),
            kwargs=kwargs,
            label=f"validate/failover/seed{seed}",
        ))
    return specs


def _failover_evaluate(seeds: Tuple[int, ...], scale: float,
                       results: List[Any]) -> OracleReport:
    report = OracleReport(oracle="failover", figure="Fig 17/18",
                          seeds=seeds)
    measure_ns = _scaled_ns(FAILOVER_MEASURE_NS, scale)
    # Hardware failover engages failover_latency after the fault; the
    # timeline samples in measure/6 windows, so allow the latency plus
    # half a phase for TCP to ramp back through the detection grid.
    failover_bound_ns = msec(2) + measure_ns // 2
    report.require(
        "controller_reacted",
        all(tl.reaction_ns is not None for tl in results),
        detail="the modeled control plane must push reweighted "
               "schedules in-sim",
        n_reacted=sum(1 for tl in results if tl.reaction_ns is not None),
        n_runs=len(results),
    )
    failover_times = [tl.convergence.time_to_failover_ns for tl in results]
    report.require(
        "failover_within_bound",
        all(t is not None and t <= failover_bound_ns
            for t in failover_times),
        detail="throughput back at 80% of the failover plateau before "
               "the controller reacts, within the hardware bound",
        worst_ms=max((t for t in failover_times if t is not None),
                     default=-1) / 1e6,
        bound_ms=failover_bound_ns / 1e6,
        n_missing=sum(1 for t in failover_times if t is None),
    )
    rebalance_times = [tl.convergence.time_to_rebalance_ns for tl in results]
    report.require(
        "rebalance_converges",
        all(t is not None for t in rebalance_times),
        detail="after the reweight push, throughput must reach 80% of "
               "the weighted plateau",
        n_missing=sum(1 for t in rebalance_times if t is None),
    )
    ratios = []
    for tl in results:
        symmetry = tl.phases["symmetry"].mean_flow_tput_bps
        weighted = tl.phases["weighted"].mean_flow_tput_bps
        ratios.append(weighted / symmetry if symmetry > 0 else 0.0)
    report.require(
        "post_rebalance_throughput",
        min(ratios, default=0.0) >= REBALANCE_MIN_FRACTION,
        detail="weighted-phase mean per-flow throughput vs the "
               "pre-fault symmetry phase (3 of 4 trees survive)",
        worst_fraction=min(ratios, default=0.0),
        threshold=REBALANCE_MIN_FRACTION,
    )
    return report


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class OracleDef:
    """One figure oracle: a spec builder plus its verdict function."""

    name: str
    figure: str
    description: str
    build_specs: Callable[..., List[JobSpec]]
    evaluate: Callable[[Tuple[int, ...], float, List[Any]], OracleReport]
    #: oracles that tap packet-level machinery (GRO, segment order)
    #: cannot run at fidelity="flow"
    packet_only: bool = False
    #: oracles pinned to a specific paper fabric ignore --topology;
    #: with --all + --topology they are skipped, named explicitly they
    #: raise
    fixed_topology: bool = False


ORACLES: Dict[str, OracleDef] = {
    od.name: od
    for od in (
        OracleDef(
            name="fct_ordering",
            figure="Fig 9/16",
            description="Presto mean mice FCT < ECMP and within "
                        f"{FCT_OPTIMAL_TOLERANCE}x of Optimal under a "
                        "saturating stride workload",
            build_specs=_fct_specs,
            evaluate=_fct_evaluate,
        ),
        OracleDef(
            name="tournament_ordering",
            figure="Tournament",
            description="Presto and RepFlow mean mice FCT below ECMP "
                        "on a doubled-load websearch tournament cell",
            build_specs=_tournament_specs,
            evaluate=_tournament_evaluate,
            packet_only=True,
        ),
        OracleDef(
            name="gro_reordering",
            figure="Fig 5/11",
            description="fraction of zero-out-of-order flowcells "
                        f">= {PRESTO_ZERO_OOO_MIN} for Presto+GRO and "
                        "strictly above per-packet spraying",
            build_specs=_reorder_specs,
            evaluate=_reorder_evaluate,
            packet_only=True,
            fixed_topology=True,
        ),
        OracleDef(
            name="failover",
            figure="Fig 17/18",
            description="failover restores throughput before the "
                        "controller reacts; post-reweight throughput "
                        f">= {REBALANCE_MIN_FRACTION}x pre-fault",
            build_specs=_failover_specs,
            evaluate=_failover_evaluate,
            fixed_topology=True,
        ),
    )
}


def oracle_names() -> Tuple[str, ...]:
    return tuple(ORACLES)


def get_oracle(name: str) -> OracleDef:
    oracle = ORACLES.get(name)
    if oracle is None:
        raise ValueError(
            f"unknown oracle {name!r}; pick from {', '.join(ORACLES)}")
    return oracle


def run_oracles(
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (1, 2, 3),
    scale: float = 1.0,
    *,
    fidelity: Optional[str] = None,
    topology: Optional[str] = None,
    **execution: Any,
) -> List[OracleReport]:
    """Run the named oracles (default: all) across ``seeds``.

    Every (oracle, scheme, seed) cell is one runner job, so the whole
    suite fans out over ``jobs`` workers and resumes from ``store``
    (``execution`` is any :class:`~repro.runner.sweep.SweepOptions`
    field).
    A cell that errors does not kill the suite: its oracle reports a
    failed ``jobs_completed`` check carrying the error text.

    ``fidelity="flow"`` runs the oracles on the fluid engine.  With the
    default oracle set, packet-only oracles (``gro_reordering``) are
    skipped; naming one explicitly at that fidelity raises.

    ``topology`` reruns the topology-agnostic oracles (``fct_ordering``)
    on another fabric, e.g. ``"fat-tree:k=4"``.  Oracles pinned to a
    paper fabric are skipped under the default set and raise when named
    explicitly.
    """
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    defs = [get_oracle(n) for n in (names or oracle_names())]
    if names is None and fidelity == "flow":
        defs = [od for od in defs if not od.packet_only]
    if names is None and topology is not None:
        defs = [od for od in defs if not od.fixed_topology]
    seeds = tuple(seeds)
    batches = [(od, od.build_specs(seeds, scale, fidelity, topology))
               for od in defs]
    outcomes = SweepOptions(**execution).outcomes(
        [spec for _, specs in batches for spec in specs])
    reports: List[OracleReport] = []
    cursor = 0
    for od, specs in batches:
        batch = outcomes[cursor:cursor + len(specs)]
        cursor += len(specs)
        failed = [o for o in batch if not o.ok]
        if failed:
            report = OracleReport(oracle=od.name, figure=od.figure,
                                  seeds=seeds)
            report.require(
                "jobs_completed", False,
                detail="; ".join(
                    f"{o.spec.display}: {o.error}" for o in failed),
                n_failed=len(failed), n_jobs=len(specs),
            )
            reports.append(report)
            continue
        reports.append(od.evaluate(seeds, scale, [o.result for o in batch]))
    return reports
