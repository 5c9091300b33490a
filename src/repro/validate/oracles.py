"""Figure oracles: machine-checked, seed-robust claims per headline
paper result.

Each oracle is a :class:`~repro.runner.sweep.Sweep` (``python -m
repro.runner run fct_ordering --seeds 1,2,3 --jobs 4``) over a
scaled-down configuration of the existing experiment code (the same
``Testbed`` path the figures use) whose reducer is a verdict: it
asserts the paper's *qualitative* claim — orderings and bounds, never
exact numbers, so the verdicts survive re-seeding and scale changes —
and returns an :class:`~repro.validate.report.OracleReport`.  A failed
check makes ``runner run`` exit 1; a cell that crashes does not kill
the run, it surfaces as a failed ``jobs_completed`` check carrying the
error text:

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

An oracle that cannot run at flow fidelity, or on a fabric other than
its own, says so by what its ``fidelity``/``topology`` parameter
accepts.  Thresholds are deliberately loose (documented constants
below): a violated oracle means a *regression in the reproduced
physics*, not a tolerance misjudged by a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.common import (
    SCALE,
    fidelity_param,
    scaled_ns,
    topology_param,
)
from repro.experiments.fabric_sweep import fabric_config, run_fabric_cell
from repro.experiments.failure import failure_spec
from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.synthetic import run_synthetic_seed
from repro.metrics.reordering import ReorderTracker
from repro.metrics.stats import mean
from repro.runner import JobSpec
from repro.runner.sweep import Param, Sweep, seeds_param
from repro.units import msec
from repro.validate.report import OracleReport, report_table

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


# --- an oracle is a sweep whose reducer is a verdict -------------------------


def _packet_only(oracle: str, why: str) -> Param:
    """``fidelity`` for an oracle that taps packet-level machinery."""
    def coerce(fidelity: Optional[str]) -> Optional[str]:
        if fidelity == "flow":
            raise ValueError(f"{oracle} is packet-only: {why}")
        return fidelity

    return replace(fidelity_param(), coerce=coerce)


def _pinned(oracle: str, fabric: str) -> Param:
    """``topology`` for an oracle that replays one paper fabric."""
    def coerce(topology: Optional[str]) -> None:
        if topology is not None:
            raise ValueError(f"{oracle} is pinned to {fabric}; --topology "
                             f"does not apply")

    return Param("topology", None, "--topology",
                 help=f"rejected: this oracle is pinned to {fabric}",
                 coerce=coerce)


def oracle_sweep(
    name: str,
    figure: str,
    claim: str,
    schemes: Sequence[str],
    cell: Callable[[str, int, Dict[str, Any]], JobSpec],
    evaluate: Callable[[OracleReport, Dict[str, List[Any]], Dict[str, Any]],
                       None],
    fidelity: Param = fidelity_param(),
    topology: Param = topology_param(
        "fabric to rerun the claim on, e.g. 'fat-tree:k=4' (default: the "
        "oracle's own)"),
) -> Sweep:
    """One figure oracle: scheme x seed cells, and ``evaluate`` adding
    its checks to the report given ``{scheme: per-seed results}``."""

    def reduce(cells, p: Dict[str, Any]) -> OracleReport:
        report = OracleReport(oracle=name, figure=figure, seeds=p["seeds"])
        outcomes = [o for _, per_seed in cells for o in per_seed]
        failed = [o for o in outcomes if not o.ok]
        if failed:
            report.require(
                "jobs_completed", False,
                detail="; ".join(
                    f"{o.spec.display}: {o.error}" for o in failed),
                n_failed=len(failed), n_jobs=len(outcomes),
            )
        else:
            evaluate(report, {scheme: [o.result for o in per_seed]
                              for (scheme,), per_seed in cells}, p)
        return report

    return Sweep(
        name=name,
        description=f"oracle, {figure}: {claim}",
        params=(seeds_param((1, 2, 3)), SCALE, fidelity, topology),
        axes=(lambda p: schemes,),
        cell=cell,
        reduce=reduce,
        contain_failures=True,
        table=report_table,
        ok=lambda report: report.passed,
    )


# --- fct_ordering ------------------------------------------------------------


def _fct_cell(scheme: str, seed: int, p: Dict[str, Any]) -> JobSpec:
    # topology rides inside each cell's config, where the default (and
    # any 2-tier clos spec) normalizes to the hash-preserving None —
    # historic stride cells keep their cache keys.
    return JobSpec.make(
        run_synthetic_seed,
        cfg=TestbedConfig(scheme=scheme, seed=seed, fidelity=p["fidelity"],
                          topology=p["topology"]),
        label=f"validate/fct/{scheme}/seed{seed}",
        workload="stride",
        warm_ns=scaled_ns(FCT_WARM_NS, p["scale"]),
        measure_ns=scaled_ns(FCT_MEASURE_NS, p["scale"]),
        with_mice=True,
        mice_interval_ns=scaled_ns(FCT_MICE_INTERVAL_NS, p["scale"]),
    )


def _fct_evaluate(report: OracleReport, runs: Dict[str, List[Any]],
                  p: Dict[str, Any]) -> None:
    samples = {scheme: [f for run in runs[scheme] for f in run.mice_fcts_ns]
               for scheme in FCT_SCHEMES}
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


FCT_ORDERING = oracle_sweep(
    "fct_ordering", "Fig 9/16",
    f"Presto mean mice FCT < ECMP and within {FCT_OPTIMAL_TOLERANCE}x of "
    "Optimal under a saturating stride workload",
    FCT_SCHEMES, _fct_cell, _fct_evaluate,
)


# --- tournament_ordering -----------------------------------------------------


def _tournament_cell(scheme: str, seed: int, p: Dict[str, Any]) -> JobSpec:
    return JobSpec.make(
        run_fabric_cell,
        cfg=fabric_config(p["topology"] or TOURNAMENT_TOPOLOGY, scheme,
                          seed, p["fidelity"]),
        label=f"validate/tournament/{scheme}/seed{seed}",
        workload=TOURNAMENT_WORKLOAD,
        duration_ns=scaled_ns(TOURNAMENT_DURATION_NS, p["scale"]),
        load_scale=TOURNAMENT_LOAD_SCALE,
        drain_ns=scaled_ns(TOURNAMENT_DRAIN_NS, p["scale"]),
    )


def _tournament_evaluate(report: OracleReport, runs: Dict[str, List[Any]],
                         p: Dict[str, Any]) -> None:
    # count-weighted mean over seeds: cells carry P^2 summaries, not
    # raw FCT populations
    means_ms: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for scheme in TOURNAMENT_SCHEMES:
        total, n = 0.0, 0
        for run in runs[scheme]:
            summary = run.fct_summary
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


TOURNAMENT_ORDERING = oracle_sweep(
    "tournament_ordering", "Tournament",
    "Presto and RepFlow mean mice FCT below ECMP on a doubled-load "
    "websearch tournament cell",
    TOURNAMENT_SCHEMES, _tournament_cell, _tournament_evaluate,
    fidelity=_packet_only(
        "tournament_ordering",
        "RepFlow's first-finisher gain comes from collision queueing the "
        "fluid engine does not model (there, the duplicate's access-link "
        "cost is all that remains and the claim inverts)"),
)


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


def _reorder_cell(scheme: str, seed: int, p: Dict[str, Any]) -> JobSpec:
    return JobSpec.make(
        run_reorder_cell,
        cfg=reorder_config(scheme, seed),
        label=f"validate/reorder/{scheme}/seed{seed}",
        duration_ns=scaled_ns(REORDER_DURATION_NS, p["scale"]),
    )


def _reorder_evaluate(report: OracleReport, runs: Dict[str, List[Any]],
                      p: Dict[str, Any]) -> None:
    counts: Dict[str, List[int]] = {}
    pushed: Dict[str, int] = {}
    ooo: Dict[str, int] = {}
    for scheme, cells in runs.items():
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


GRO_REORDERING = oracle_sweep(
    "gro_reordering", "Fig 5/11",
    f"fraction of zero-out-of-order flowcells >= {PRESTO_ZERO_OOO_MIN} for "
    "Presto+GRO and strictly above per-packet spraying",
    REORDER_SCHEMES, _reorder_cell, _reorder_evaluate,
    fidelity=_packet_only(
        "gro_reordering",
        "it taps per-segment GRO delivery, which the fluid engine does "
        "not model"),
    topology=_pinned("gro_reordering", "the Fig 4b two-path fabric"),
)


# --- failover ----------------------------------------------------------------


def _failover_cell(scheme: str, seed: int, p: Dict[str, Any]) -> JobSpec:
    return failure_spec(
        FAILOVER_WORKLOAD, seed,
        scaled_ns(FAILOVER_WARM_NS, p["scale"]),
        scaled_ns(FAILOVER_MEASURE_NS, p["scale"]),
        p["fidelity"], label=f"validate/failover/seed{seed}")


def _failover_evaluate(report: OracleReport, runs: Dict[str, List[Any]],
                       p: Dict[str, Any]) -> None:
    results = runs["presto"]
    measure_ns = scaled_ns(FAILOVER_MEASURE_NS, p["scale"])
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


FAILOVER = oracle_sweep(
    "failover", "Fig 17/18",
    "failover restores throughput before the controller reacts; "
    f"post-reweight throughput >= {REBALANCE_MIN_FRACTION}x pre-fault",
    # the failure timeline is Presto's (see failure_spec)
    ("presto",), _failover_cell, _failover_evaluate,
    topology=_pinned("failover", "the 16-host Clos (it replays the "
                     "paper's L1->L4 timeline)"),
)
