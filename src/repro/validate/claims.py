"""The paper's claims, each written down once.

A claim is one row of :data:`CLAIMS`: an id, the figure it reproduces,
the registered sweep that measures it, the parameters that sweep runs
at, and a ``check(payload, verdict)`` stating the paper's qualitative
result — who wins, by roughly what factor — as named
``verdict.require(name, passed, **observed)`` calls that record the
numbers they compared.  Thresholds hold at the row's parameters only
(EXPERIMENTS.md "Time scaling"); a violated claim means a regression
in the reproduced physics, not a tolerance misjudged by a few percent.

``python -m repro.runner run claims [--claims fig13,failover]`` runs
the selected rows' sweeps with the caller's store, ``--jobs`` and
``--service`` (:data:`CLAIMS_SWEEP`), prints one line per check and
exits 1 if one fails; a row whose sweep raises gets a failed
``jobs_completed`` check carrying the error, and the other rows are
still judged.  ``tests/test_paper_shape.py`` runs each row the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.experiments.common import each_in, mice_vs_ecmp
from repro.experiments.failure import STAGES, stage_rtts_ns, stage_tput_bps
from repro.metrics.stats import mean, percentile
from repro.runner.sweep import Param, Sweep, SweepOptions
from repro.units import MB, msec, usec


@dataclass
class Check:
    """One named requirement with its evidence."""

    name: str
    passed: bool
    #: the numbers the requirement compared (thresholds included), so a
    #: failure is diagnosable from ``runner_claims.json`` alone
    observed: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Verdict:
    """One claim's checks, as its row's check recorded them."""

    claim: str
    figure: str
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def require(self, name: str, passed: Any, **observed: Any) -> None:
        self.checks.append(Check(name, bool(passed), observed))

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]


def verdict_table(verdicts: List[Verdict]) -> Tuple[List[str], list]:
    """One row per check, its verdict and the numbers it compared."""
    return ["claim", "figure", "check", "verdict", "observed"], [
        [verdict.claim, verdict.figure, check.name,
         "PASS" if check.passed else "FAIL",
         " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                  for k, v in sorted(check.observed.items()))]
        for verdict in verdicts for check in verdict.checks]


@dataclass(frozen=True)
class Claim:
    """One row: ``check(SWEEPS[sweep].run(**params), verdict)``."""

    id: str
    figure: str
    sweep: str
    params: Mapping[str, Any]
    check: Callable[[Any, Verdict], None]


def _gbps(bps: float) -> float:
    return bps / 1e9


# --- the paper's figures, tables and ablations -------------------------------


def _fig1(results, v: Verdict) -> None:
    # Paper: up to 3 competing flows, >50% of the transfer in one flowlet.
    for n in (0, 1, 2, 3):
        v.require(f"head_flowlet_over_half_{n}_competing",
                  results[n].head_fraction() > 0.5,
                  head_fraction=results[n].head_fraction())
    # And flowlet sizes are wildly non-uniform: top flowlet dwarfs the
    # 10th — or there is no 10th (n_flowlets says which held).
    sizes = results[2].flowlet_sizes  # descending
    tenth = sizes[9] if len(sizes) >= 10 else 0
    v.require("top_dwarfs_tenth", len(sizes) < 10 or sizes[0] > 10 * tenth,
              n_flowlets=len(sizes), top_bytes=sizes[0] if sizes else 0,
              tenth_bytes=tenth)


def _fig5(results, v: Verdict) -> None:
    presto, official = results["presto"], results["official"]
    # Fig 5a: Presto GRO masks reordering completely; official does not.
    v.require("presto_masks_reordering", presto.frac_zero_ooo >= 0.99,
              frac_zero_ooo=presto.frac_zero_ooo)
    v.require("official_exposes_reordering", official.frac_zero_ooo < 0.9,
              frac_zero_ooo=official.frac_zero_ooo)
    # Fig 5b: Presto pushes much larger segments.
    sizes = {gro: mean(res.segment_sizes) for gro, res in results.items()}
    v.require("presto_larger_segments",
              sizes["presto"] > 1.5 * sizes["official"],
              presto_bytes=sizes["presto"], official_bytes=sizes["official"])
    # S5 text: ~2x throughput gap (9.3 vs 4.6 Gbps).
    v.require("presto_throughput_gap",
              presto.throughput_bps > 1.6 * official.throughput_bps,
              presto_gbps=_gbps(presto.throughput_bps),
              official_gbps=_gbps(official.throughput_bps))
    # Reordering causes spurious fast retransmits only under official GRO.
    v.require("presto_no_fast_retransmits", presto.fast_retransmits == 0,
              fast_retransmits=presto.fast_retransmits)
    v.require("official_fast_retransmits", official.fast_retransmits > 0,
              fast_retransmits=official.fast_retransmits)


def _fig6(result, v: Verdict) -> None:
    # Paper: ~6% overhead; accept anything modest and nonnegative-ish.
    v.require("overhead_modest", -0.02 <= result.overhead <= 0.15,
              overhead=result.overhead)
    # Both runs are actually doing 9+ Gbps worth of work.
    v.require("official_busy", result.mean_util["official"] > 0.3,
              official_util=result.mean_util["official"])


def _fig7_8_9(grid, v: Verdict) -> None:
    presto, optimal, ecmp = ({p.n_paths: p for p in grid[scheme]}
                             for scheme in ("presto", "optimal", "ecmp"))
    for n in (2, 4, 8):
        p, o, e = presto[n], optimal[n], ecmp[n]
        # Fig 7: Presto within a few percent of Optimal; ECMP clearly below.
        v.require(f"presto_near_optimal_{n}paths",
                  p.mean_tput_bps > 0.9 * o.mean_tput_bps,
                  presto_gbps=_gbps(p.mean_tput_bps),
                  optimal_gbps=_gbps(o.mean_tput_bps))
        v.require(f"ecmp_below_presto_{n}paths",
                  e.mean_tput_bps < 0.95 * p.mean_tput_bps,
                  ecmp_gbps=_gbps(e.mean_tput_bps),
                  presto_gbps=_gbps(p.mean_tput_bps))
        # Fig 9b: Presto/Optimal near-perfect fairness, ECMP worse.
        v.require(f"presto_fair_{n}paths", p.fairness > 0.97, jain=p.fairness)
        v.require(f"optimal_fair_{n}paths", o.fairness > 0.99,
                  jain=o.fairness)
        v.require(f"ecmp_less_fair_{n}paths", e.fairness < p.fairness,
                  ecmp_jain=e.fairness, presto_jain=p.fairness)
        # Fig 9a: Presto's loss is tiny.
        v.require(f"presto_loss_tiny_{n}paths", p.loss_rate < 0.005,
                  loss=p.loss_rate)


def _fig10_12(grid, v: Verdict) -> None:
    by = {s: {p.n_pairs: p for p in pts} for s, pts in grid.items()}
    # 1x oversubscription: non-blocking, Presto ~= Optimal.
    v.require("presto_near_optimal_2pairs",
              by["presto"][2].mean_tput_bps
              > 0.9 * by["optimal"][2].mean_tput_bps,
              presto_gbps=_gbps(by["presto"][2].mean_tput_bps),
              optimal_gbps=_gbps(by["optimal"][2].mean_tput_bps))
    # 4x: Presto converges near the physical fair share (2 x 10G / 8
    # pairs = 2.5 Gbps; the paper's "Optimal" keeps dedicated links and
    # stays flat, so fair share is computed from the fabric).
    fair = 2 * 10e9 / 8
    v.require("presto_near_fair_share_8pairs",
              by["presto"][8].mean_tput_bps > 0.7 * fair,
              presto_gbps=_gbps(by["presto"][8].mean_tput_bps),
              fair_gbps=_gbps(fair))
    # ECMP is the weakest under *moderate* congestion (paper S5).
    others = min(by[s][4].mean_tput_bps
                 for s in ("presto", "mptcp", "optimal"))
    v.require("ecmp_weakest_4pairs",
              by["ecmp"][4].mean_tput_bps <= others * 1.05,
              ecmp_gbps=_gbps(by["ecmp"][4].mean_tput_bps),
              weakest_other_gbps=_gbps(others))
    # Fairness: Presto ~1 at moderate load, ECMP behind.
    v.require("presto_fair_4pairs", by["presto"][4].fairness > 0.9,
              jain=by["presto"][4].fairness)
    v.require("ecmp_unfair_4pairs", by["ecmp"][4].fairness < 0.98,
              jain=by["ecmp"][4].fairness)


def _fig13(results, v: Verdict) -> None:
    presto, f100, f500 = (results[s].mean_tput_bps for s in (
        "presto", "flowlet100us", "flowlet500us"))
    gbps = dict(presto_gbps=_gbps(presto), flowlet500_gbps=_gbps(f500),
                flowlet100_gbps=_gbps(f100))
    # Fig 13 ordering: presto > flowlet500 > flowlet100 on throughput.
    v.require("throughput_order", presto > f500 > f100, **gbps)
    # The 100us timer costs dearly (paper: 4.3 vs 9.3 Gbps).
    v.require("flowlet100_costs_dearly", f100 < 0.75 * presto, **gbps)


def _fig14(results, v: Verdict) -> None:
    shadow = results["presto"].mean_tput_bps
    perhop = results["presto_ecmp"].mean_tput_bps
    # Paper: shadow-MAC round robin beats per-hop hashing (9.3 vs 8.9
    # Gbps) because randomized placement piles flowcells onto one link
    # transiently.  The simulator amplifies the gap: the transient skew
    # also outlives the GRO hold timeout more often, costing spurious
    # fast retransmits (see EXPERIMENTS.md).  Direction must hold.
    v.require("shadow_macs_beat_perhop", shadow > 1.05 * perhop,
              presto_gbps=_gbps(shadow), presto_ecmp_gbps=_gbps(perhop))


def _fig15_16(grid, v: Verdict) -> None:
    def tput(scheme, workload):
        return grid[(scheme, workload)].mean_elephant_tput_bps

    for workload in ("random", "stride", "bijection"):
        presto, optimal, ecmp = (tput(s, workload)
                                 for s in ("presto", "optimal", "ecmp"))
        # Fig 15: Presto tracks Optimal (paper: within 1-4%; at simulator
        # scale with mice cross-traffic the gap widens to 10-20% — see
        # EXPERIMENTS.md) and clearly beats ECMP on non-shuffle loads.
        v.require(f"presto_tracks_optimal_{workload}",
                  presto > 0.78 * optimal, presto_gbps=_gbps(presto),
                  optimal_gbps=_gbps(optimal))
        v.require(f"presto_beats_ecmp_{workload}", presto > 1.15 * ecmp,
                  presto_gbps=_gbps(presto), ecmp_gbps=_gbps(ecmp))
    # Shuffle: receiver-bound, schemes comparable (within 25%).
    sh_p, sh_e = tput("presto", "shuffle"), tput("ecmp", "shuffle")
    v.require("shuffle_comparable", abs(sh_p - sh_e) / max(sh_p, sh_e) < 0.4,
              presto_gbps=_gbps(sh_p), ecmp_gbps=_gbps(sh_e))
    # Fig 16: ECMP's stride mice tail far worse than Presto's.
    p_tail, e_tail = (percentile(grid[(s, "stride")].mice_fcts_ns, 99)
                      for s in ("presto", "ecmp"))
    v.require("ecmp_stride_mice_tail", e_tail > 1.5 * p_tail,
              presto_p99_ms=p_tail / 1e6, ecmp_p99_ms=e_tail / 1e6)


def _fig17(grid, v: Verdict) -> None:
    for workload in ("L1->L4", "L4->L1", "stride", "bijection"):
        sym, fo, wt = (stage_tput_bps(grid[workload], stage)
                       for stage in STAGES)
        # symmetry is (near) line rate
        v.require(f"symmetry_line_rate_{workload}", sym > 7e9,
                  symmetry_gbps=_gbps(sym))
        # failover keeps the network connected (nonzero, degraded)
        v.require(f"failover_connected_{workload}", fo > 0.5e9,
                  failover_gbps=_gbps(fo))
        v.require(f"failover_degraded_{workload}", fo < sym,
                  failover_gbps=_gbps(fo), symmetry_gbps=_gbps(sym))
        # the weighted stage recovers over raw failover
        v.require(f"weighted_recovers_{workload}", wt > 0.8 * fo,
                  weighted_gbps=_gbps(wt), failover_gbps=_gbps(fo))


def _fig18(grid, v: Verdict) -> None:
    # Fig 18 caveat: in the paper the degraded stages' RTT CDFs sit above
    # symmetry's *at matched utilization*; our failover/weighted stages
    # run at lower throughput, so their medians can be lower while the
    # tail-to-median spread widens.  Require the robust part: every stage
    # yields samples, and the degraded stages' relative tail (p99/p50)
    # is at least symmetry's.
    stages = {stage: stage_rtts_ns(grid["bijection"], stage)
              for stage in STAGES}

    def spread(rtts):
        return percentile(rtts, 99) / percentile(rtts, 50) if rtts else 0.0

    for stage, rtts in stages.items():
        v.require(f"{stage}_samples", bool(rtts), n_samples=len(rtts))
    sym_spread = spread(stages["symmetry"])
    for stage in ("failover", "weighted"):
        v.require(f"{stage}_tail_spread",
                  spread(stages[stage]) >= 0.8 * sym_spread,
                  spread=spread(stages[stage]), symmetry_spread=sym_spread)


def _table1(results, v: Verdict) -> None:
    normalized = mice_vs_ecmp(results)
    # Paper shape: Presto's mice FCT tail clearly below ECMP's.  (The
    # simulator shows -17..-30% at p90-p99.9 vs the paper's -32..-60%;
    # receiver-port sharing, identical across schemes, makes up a larger
    # share of our tail — see EXPERIMENTS.md.)
    for pct in ("p90", "p99"):
        v.require(f"presto_{pct}_below_ecmp", normalized["presto"][pct] < -0.1,
                  change=normalized["presto"][pct])
    # Optimal also clearly better than ECMP at the tail.
    v.require("optimal_p99_below_ecmp", normalized["optimal"]["p99"] < 0.0,
              change=normalized["optimal"]["p99"])
    # Elephants: Presto above ECMP.
    presto, ecmp = (results[s].mean_elephant_tput_bps
                    for s in ("presto", "ecmp"))
    v.require("presto_elephants_above_ecmp", presto > ecmp,
              presto_gbps=_gbps(presto), ecmp_gbps=_gbps(ecmp))


def _table2(results, v: Verdict) -> None:
    normalized = mice_vs_ecmp(results)
    presto, ecmp, optimal = (results[s].mean_elephant_tput_bps
                             for s in ("presto", "ecmp", "optimal"))
    # Throughput ordering (paper: 5.7 / 7.4 / 8.2 / 8.9).
    v.require("presto_elephants_above_ecmp", presto > ecmp,
              presto_gbps=_gbps(presto), ecmp_gbps=_gbps(ecmp))
    v.require("optimal_near_presto", optimal >= 0.95 * presto,
              optimal_gbps=_gbps(optimal), presto_gbps=_gbps(presto))
    # Presto improves the mice tail over ECMP.
    v.require("presto_p99.9_below_ecmp", normalized["presto"]["p99.9"] < -0.1,
              change=normalized["presto"]["p99.9"])
    # MPTCP mice hit RTOs more than Presto mice (the TIMEOUT row).
    mptcp_to, presto_to = (results[s].mice_timeout_fraction
                           for s in ("mptcp", "presto"))
    v.require("mptcp_mice_time_out_more", mptcp_to >= presto_to,
              mptcp_fraction=mptcp_to, presto_fraction=presto_to)


def _ablation_timeout(results, v: Verdict) -> None:
    # A 10 ms static hold must not beat the adaptive timeout on the mice
    # tail (it delays loss recovery at flowcell boundaries).
    adaptive = results["timeout"]["adaptive"].mice_fcts_ns
    static = results["timeout"]["static10ms"].mice_fcts_ns
    v.require("mice_samples", adaptive and static,
              n_adaptive=len(adaptive), n_static10ms=len(static))
    if adaptive and static:
        p99 = {"adaptive": percentile(adaptive, 99),
               "static10ms": percentile(static, 99)}
        v.require("adaptive_mice_p99_not_beaten",
                  p99["adaptive"] <= 1.2 * p99["static10ms"],
                  adaptive_ms=p99["adaptive"] / 1e6,
                  static10ms_ms=p99["static10ms"] / 1e6)


def _ablation_flowcell_size(results, v: Verdict) -> None:
    # 64 KB (the TSO-aligned choice) performs at least as well as the
    # alternatives on this workload.
    rates = {size: r.mean_rate_bps for size, r in results["cellsize"].items()}
    best = max(rates.values())
    v.require("64KB_near_best", rates["64KB"] > 0.9 * best,
              gbps_64KB=_gbps(rates["64KB"]), best_gbps=_gbps(best))


def _ablation_rr_vs_random(results, v: Verdict) -> None:
    # RR's deterministic evenness should not lose to randomized placement.
    rr, rand = (results["rr_vs_random"][m].mean_rate_bps
                for m in ("rr", "random"))
    v.require("rr_not_beaten_by_random", rr > 0.95 * rand,
              rr_gbps=_gbps(rr), random_gbps=_gbps(rand))


def _ablation_loss_detection(results, v: Verdict) -> None:
    # Turning discrimination off must not improve elephants materially.
    on, off = (results["loss_detection"][m].mean_rate_bps
               for m in ("on", "off"))
    v.require("off_no_better", on > 0.9 * off,
              on_gbps=_gbps(on), off_gbps=_gbps(off))


# --- orderings over seeds: mice FCT, reordering, failover --------------------

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

#: a fabric-saturating stride workload with concurrent mice
STRIDE_MICE = dict(schemes=("presto", "ecmp", "optimal"),
                   workloads=("stride",), seeds=(1, 2, 3), warm_ns=msec(10),
                   measure_ns=msec(20), mice_interval_ns=msec(2))
FAILURE_L1_L4 = dict(workloads=("L1->L4",), seeds=(1, 2, 3),
                     warm_ns=msec(8), measure_ns=msec(12))
#: a doubled-load websearch cell: at 1x the access links dominate and
#: the field compresses; at 2x fabric collisions separate the schemes.
#: Packet fidelity: the collision queueing RepFlow hedges against is
#: invisible to the fluid engine, where the claim inverts
WEBSEARCH_2X = dict(
    schemes=("ecmp", "presto", "repflow"),
    topologies=("clos:spines=4,leaves=4,hosts=4",), workloads=("websearch",),
    seeds=(1, 2, 3), duration_ns=msec(5), load_scale=2.0, fidelity="packet")


def _fct_ordering(grid, v: Verdict) -> None:
    schemes = STRIDE_MICE["schemes"]
    samples = {s: grid[(s, "stride")].mice_fcts_ns for s in schemes}
    # every scheme must complete mice inside the run
    v.require("mice_samples", all(samples.values()),
              **{f"n_{s}": len(samples[s]) for s in schemes})
    means_ms = {s: (mean(samples[s]) / 1e6 if samples[s] else float("inf"))
                for s in schemes}
    v.require("presto_beats_ecmp", means_ms["presto"] < means_ms["ecmp"],
              presto_ms=means_ms["presto"], ecmp_ms=means_ms["ecmp"])
    v.require("presto_near_optimal", means_ms["presto"]
              <= FCT_OPTIMAL_TOLERANCE * means_ms["optimal"],
              presto_ms=means_ms["presto"], optimal_ms=means_ms["optimal"],
              tolerance=FCT_OPTIMAL_TOLERANCE)


def _gro_reordering(stats, v: Verdict) -> None:
    presto, perpacket = stats["presto"], stats["perpacket"]
    v.require("segments_observed",
              presto.pushed_segments and perpacket.pushed_segments,
              n_presto=presto.pushed_segments,
              n_perpacket=perpacket.pushed_segments)
    v.require("presto_flowcells_in_order",
              presto.frac_zero_ooo >= PRESTO_ZERO_OOO_MIN,
              frac_zero_presto=presto.frac_zero_ooo,
              threshold=PRESTO_ZERO_OOO_MIN)
    v.require("presto_ooo_bounded", presto.frac_ooo <= PRESTO_OOO_SEGMENTS_MAX,
              frac_ooo_presto=presto.frac_ooo,
              threshold=PRESTO_OOO_SEGMENTS_MAX)
    # per-packet spraying into the stock GRO must expose strictly more
    # TCP-visible disorder than Presto's flowcells
    v.require("presto_beats_perpacket", presto.frac_ooo < perpacket.frac_ooo,
              frac_ooo_presto=presto.frac_ooo,
              frac_ooo_perpacket=perpacket.frac_ooo)


def _tournament_ordering(result, v: Verdict) -> None:
    cells = {c.scheme: c for c in result.cells}
    v.require("mice_samples",
              all(c.mean_fct_ns is not None for c in cells.values()),
              **{f"flows_{s}": c.flows_completed for s, c in cells.items()})
    means_ms = {s: (c.mean_fct_ns / 1e6 if c.mean_fct_ns is not None
                    else float("inf")) for s, c in cells.items()}
    v.require("presto_beats_ecmp", means_ms["presto"] < means_ms["ecmp"],
              presto_ms=means_ms["presto"], ecmp_ms=means_ms["ecmp"])
    # replicated mice must win the race against collision queueing
    # despite doubling their own access-link load
    v.require("repflow_beats_ecmp", means_ms["repflow"] < means_ms["ecmp"],
              repflow_ms=means_ms["repflow"], ecmp_ms=means_ms["ecmp"])


def _failover(grid, v: Verdict) -> None:
    results = grid["L1->L4"]
    # Hardware failover engages failover_latency after the fault; the
    # timeline samples in measure/6 windows, so allow the latency plus
    # half a phase for TCP to ramp back through the detection grid.
    failover_bound_ns = msec(2) + FAILURE_L1_L4["measure_ns"] // 2
    # the modeled control plane must push reweighted schedules in-sim
    v.require("controller_reacted",
              all(tl.reaction_ns is not None for tl in results),
              n_reacted=sum(1 for tl in results if tl.reaction_ns is not None),
              n_runs=len(results))
    # throughput back at 80% of the failover plateau before the
    # controller reacts, within the hardware bound
    failover_times = [tl.convergence.time_to_failover_ns for tl in results]
    v.require("failover_within_bound",
              all(t is not None and t <= failover_bound_ns
                  for t in failover_times),
              worst_ms=max((t for t in failover_times if t is not None),
                           default=-1) / 1e6,
              bound_ms=failover_bound_ns / 1e6,
              n_missing=sum(1 for t in failover_times if t is None))
    # after the reweight push, throughput must reach 80% of the
    # weighted plateau
    rebalance_times = [tl.convergence.time_to_rebalance_ns for tl in results]
    v.require("rebalance_converges",
              all(t is not None for t in rebalance_times),
              n_missing=sum(1 for t in rebalance_times if t is None))
    # weighted-phase mean per-flow throughput vs the pre-fault symmetry
    # phase (3 of 4 trees survive)
    ratios = []
    for tl in results:
        symmetry = tl.phases["symmetry"].mean_flow_tput_bps
        weighted = tl.phases["weighted"].mean_flow_tput_bps
        ratios.append(weighted / symmetry if symmetry > 0 else 0.0)
    v.require("post_rebalance_throughput",
              min(ratios, default=0.0) >= REBALANCE_MIN_FRACTION,
              worst_fraction=min(ratios, default=0.0),
              threshold=REBALANCE_MIN_FRACTION)


# --- the table ---------------------------------------------------------------

WINDOWS = dict(warm_ns=msec(15), measure_ns=msec(25))


def _ablation(study: str, check) -> Claim:
    return Claim(f"ablation_{study}", "Ablation", "ablations",
                 dict(studies=(study,), seeds=(1,), **WINDOWS), check)


#: every claim, in figure order; ``runner run claims`` judges them all
#: by default, ``--claims`` picks a subset by id
CLAIMS: Tuple[Claim, ...] = (
    Claim("fig1", "Fig 1", "flowlet_sizes", dict(
        max_competing=8, transfer_bytes=16 * MB, gap_ns=usec(500),
        duration_ns=msec(60)), _fig1),
    Claim("fig5", "Fig 5", "gro_micro", dict(duration_ns=msec(40)), _fig5),
    Claim("fig6", "Fig 6", "cpu_overhead", dict(duration_ns=msec(40)), _fig6),
    Claim("fig7_8_9", "Figs 7-9", "scalability", dict(
        path_counts=(2, 4, 8), seeds=(1, 2), **WINDOWS), _fig7_8_9),
    Claim("fig10_12", "Figs 10-12", "oversub", dict(
        pair_counts=(2, 4, 8), seeds=(1, 2), **WINDOWS), _fig10_12),
    Claim("fig13", "Fig 13", "flowlet_cmp", dict(seeds=(1, 2), **WINDOWS),
          _fig13),
    Claim("fig14", "Fig 14", "perhop_cmp", dict(seeds=(1, 2), **WINDOWS),
          _fig14),
    Claim("fig15_16", "Figs 15-16", "synthetic", dict(
        workloads=("shuffle", "random", "stride", "bijection"),
        seeds=(1, 2), **WINDOWS), _fig15_16),
    Claim("fig17", "Fig 17", "failure", dict(seeds=(1, 2), **WINDOWS), _fig17),
    Claim("fig18", "Fig 18", "failure", dict(
        workloads=("bijection",), seeds=(1,), with_probes=True, **WINDOWS),
        _fig18),
    Claim("table1", "Table 1", "trace", dict(
        seeds=(1, 2), duration_ns=msec(100)), _table1),
    Claim("table2", "Table 2", "northsouth", dict(seeds=(1, 2), **WINDOWS),
          _table2),
    _ablation("timeout", _ablation_timeout),
    _ablation("cellsize", _ablation_flowcell_size),
    _ablation("rr_vs_random", _ablation_rr_vs_random),
    _ablation("loss_detection", _ablation_loss_detection),
    Claim("fct_ordering", "Figs 9/16", "synthetic", STRIDE_MICE,
          _fct_ordering),
    Claim("fct_ordering_flow", "Figs 9/16", "synthetic",
          dict(STRIDE_MICE, fidelity="flow"), _fct_ordering),
    Claim("gro_reordering", "Figs 5/11", "gro_reordering", {},
          _gro_reordering),
    Claim("tournament_ordering", "Tournament", "tournament",
          WEBSEARCH_2X, _tournament_ordering),
    Claim("failover", "Figs 17/18", "failure", FAILURE_L1_L4, _failover),
    Claim("failover_flow", "Figs 17/18", "failure",
          dict(FAILURE_L1_L4, fidelity="flow"), _failover),
)


def _judge(p: Dict[str, Any], options: SweepOptions) -> List[Verdict]:
    # SWEEPS registers this module's sweep: import it at run time
    from repro.runner.sweeps import SWEEPS

    rows = {claim.id: claim for claim in CLAIMS}
    verdicts = []
    for claim in (rows[cid] for cid in p["claims"]):
        if options.log is not None:
            options.log(f"claims: {claim.id} over {claim.sweep}")
        verdict = Verdict(claim.id, claim.figure)
        try:
            payload = SWEEPS[claim.sweep].run(**claim.params, **vars(options))
        except Exception as exc:  # noqa: BLE001 — a row failed, not the run
            verdict.require("jobs_completed", False,
                            error=f"{type(exc).__name__}: {exc}")
        else:
            claim.check(payload, verdict)
        verdicts.append(verdict)
    return verdicts


#: no grid of its own: each selected row runs its own sweep
CLAIMS_SWEEP = Sweep(
    name="claims",
    description="the paper's claims, judged: each row runs a registered "
                "sweep and checks its figure's ordering; one line per "
                "check, exit 1 if one fails",
    params=(Param(
        "claims", tuple(claim.id for claim in CLAIMS), "--claims", "strs",
        "comma-separated claim ids (default: all "
        f"{len(CLAIMS)}, see EXPERIMENTS.md 'Validation')",
        coerce=each_in(lambda: [claim.id for claim in CLAIMS], "claim")),),
    table=verdict_table,
    ok=lambda verdicts: all(v.passed for v in verdicts),
    driver=_judge,
)
