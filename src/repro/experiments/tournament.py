"""Standing tournament: every registered scheme, raced head-to-head.

The fabric sweep answers "how does Presto scale"; the tournament
answers "how does Presto place against the related-work field".  Every
registered scheme — the paper's eight plus the literature zoo
(DiffFlow, RepFlow, elephant isolation) — runs the same workload grid
(websearch / datamining traces + incast) over three fabrics (the
16-host Clos, an oversubscribed leaf-spine, a k=4 fat tree), at flow
fidelity so the full grid finishes in minutes.

Each (topology, workload, scheme, seed) trial is one
:func:`repro.experiments.fabric_sweep.run_fabric_cell` job submitted
through :mod:`repro.runner` — cached in the result store, fanned over
``--jobs`` workers or a ``--service`` coordinator, aggregated in-cell
by the bounded-memory P² collectors.  The driver then

* **ranks** schemes Borda-style: within each (topology, workload)
  cell, order by mean mice FCT (ascending, seed-averaged); a scheme's
  standing is its mean rank across all cells, wins broken by name;
* **checks** the paper's qualitative prediction — Presto's mice FCT at
  or below ECMP's in every trace-workload cell (incast is excluded:
  its fan-in bottleneck is the receiver access link, which no
  multipath scheme can widen);
* emits the whole thing as deterministic bytes: no timestamps, sorted
  keys, seed-order aggregation — so ``python -m repro.runner run
  tournament`` reproduces the committed ``TOURNAMENT.json`` exactly,
  and nightly CI (``--check``) diffs the ranking against it.

The grid, its flags and the artifact gate are the :data:`TOURNAMENT`
declaration; ``tournament_specs``/``run_tournament`` are its derived
``specs``/``run``.

RepFlow's "mice at or below ECMP" claim is the ``tournament_ordering``
row of :data:`repro.validate.claims.CLAIMS`: one doubled-load websearch
cell of this sweep at packet fidelity.  The collision queueing RepFlow
hedges against is invisible to the fluid engine's smooth rate sharing,
so the flow-level grid here ranks it but does not gate on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import known_schemes
from repro.experiments.fabric_sweep import fabric_cell_spec, fabric_grid_params
from repro.experiments.schemes import scheme_names
from repro.net.fabrics import as_spec
from repro.runner import JobSpec
from repro.runner.serialize import to_jsonable
from repro.runner.sweep import Artifact, Param, Sweep
from repro.units import msec

#: the three tournament fabrics: the paper's 16-host Clos shape, a
#: 2:1-oversubscribed leaf-spine (canonicalizes to clos-2x4x4), and
#: the smallest 3-tier fat tree
DEFAULT_TOPOLOGIES = (
    "clos:spines=4,leaves=4,hosts=4",
    "leaf-spine:spines=2,hosts=4,pods=4",
    "fat-tree:k=4",
)
DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_DURATION_NS = msec(5)
#: ``run_fabric_cell``'s incast fan-in default, mirrored here so small
#: fabrics can clamp it without touching full-size job hashes
DEFAULT_INCAST_FANIN = 8

#: workloads where the paper predicts multipath spraying improves mice
#: FCT; incast is excluded (receiver access link is the bottleneck)
ORDERED_WORKLOADS = ("websearch", "datamining")
#: per-cell Presto-vs-ECMP band: the committed grid holds at 1.0
#: (strictly at or below); the band absorbs seed-set changes when the
#: tournament is rerun with other seeds or durations
ORDERING_TOLERANCE = 1.05

TOURNAMENT_PATH = "TOURNAMENT.json"


@dataclass
class TournamentCell:
    """One (topology, workload, scheme) entry, seed-averaged."""

    topology: str
    workload: str
    scheme: str
    seeds: Tuple[int, ...]
    flows_started: int
    flows_completed: int
    #: mean over seeds of each seed's mean mice FCT (request FCT for
    #: incast); None when no flow completed in any seed
    mean_fct_ns: Optional[float]
    p50_fct_ns: Optional[float]
    p99_fct_ns: Optional[float]
    mean_elephant_fct_ns: Optional[float]


@dataclass
class SchemeStanding:
    """One scheme's final placement across the whole grid."""

    rank: int
    scheme: str
    #: Borda score: mean of per-cell ranks (lower is better)
    mean_rank: float
    #: cells where this scheme had the best mean mice FCT
    wins: int
    cells: int


@dataclass
class OrderingCheck:
    """One cell's paper-predicted ordering, machine-checked."""

    name: str
    topology: str
    workload: str
    scheme: str
    baseline: str
    ok: bool
    #: scheme mean FCT / baseline mean FCT (< 1 means faster)
    ratio: Optional[float]
    tolerance: float


@dataclass
class TournamentResult:
    """The whole tournament: grid spec, cells, standings, checks."""

    schemes: Tuple[str, ...]
    topologies: Tuple[str, ...]
    workloads: Tuple[str, ...]
    seeds: Tuple[int, ...]
    duration_ns: int
    load_scale: float
    fidelity: str
    cells: List[TournamentCell] = field(default_factory=list)
    standings: List[SchemeStanding] = field(default_factory=list)
    checks: List[OrderingCheck] = field(default_factory=list)
    checks_ok: bool = True


def _cell(topology: str, workload: str, scheme: str, seed: int,
          p: Dict[str, Any]) -> JobSpec:
    # incast needs out-of-rack workers; on fabrics smaller than the
    # default fan-in of 8, clamp to what exists rather than crash the
    # cell.  The kwarg is only added when it differs from the default
    # so full-size grids keep their job hashes.
    extra = {}
    if workload == "incast":
        spec = as_spec(topology)
        pool = spec.n_hosts() - spec.hosts_per_edge()
        if pool < 1:
            raise ValueError(
                f"topology {topology!r} has no out-of-rack hosts "
                f"for the incast workload")
        if pool < DEFAULT_INCAST_FANIN:
            extra["fanin"] = pool
    return fabric_cell_spec(
        "tournament", topology, workload, scheme, seed, p, **extra)


def _mean(values: Sequence[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _aggregate_cell(
    topology: str,
    workload: str,
    scheme: str,
    seeds: Tuple[int, ...],
    per_seed: Sequence[Any],
) -> TournamentCell:
    def fct(key: str) -> Optional[float]:
        return _mean([c.fct_summary.get(key) for c in per_seed])

    return TournamentCell(
        topology=topology,
        workload=workload,
        scheme=scheme,
        seeds=seeds,
        flows_started=sum(c.flows_started for c in per_seed),
        flows_completed=sum(c.flows_completed for c in per_seed),
        mean_fct_ns=fct("mean"),
        p50_fct_ns=fct("p50"),
        p99_fct_ns=fct("p99"),
        mean_elephant_fct_ns=_mean(
            [c.elephant_summary.get("mean") for c in per_seed]),
    )


def rank_standings(cells: Sequence[TournamentCell],
                   schemes: Sequence[str]) -> List[SchemeStanding]:
    """Borda ranking: per (topology, workload) cell, schemes place by
    mean mice FCT ascending (no-result cells place last); the standing
    is the mean place across cells, ties broken by name."""
    by_cell: Dict[Tuple[str, str], List[TournamentCell]] = {}
    for cell in cells:
        by_cell.setdefault((cell.topology, cell.workload), []).append(cell)
    places: Dict[str, List[int]] = {s: [] for s in schemes}
    wins: Dict[str, int] = {s: 0 for s in schemes}
    for group in by_cell.values():
        ordered = sorted(
            group,
            key=lambda c: (c.mean_fct_ns if c.mean_fct_ns is not None
                           else float("inf"), c.scheme))
        for place, cell in enumerate(ordered, start=1):
            places[cell.scheme].append(place)
            if place == 1:
                wins[cell.scheme] += 1
    ranked = sorted(
        schemes,
        key=lambda s: (_mean(places[s]) if places[s] else float("inf"), s))
    return [
        SchemeStanding(
            rank=i,
            scheme=s,
            mean_rank=round(_mean(places[s]), 4) if places[s] else 0.0,
            wins=wins[s],
            cells=len(places[s]),
        )
        for i, s in enumerate(ranked, start=1)
    ]


def ordering_checks(
    cells: Sequence[TournamentCell],
    tolerance: float = ORDERING_TOLERANCE,
) -> List[OrderingCheck]:
    """Presto at or below ECMP (x ``tolerance``) on mean mice FCT, per
    trace-workload cell — the paper's headline prediction, as data."""
    by_key = {(c.topology, c.workload, c.scheme): c for c in cells}
    checks = []
    for (topology, workload, scheme), cell in sorted(by_key.items()):
        if scheme != "presto" or workload not in ORDERED_WORKLOADS:
            continue
        base = by_key.get((topology, workload, "ecmp"))
        if base is None:
            continue
        ratio = None
        ok = False
        if cell.mean_fct_ns is not None and base.mean_fct_ns:
            ratio = round(cell.mean_fct_ns / base.mean_fct_ns, 4)
            ok = ratio <= tolerance
        checks.append(OrderingCheck(
            name=f"presto_vs_ecmp/{as_spec(topology).slug()}/{workload}",
            topology=topology,
            workload=workload,
            scheme="presto",
            baseline="ecmp",
            ok=ok,
            ratio=ratio,
            tolerance=tolerance,
        ))
    return checks


def _reduce(cells, p: Dict[str, Any]) -> TournamentResult:
    topologies = tuple(as_spec(t).cli() for t in p["topologies"])
    aggregated = [
        _aggregate_cell(as_spec(topology).cli(), workload, scheme,
                        p["seeds"], per_seed)
        for (topology, workload, scheme), per_seed in cells
    ]
    checks = ordering_checks(aggregated)
    return TournamentResult(
        schemes=p["schemes"],
        topologies=topologies,
        workloads=p["workloads"],
        seeds=p["seeds"],
        duration_ns=p["duration_ns"],
        load_scale=p["load_scale"],
        fidelity=p["fidelity"] or "packet",
        cells=aggregated,
        standings=rank_standings(aggregated, p["schemes"]),
        checks=checks,
        checks_ok=all(c.ok for c in checks),
    )


# --- reports -----------------------------------------------------------------


def tournament_json(result: TournamentResult) -> str:
    """The committed-artifact serialization: sorted keys, no
    timestamps, trailing newline — byte-reproducible by design."""
    return json.dumps(to_jsonable(result), indent=2, sort_keys=True) + "\n"


def _us(value: Optional[float]) -> str:
    return f"{value / 1e3:.1f}" if value is not None else "n/a"


def standings_rows(result: TournamentResult) -> List[List[object]]:
    return [
        [s.rank, s.scheme, f"{s.mean_rank:.2f}", s.wins, s.cells]
        for s in result.standings
    ]


def render_markdown(result: TournamentResult) -> str:
    """Human-readable tournament report (GitHub-flavored markdown)."""
    lines = [
        "# Scheme tournament",
        "",
        f"{len(result.schemes)} schemes x {len(result.workloads)} workloads "
        f"x {len(result.topologies)} topologies x {len(result.seeds)} seeds "
        f"at {result.fidelity} fidelity, "
        f"{result.duration_ns / 1e6:g} ms of offered load per cell.",
        "",
        "## Standings",
        "",
        "Borda ranking by mean mice FCT: a scheme's score is its mean",
        "place across every (topology, workload) cell; wins count the",
        "cells it placed first in.",
        "",
        "| rank | scheme | mean place | wins | cells |",
        "| ---: | --- | ---: | ---: | ---: |",
    ]
    for s in result.standings:
        lines.append(f"| {s.rank} | {s.scheme} | {s.mean_rank:.2f} "
                     f"| {s.wins} | {s.cells} |")
    lines += [
        "",
        "## Cell winners",
        "",
        "| topology | workload | winner | mean FCT (us) |",
        "| --- | --- | --- | ---: |",
    ]
    by_cell: Dict[Tuple[str, str], List[TournamentCell]] = {}
    for cell in result.cells:
        by_cell.setdefault((cell.topology, cell.workload), []).append(cell)
    for (topology, workload), group in sorted(by_cell.items()):
        best = min(group, key=lambda c: (
            c.mean_fct_ns if c.mean_fct_ns is not None else float("inf"),
            c.scheme))
        lines.append(f"| {topology} | {workload} | {best.scheme} "
                     f"| {_us(best.mean_fct_ns)} |")
    lines += [
        "",
        "## Ordering checks",
        "",
        "Presto's mean mice FCT vs ECMP's, per trace-workload cell",
        f"(must stay at or below {ORDERING_TOLERANCE}x; the paper's",
        "headline claim).",
        "",
        "| check | ratio | verdict |",
        "| --- | ---: | --- |",
    ]
    for check in result.checks:
        ratio = f"{check.ratio:.3f}" if check.ratio is not None else "n/a"
        lines.append(f"| {check.name} | {ratio} "
                     f"| {'ok' if check.ok else 'FAIL'} |")
    lines += [
        "",
        f"Overall: {'all checks passed' if result.checks_ok else 'CHECKS FAILED'}.",
        "",
    ]
    return "\n".join(lines)


def _ranking_diff(old: Dict, new: Dict) -> List[str]:
    """Human-readable standings drift between two tournament payloads."""
    def ladder(payload: Dict) -> List[str]:
        standings = payload.get("fields", payload).get("standings", [])
        return [s.get("fields", s).get("scheme", "?") for s in standings]

    old_ladder, new_ladder = ladder(old), ladder(new)
    if old_ladder == new_ladder:
        return []
    return [f"ranking drifted: committed {old_ladder} != new {new_ladder}"]


# --- the declaration ---------------------------------------------------------

_TOPOLOGIES, _WORKLOADS, _SCHEMES, *_REST = fabric_grid_params(
    DEFAULT_TOPOLOGIES,
    # () = every scheme registered when the sweep is bound
    Param("schemes", (), "--schemes", "strs",
          "comma-separated scheme subset (default: every registered "
          "scheme)",
          coerce=lambda s: known_schemes(s or scheme_names())),
    seeds=DEFAULT_SEEDS, duration_ns=DEFAULT_DURATION_NS)

#: grid order topology > workload > scheme > seed
TOURNAMENT = Sweep(
    name="tournament",
    description="Scheme zoo standings: every registered scheme x "
                "websearch/datamining/incast x three fabrics, "
                "Borda-ranked by mice FCT; defaults reproduce the "
                "committed TOURNAMENT.json",
    # positionally schemes come first here, as they always have
    params=(_SCHEMES, _TOPOLOGIES, _WORKLOADS, *_REST),
    axes=("topologies", "workloads", "schemes"),
    cell=_cell,
    reduce=_reduce,
    table=lambda result: (["rank", "scheme", "mean place", "wins", "cells"],
                          standings_rows(result)),
    ok=lambda result: result.checks_ok,
    artifact=Artifact(TOURNAMENT_PATH, tournament_json, render_markdown,
                      drift=_ranking_diff),
)
tournament_specs = TOURNAMENT.specs
run_tournament = TOURNAMENT.run
