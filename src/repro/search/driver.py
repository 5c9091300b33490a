"""The search loop: seeded GA x successive halving over runner sweeps.

One *candidate* is a genome over the preset's :class:`ParamSpace`; its
fitness is the mean mice FCT of :func:`repro.search.fitness.
run_search_cell` over the evaluation seeds.  Each generation runs its
novel candidates through a successive-halving ladder
(:mod:`repro.search.halving`): everybody gets ``base_seeds`` cheap
seeds, the best ``1/eta`` fraction is promoted with ``eta`` x the seed
budget, and only ladder survivors carry full-seed fitness.  The GA
(:mod:`repro.search.ga`) then breeds the next generation from the
best-first ranking.  Candidates are deduped by genome — equivalently
by config hash, since lattices are deterministic — so a re-proposed
candidate costs nothing, and *every* job goes through the runner's
``ResultStore``, where a promoted candidate's earlier-seed jobs are
cache hits rather than re-executions.

Determinism contract (pinned by tests/test_search.py): the serialized
:class:`SearchResult` is a pure function of the settings and the GA
seed.  No timestamps, no wall-clock, no dict-order dependence; the
``store`` section counts *structural* hits (jobs this search submitted
more than once) rather than live cache state, so the bytes reproduce
against a cold store and a warm one alike.  Live cache behaviour is
returned separately as :class:`RunStats` for callers that care.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import TestbedConfig
from repro.runner.jobspec import JobSpec
from repro.runner.pool import STATUS_CACHED, collect_results
from repro.runner.serialize import artifact_json, content_hash
from repro.runner import sweep
from repro.search.fitness import (
    DEFAULT_MEASURE_NS,
    DEFAULT_WARM_NS,
    run_search_cell,
)
from repro.search.ga import next_generation, sample_population
from repro.search.halving import halving_schedule
from repro.search.space import Genome, Param, ParamSpace
from repro.units import KB, msec, usec

DEFAULT_SEEDS = (1, 2, 3)

#: the constants the paper hand-set, for the found-vs-paper report
PAPER_CONSTANTS: Dict[str, Any] = {
    "flowcell_bytes": 64 * KB,
    "gro_alpha": 2.0,
    "gro_initial_ewma_ns": usec(150),
    "presto_mode": "rr",
    "ctrl_detection_delay_ns": msec(10),
    "ctrl_reaction_delay_ns": msec(5),
    "failover_latency_ns": msec(2),
    # DiffFlow's mice/elephant cutoff (Carpio et al.), not Presto's
    "zoo_threshold_bytes": 100 * KB,
}


@dataclass(frozen=True)
class SearchSettings:
    """Everything one search run depends on (all of it serialized)."""

    preset: str
    scheme: str
    space: ParamSpace
    #: GA seed — the *only* source of randomness in the whole search
    ga_seed: int = 1
    population: int = 12
    generations: int = 2
    eta: int = 2
    base_seeds: int = 1
    #: simulator seeds one full fitness evaluation averages over
    eval_seeds: Tuple[int, ...] = DEFAULT_SEEDS
    #: engine fidelity for fitness cells (None = packet)
    fidelity: Optional[str] = None
    #: arm the link-failure scenario in every fitness cell
    disrupt: bool = False
    warm_ns: int = DEFAULT_WARM_NS
    measure_ns: int = DEFAULT_MEASURE_NS

    def __post_init__(self):
        if self.population < 2:
            raise ValueError(
                f"population must be >= 2, got {self.population}")
        if self.generations < 1:
            raise ValueError(
                f"generations must be >= 1, got {self.generations}")
        if not self.eval_seeds:
            raise ValueError("eval_seeds must name at least one seed")
        if len(set(self.eval_seeds)) != len(self.eval_seeds):
            raise ValueError(f"duplicate eval_seeds {self.eval_seeds}")

    def config(self, genome: Genome, seed: int) -> TestbedConfig:
        base = TestbedConfig(
            scheme=self.scheme, seed=seed, fidelity=self.fidelity)
        return self.space.apply(base, genome)

    def job_spec(self, genome: Genome, seed: int, config_hash: str,
                 **cell_kwargs: Any) -> JobSpec:
        """The job :func:`run_search` submits for ``genome`` at ``seed``
        (``cell_kwargs``: :meth:`cell_kwargs`, computed once a search)."""
        return JobSpec.make(
            run_search_cell, cfg=self.config(genome, seed),
            label=f"search/{self.preset}/{config_hash[:8]}/seed{seed}",
            **cell_kwargs)

    def cell_kwargs(self) -> Dict[str, Any]:
        """Fitness-cell kwargs, defaults omitted for hash hygiene."""
        kwargs: Dict[str, Any] = {}
        if self.warm_ns != DEFAULT_WARM_NS:
            kwargs["warm_ns"] = self.warm_ns
        if self.measure_ns != DEFAULT_MEASURE_NS:
            kwargs["measure_ns"] = self.measure_ns
        if self.disrupt:
            kwargs["disrupt"] = True
        return kwargs


@dataclass
class CandidateRecord:
    """One evaluated candidate, as it appears in ``SEARCH.json``."""

    #: content hash of the candidate's seed-independent knob values
    config_hash: str
    knobs: Dict[str, Any]
    genome: Tuple[int, ...]
    #: generation that first proposed this candidate
    generation: int
    #: seeds evaluated so far (== len(eval_seeds) for the frontier)
    n_seeds: int = 0
    #: mean over per-seed mean mice FCTs; None when no mouse finished
    fitness_ns: Optional[float] = None
    per_seed_fct_ns: List[Optional[float]] = field(default_factory=list)


@dataclass
class RungLog:
    """One halving rung's budget accounting."""

    generation: int
    rung: int
    survivors: int
    cum_seeds: int
    #: jobs submitted at this rung (store hits included)
    submitted: int
    #: jobs this search had not submitted before this rung
    new_evals: int


@dataclass
class RunStats:
    """Live runner accounting for one call — NOT serialized, because a
    warm store flips executed jobs to cached ones while the committed
    artifact must stay byte-identical either way."""

    submitted: int = 0
    executed: int = 0
    cached: int = 0


@dataclass
class SearchResult:
    """The whole search: settings echo, rung budgets, ranked frontier."""

    preset: str
    scheme: str
    fidelity: str
    disrupt: bool
    ga_seed: int
    population: int
    generations: int
    eta: int
    base_seeds: int
    eval_seeds: Tuple[int, ...]
    warm_ns: int
    measure_ns: int
    knobs: List[Dict[str, Any]]
    space_size: int
    #: distinct candidates evaluated (post-dedupe)
    evaluated: int
    rungs: List[RungLog]
    #: full-seed candidates, best (lowest mean mice FCT) first
    frontier: List[CandidateRecord]
    #: found-vs-paper per searched knob (see ``paper_comparison``)
    paper_deltas: List[Dict[str, Any]]
    #: structural store accounting: submissions vs first submissions
    store: Dict[str, Any]


def _fitness(per_seed: Sequence[Optional[float]]) -> Optional[float]:
    present = [v for v in per_seed if v is not None]
    return sum(present) / len(present) if present else None


def _rank_key(rec: CandidateRecord):
    """Best-first total order: more seeds beat fewer (their fitness is
    trustworthy), then lower FCT, then hash for full determinism."""
    return (
        -rec.n_seeds,
        rec.fitness_ns if rec.fitness_ns is not None else math.inf,
        rec.config_hash,
    )


def paper_comparison(space: ParamSpace,
                     best: Optional[CandidateRecord]) -> List[Dict[str, Any]]:
    """Found-vs-paper rows for every searched knob.

    ``lattice_steps`` is the index distance between the found value and
    the paper's, when the paper constant sits on the lattice — the
    "within one rung of 64 KB" acceptance check, as data.
    """
    rows = []
    for param, lattice in zip(space.params, space.lattices()):
        paper = PAPER_CONSTANTS.get(param.name)
        found = best.knobs[param.name] if best is not None else None
        steps = None
        if paper in lattice and found is not None:
            steps = abs(lattice.index(found) - lattice.index(paper))
        rows.append({
            "knob": param.name,
            "paper": paper,
            "found": found,
            "lattice_steps": steps,
            "within_one_step": None if steps is None else steps <= 1,
        })
    return rows


def run_search(
    settings: SearchSettings, **execution: Any,
) -> Tuple[SearchResult, RunStats]:
    """Run the full search; returns the serializable result and the
    live runner stats (the latter deliberately kept out of the JSON).
    ``execution`` is any :class:`~repro.runner.sweep.SweepOptions`
    field (``jobs=4, store=...``)."""
    options = sweep.SweepOptions(**execution)
    space = settings.space
    seeds = settings.eval_seeds
    # screen every lattice extreme through TestbedConfig validation
    # before queueing anything
    space.validate(TestbedConfig(scheme=settings.scheme, seed=seeds[0],
                                 fidelity=settings.fidelity))
    rng = random.Random(settings.ga_seed)
    records: Dict[Genome, CandidateRecord] = {}
    rung_logs: List[RungLog] = []
    stats = RunStats()
    submitted_hashes: set = set()
    structural_submitted = 0
    cell_kwargs = settings.cell_kwargs()

    def evaluate_rung(alive: List[Genome], cum_seeds: int) -> Tuple[int, int]:
        """Submit seeds[:cum_seeds] for each genome; returns
        (submitted, structurally-new) job counts."""
        nonlocal structural_submitted
        specs = [settings.job_spec(g, seed, records[g].config_hash,
                                   **cell_kwargs)
                 for g in alive for seed in seeds[:cum_seeds]]
        fresh = 0
        for spec in specs:
            if spec.hash not in submitted_hashes:
                submitted_hashes.add(spec.hash)
                fresh += 1
        structural_submitted += len(specs)
        outcomes = options.outcomes(specs)
        stats.submitted += len(specs)
        for outcome in outcomes:
            if outcome.status == STATUS_CACHED:
                stats.cached += 1
            else:
                stats.executed += 1
        results = collect_results(outcomes)
        it = iter(results)
        for genome in alive:
            per_seed = [next(it)["mean_mice_fct_ns"]
                        for _ in seeds[:cum_seeds]]
            rec = records[genome]
            rec.per_seed_fct_ns = per_seed
            rec.n_seeds = cum_seeds
            rec.fitness_ns = _fitness(per_seed)
        return len(specs), fresh

    population: List[Genome] = sample_population(
        space, settings.population, rng)
    for generation in range(settings.generations):
        if generation > 0:
            ranked = sorted(records.values(), key=_rank_key)
            population = next_generation(
                space, [r.genome for r in ranked], settings.population,
                rng, seen=records)
        cohort = [g for g in population if g not in records]
        if not cohort:
            break  # the GA found nothing novel: converged
        for genome in cohort:
            knobs = space.decode(genome)
            records[genome] = CandidateRecord(
                config_hash=content_hash(
                    {"scheme": settings.scheme, "knobs": knobs}),
                knobs=knobs,
                genome=tuple(genome),
                generation=generation,
            )
        alive = list(cohort)
        for rung in halving_schedule(len(cohort), len(seeds),
                                     settings.eta, settings.base_seeds):
            if rung.index > 0:
                alive = sorted(
                    alive, key=lambda g: _rank_key(records[g])
                )[:rung.survivors]
            submitted, fresh = evaluate_rung(alive, rung.cum_seeds)
            rung_logs.append(RungLog(
                generation=generation,
                rung=rung.index,
                survivors=len(alive),
                cum_seeds=rung.cum_seeds,
                submitted=submitted,
                new_evals=fresh,
            ))

    frontier = sorted(
        (r for r in records.values() if r.n_seeds == len(seeds)),
        key=_rank_key)
    best = frontier[0] if frontier else None
    new_evals = len(submitted_hashes)
    result = SearchResult(
        preset=settings.preset,
        scheme=settings.scheme,
        fidelity=settings.fidelity or "packet",
        disrupt=settings.disrupt,
        ga_seed=settings.ga_seed,
        population=settings.population,
        generations=settings.generations,
        eta=settings.eta,
        base_seeds=settings.base_seeds,
        eval_seeds=tuple(seeds),
        warm_ns=settings.warm_ns,
        measure_ns=settings.measure_ns,
        knobs=list(space.table()),
        space_size=space.size(),
        evaluated=len(records),
        rungs=rung_logs,
        frontier=frontier,
        paper_deltas=paper_comparison(space, best),
        store={
            "submitted": structural_submitted,
            "new_evals": new_evals,
            "hit_rate": round(
                1.0 - new_evals / structural_submitted, 4)
            if structural_submitted else 0.0,
        },
    )
    return result, stats


# --- presets -----------------------------------------------------------------

PRESETS: Dict[str, SearchSettings] = {
    # The committed search: the paper's own operating point.  Packet
    # fidelity on purpose — flowcell size and the GRO constants act
    # through reordering and hold timeouts, which the fluid engine's
    # smooth rate sharing does not model (its mice FCT is flat below
    # 64 KB; see EXPERIMENTS.md "Parameter search").
    "paper": SearchSettings(
        preset="paper",
        scheme="presto",
        space=ParamSpace((
            Param("flowcell_bytes", "log", lo=16 * KB, hi=512 * KB,
                  steps=6, integer=True),
            Param("gro_alpha", "log", lo=0.5, hi=8.0, steps=5),
            Param("gro_initial_ewma_ns", "log", lo=18750, hi=300000,
                  steps=5, integer=True),
            Param("presto_mode", "choice", choices=("rr", "random")),
        )),
    ),
    # Controller-delay / failover-latency tradeoff under a real link
    # failure (the Liang & Borst delay-vs-stickiness axis).
    "failover": SearchSettings(
        preset="failover",
        scheme="presto",
        disrupt=True,
        space=ParamSpace((
            Param("ctrl_detection_delay_ns", "log",
                  lo=usec(250), hi=msec(4), steps=5, integer=True),
            Param("ctrl_reaction_delay_ns", "log",
                  lo=usec(125), hi=msec(2), steps=5, integer=True),
            Param("failover_latency_ns", "log",
                  lo=usec(62), hi=msec(1), steps=5, integer=True),
        )),
        population=8,
    ),
    # DiffFlow's mice/elephant cutoff sensitivity (Carpio et al.).
    # DiffFlow has no flowcells (mice spray per packet, elephants pin
    # to ECMP), so flowcell_bytes is not an axis here.
    "zoo": SearchSettings(
        preset="zoo",
        scheme="diffflow",
        space=ParamSpace((
            Param("zoo_threshold_bytes", "log", lo=25 * KB, hi=400 * KB,
                  steps=5, integer=True),
        )),
        population=6,
        generations=1,
    ),
    # CI smoke: flow fidelity, two seeds, one generation — seconds.
    "smoke": SearchSettings(
        preset="smoke",
        scheme="presto",
        fidelity="flow",
        space=ParamSpace((
            Param("flowcell_bytes", "log", lo=16 * KB, hi=256 * KB,
                  steps=5, integer=True),
            Param("presto_mode", "choice", choices=("rr", "random")),
        )),
        population=4,
        generations=1,
        eval_seeds=(1, 2),
    ),
}


# --- reports -----------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _us(value: Optional[float]) -> str:
    return f"{value / 1e3:.1f}" if value is not None else "n/a"


def render_markdown(result: SearchResult) -> str:
    """Human-readable search report (GitHub-flavored markdown)."""
    lines = [
        "# Parameter search",
        "",
        f"Preset `{result.preset}`: scheme `{result.scheme}` at "
        f"{result.fidelity} fidelity"
        + (", link-failure scenario armed" if result.disrupt else "")
        + f"; GA seed {result.ga_seed}, population {result.population} "
        f"x {result.generations} generation(s), halving eta "
        f"{result.eta} from {result.base_seeds} seed(s) over "
        f"{len(result.eval_seeds)} evaluation seeds.",
        "",
        f"Evaluated {result.evaluated} of {result.space_size} possible "
        f"candidates; {result.store['new_evals']} cell evaluations for "
        f"{result.store['submitted']} submissions "
        f"(structural store hit rate "
        f"{result.store['hit_rate']:.0%}).",
        "",
        "## Knobs",
        "",
        "| knob | kind | lattice |",
        "| --- | --- | --- |",
    ]
    for knob in result.knobs:
        values = ", ".join(_fmt(v) for v in knob["values"])
        lines.append(f"| {knob['name']} | {knob['kind']} | {values} |")
    lines += [
        "",
        "## Rung schedule",
        "",
        "| generation | rung | survivors | cum seeds | submitted | new |",
        "| ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for rung in result.rungs:
        lines.append(
            f"| {rung.generation} | {rung.rung} | {rung.survivors} "
            f"| {rung.cum_seeds} | {rung.submitted} | {rung.new_evals} |")
    lines += [
        "",
        "## Frontier",
        "",
        "Full-seed candidates, best mean mice FCT first.",
        "",
        "| rank | " + " | ".join(k["name"] for k in result.knobs)
        + " | mean mice FCT (us) | gen |",
        "| ---: | " + " | ".join("---:" for _ in result.knobs)
        + " | ---: | ---: |",
    ]
    for rank, rec in enumerate(result.frontier[:10], start=1):
        knobs = " | ".join(_fmt(rec.knobs[k["name"]])
                           for k in result.knobs)
        lines.append(f"| {rank} | {knobs} | {_us(rec.fitness_ns)} "
                     f"| {rec.generation} |")
    lines += [
        "",
        "## Found vs paper",
        "",
        "`lattice_steps` is the index distance between the best found",
        "value and the paper's constant on the searched lattice (n/a",
        "when the paper value is off-lattice).",
        "",
        "| knob | paper | found | lattice steps |",
        "| --- | ---: | ---: | ---: |",
    ]
    for row in result.paper_deltas:
        steps = _fmt(row["lattice_steps"])
        if row["within_one_step"] is not None:
            steps += " (ok)" if row["within_one_step"] else " (drifted)"
        lines.append(f"| {row['knob']} | {_fmt(row['paper'])} "
                     f"| {_fmt(row['found'])} | {steps} |")
    lines.append("")
    return "\n".join(lines)


# --- the sweep declaration ---------------------------------------------------

SEARCH_PATH = "SEARCH.json"


def _frontier_table(result: SearchResult):
    names = [k["name"] for k in result.knobs]
    return ["rank"] + names + ["mice FCT us", "gen"], [
        [rank] + [rec.knobs[name] for name in names]
        + [_us(rec.fitness_ns), rec.generation]
        for rank, rec in enumerate(result.frontier[:10], start=1)]


def _drive(p: Dict[str, Any], options: sweep.SweepOptions) -> SearchResult:
    overrides = {name: value for name, value in p.items()
                 if name != "preset" and value is not None}
    result, stats = run_search(
        replace(PRESETS[p["preset"]], **overrides), **vars(options))
    if options.log is not None:
        options.log(f"runner: {stats.submitted} submitted, "
                    f"{stats.executed} executed, {stats.cached} store hits")
    return result


def _preset_lines() -> str:
    return "\n".join(
        f"--preset {name}: scheme={s.scheme} "
        f"fidelity={s.fidelity or 'packet'} "
        f"pop={s.population}x{s.generations} "
        f"seeds={','.join(map(str, s.eval_seeds))} "
        f"knobs=[{', '.join(p.name for p in s.space.params)}]"
        + (", link-failure scenario" if s.disrupt else "")
        for name, s in sorted(PRESETS.items()))


def _preset_override(name: str, flag: str, help: str) -> sweep.Param:
    return sweep.Param(name, None, flag, "int",
                       f"{help} (default: the preset's)")


#: no static grid — each rung's jobs depend on the last rung's ranking —
#: so the search plugs its loop in as the ``driver``
SEARCH = sweep.Sweep(
    name="search",
    description="GA + successive-halving parameter search over the "
                "Presto design space; defaults reproduce the committed "
                "SEARCH.json\n" + _preset_lines(),
    params=(
        sweep.Param("preset", "paper", "--preset",
                    help="search preset (default: paper — the committed "
                         "artifact)", choices=sorted(PRESETS)),
        _preset_override("ga_seed", "--seed", "GA seed"),
        _preset_override("population", "--population",
                         "candidates per generation"),
        _preset_override("generations", "--generations", "GA generations"),
        _preset_override("eta", "--eta", "halving rate"),
        _preset_override("base_seeds", "--base-seeds",
                         "seeds per candidate on the first rung"),
        sweep.Param("eval_seeds", None, "--seeds", "ints",
                    "simulator seeds per full fitness evaluation "
                    "(default: the preset's)"),
        sweep.Param("fidelity", None, "--fidelity",
                    help="fitness-cell engine fidelity (default: the "
                         "preset's)", choices=("packet", "flow")),
    ),
    table=_frontier_table,
    driver=_drive,
    artifact=sweep.Artifact(SEARCH_PATH, render_markdown),
)
# benchmarks/ledger/ imports this alias; nothing else may.
search_json = artifact_json
