"""Shared measurement scaffolding for the paper experiments.

Every experiment follows the same skeleton: build a testbed per scheme,
start elephants (and optionally mice / RTT probes), warm up so windows
converge, measure over a window, and report.  ``ElephantRun`` bundles
that skeleton; experiment modules parameterize it.

Scale note: the paper runs 10 s x 20 trials at 10 Gbps.  Packet-level
simulation in Python makes that ~10^10 events, so defaults here use
the same rates but tens-of-ms windows and a handful of seeds; the
windows, seeds and mice cadence are parameters for longer runs (see
EXPERIMENTS.md), while the paper's fixed values (50 KB mice, a 1 ms
probe cadence) are constants in :mod:`repro.host.app`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.schemes import scheme_names
from repro.metrics.collectors import Window
from repro.metrics.stats import jain_fairness, mean, percentile
from repro.net.fabrics import as_spec
from repro.runner.jobspec import JobSpec, cell
from repro.runner.sweep import TELEMETRY, Param, Sweep, seeds_param
from repro.telemetry.core import TelemetryConfig
from repro.units import msec, usec

DEFAULT_WARM_NS = msec(15)
DEFAULT_MEASURE_NS = msec(30)
START_JITTER_NS = usec(500)


@dataclass
class RunResult:
    """Everything one (scheme, seed) elephant run produced."""

    scheme: str
    seed: int
    flow_rates_bps: Dict[int, float]
    per_pair_rates_bps: List[float]
    loss_rate: float
    rtts_ns: List[int] = field(default_factory=list)
    mice_fcts_ns: List[int] = field(default_factory=list)
    #: telemetry snapshot of the run (None when telemetry is off; the
    #: field is then omitted from serialized output entirely, keeping
    #: telemetry-off results byte-identical to older records)
    metrics: Optional[Dict] = field(
        default=None, metadata={"omit_if_none": True})

    @property
    def mean_rate_bps(self) -> float:
        return mean(self.per_pair_rates_bps)

    @property
    def fairness(self) -> float:
        return jain_fairness(self.per_pair_rates_bps)


@cell
def run_elephant_workload(
    cfg: TestbedConfig,
    pairs: Sequence[Tuple[int, int]],
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    probe_pairs: Sequence[Tuple[int, int]] = (),
    mice_pairs: Sequence[Tuple[int, int]] = (),
    mice_interval_ns: int = msec(5),
    telemetry: Optional[TelemetryConfig] = None,
    setup: Optional[Callable[[Testbed], None]] = None,
) -> RunResult:
    """One trial: elephants on ``pairs`` (+ optional probes and mice),
    throughput measured over [warm, warm+measure].  ``setup`` runs on
    the fresh testbed first (cross traffic that must start before the
    elephants are placed)."""
    tb = Testbed(cfg, telemetry=telemetry)
    if setup is not None:
        setup(tb)
    rng = tb.streams.stream("starts")
    apps = [
        tb.add_elephant(src, dst, start_ns=rng.randrange(START_JITTER_NS))
        for src, dst in pairs
    ]
    probes = [
        tb.add_probe(src, dst, start_ns=warm_ns // 2)
        for src, dst in probe_pairs
    ]
    mice = [
        tb.add_mice(src, dst, interval_ns=mice_interval_ns,
                    start_ns=warm_ns // 2)
        for src, dst in mice_pairs
    ]
    tb.run(warm_ns)
    window = Window(tb, apps)
    tb.run(warm_ns + measure_ns)
    window.close()

    snapshot = tb.telemetry.snapshot() if tb.telemetry.enabled else None
    tb.telemetry.export_trace()
    return RunResult(
        scheme=cfg.scheme,
        seed=cfg.seed,
        flow_rates_bps=window.flow_rates_bps(),
        per_pair_rates_bps=[window.rate_bps(app) for app in apps],
        loss_rate=window.loss_rate(),
        rtts_ns=[r for p in probes for r in p.rtts_ns],
        mice_fcts_ns=[f for m in mice for f in m.fcts_ns],
        metrics=snapshot,
    )


def fct_percentiles(fcts_ns: Sequence[int]) -> Dict[str, float]:
    """The paper's FCT report: p50/p90/p99/p99.9 in milliseconds."""
    if not fcts_ns:
        return {}
    return {
        "p50": percentile(fcts_ns, 50) / 1e6,
        "p90": percentile(fcts_ns, 90) / 1e6,
        "p99": percentile(fcts_ns, 99) / 1e6,
        "p99.9": percentile(fcts_ns, 99.9) / 1e6,
    }


@dataclass
class Pooled:
    """One grid point of an elephant sweep: the five numbers Figs 7-16,
    Table 2 and the ablations report, over its per-seed runs pooled by
    :func:`pool`."""

    mean_tput_bps: float
    fairness: float
    loss_rate: float
    rtts_ns: List[int] = field(default_factory=list)
    mice_fcts_ns: List[int] = field(default_factory=list)

    def mice_percentiles_ms(self) -> Dict[str, float]:
        return fct_percentiles(self.mice_fcts_ns)


def pool(runs: Sequence[RunResult]) -> Pooled:
    """Mean and Jain index over every seed's per-pair rates together,
    the mean of the per-seed loss rates, and the RTT and mice FCT
    samples concatenated in seed order."""
    rates = [r for run in runs for r in run.per_pair_rates_bps]
    return Pooled(
        mean_tput_bps=mean(rates),
        fairness=jain_fairness(rates),
        loss_rate=mean([run.loss_rate for run in runs]),
        rtts_ns=[r for run in runs for r in run.rtts_ns],
        mice_fcts_ns=[f for run in runs for f in run.mice_fcts_ns],
    )


def reduce_pooled(cells, p) -> Dict[Any, Pooled]:
    """The elephant sweeps' one reducer: grid point -> :func:`pool` of
    its runs, keyed by the point's axis tuple, or by its bare value
    when the sweep has one axis."""
    return {point if len(point) > 1 else point[0]: pool(runs)
            for point, runs in cells}


def pct_ms(samples_ns: Sequence[int], pct: float) -> str:
    """A table cell: one percentile of nanosecond samples, in ms."""
    return f"{percentile(samples_ns, pct) / 1e6:.2f}" if samples_ns else "nan"


def normalize_to(baseline: Dict[str, float], other: Dict[str, float]) -> Dict[str, float]:
    """Relative change versus a baseline, as the paper's Tables 1/2
    (-0.56 means 56% shorter FCT than the baseline)."""
    out = {}
    for key, base in baseline.items():
        if key in other and base > 0:
            out[key] = (other[key] - base) / base
    return out


def mice_vs_ecmp(results: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Each scheme's mice FCT percentiles relative to ECMP's, as Tables
    1/2 print them; empty when the grid has no ECMP baseline."""
    if "ecmp" not in results:
        return {}
    base = results["ecmp"].mice_percentiles_ms()
    return {scheme: normalize_to(base, res.mice_percentiles_ms())
            for scheme, res in results.items() if scheme != "ecmp"}


def vs_ecmp_cell(normalized: Dict[str, Dict[str, float]], scheme: str,
                 key: str) -> str:
    """A table cell out of :func:`mice_vs_ecmp`."""
    if scheme == "ecmp":
        return "baseline"
    change = normalized.get(scheme, {}).get(key)
    return "n/a" if change is None else f"{change:+.0%}"


# --- the parameters the paper sweeps share -----------------------------------


def each_in(vocabulary, noun: str) -> Callable[[Sequence[str]], Tuple[str, ...]]:
    """A ``Param.coerce`` admitting only values from ``vocabulary`` — a
    sequence, or a callable returning the live one (registries grow)."""

    def coerce(values: Sequence[str]) -> Tuple[str, ...]:
        known = vocabulary() if callable(vocabulary) else vocabulary
        unknown = [v for v in values if v not in known]
        if unknown:
            raise ValueError(f"unknown {noun}(s) {', '.join(unknown)}; "
                             f"pick from {', '.join(known)}")
        return tuple(values)

    return coerce


known_schemes = each_in(scheme_names, "scheme")


def known_topology(spec: str) -> str:
    as_spec(spec)  # raises ValueError naming the grammar
    return spec


def topology_param(help: str) -> Param:
    """One optional fabric for the whole sweep; None = the experiment's
    own (which keeps its historic spec hashes)."""
    return Param("topology", None, "--topology", help=help,
                 coerce=lambda spec: (None if spec is None
                                      else known_topology(spec)))


def schemes_param(default: Sequence[str]) -> Param:
    return Param("schemes", tuple(default), "--schemes", "strs",
                 f"comma-separated scheme subset (default: "
                 f"{','.join(default)})", coerce=known_schemes)


def fidelity_param(default: Optional[str] = None) -> Param:
    """``fidelity`` rides inside each cell's *config*, where "packet"
    normalizes to the omitted None, so explicit-packet cells hash — and
    hit the result store — exactly like historic ones."""
    return Param("fidelity", default, "--fidelity",
                 help="engine fidelity for every cell: 'packet' queues "
                      "frames, 'flow' runs the fluid engine (repro.fluid); "
                      f"default: {default or 'packet'}",
                 choices=("packet", "flow"))


def _positive_scale(scale: float) -> float:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return scale


#: shrinks an experiment's base windows for smoke runs (see scaled_ns)
SCALE = Param("scale", 1.0, "--scale", "float",
              "window scale factor (tests/smoke use e.g. 0.2)",
              coerce=_positive_scale)


def scaled_ns(base_ns: int, scale: float) -> int:
    """Scale a window, floored so a tiny test scale still simulates."""
    return max(int(base_ns * scale), usec(100))


WARM = Param("warm_ns", DEFAULT_WARM_NS, "--warm-ms", "ms",
             "warmup window before measurement, simulated ms (default: 15)")
MEASURE = Param("measure_ns", DEFAULT_MEASURE_NS, "--measure-ms", "ms",
                "measurement window, simulated ms (default: 30)")

PAPER_SCHEMES = ("ecmp", "mptcp", "presto", "optimal")


def elephant_grid_sweep(
    name: str,
    description: str,
    points_name: str,
    point_word: str,
    cell_fn: Callable[..., RunResult],
    config_fn: Callable[..., TestbedConfig],
) -> Sweep:
    """Figs 7-9 and Figs 10-12 are one sweep over two fabrics: scheme x
    fabric size x seed elephant runs, pooled per (scheme, size).
    ``point_word`` names the size axis in labels and table headers."""

    def cell(scheme: str, n: int, seed: int, p: Dict[str, Any]) -> JobSpec:
        return JobSpec.make(
            cell_fn,
            cfg=config_fn(scheme, n, seed, p["fidelity"]),
            label=f"{name}/{scheme}/{point_word}{n}/seed{seed}",
            warm_ns=p["warm_ns"],
            measure_ns=p["measure_ns"],
            with_probes=p["with_probes"],
        )

    def table(grid):
        headers = ["scheme", point_word, "tput Gbps", "loss", "jain",
                   "rtt p50 ms", "rtt p99 ms"]
        return headers, [
            [scheme, n, f"{pt.mean_tput_bps / 1e9:.2f}",
             f"{pt.loss_rate:.4%}", f"{pt.fairness:.3f}",
             pct_ms(pt.rtts_ns, 50), pct_ms(pt.rtts_ns, 99)]
            for (scheme, n), pt in grid.items()]

    return Sweep(
        name=name,
        description=description,
        params=(
            schemes_param(PAPER_SCHEMES),
            Param(points_name, (2, 4, 6, 8), "--points", "ints",
                  f"comma-separated {point_word[:-1]} counts "
                  f"(default: 2,4,6,8)"),
            seeds_param((1, 2, 3)),
            WARM,
            MEASURE,
            Param("with_probes", True),
            TELEMETRY,
            fidelity_param(),
        ),
        axes=("schemes", points_name),
        cell=cell,
        reduce=reduce_pooled,
        table=table,
    )
