"""Cross-fidelity divergence report: packet engine vs fluid engine.

``python -m repro.runner run compare`` (the :data:`COMPARE` sweep) runs
the same experiment cells at both fidelities — only ``cfg.fidelity``
differs — and reports, per cell and per metric, how far the fluid
approximation strays from packet-level truth: mice FCT percentiles,
per-link utilization over the measurement window, and aggregate
goodput.  The report is fully deterministic (no wall-clock anywhere in
the payload); the committed ``FLUID_COMPARE.json`` is its artifact, so
``--check`` diffs a re-run against it byte for byte and names the
experiment, cell and metric that moved.

Two experiment families, chosen because the paper's headline claims
live there:

* ``scalability`` — stride elephants plus a mice stream across a
  2-leaf Clos (Figs 9/11 territory): FCT percentiles + utilization.
* ``failover`` — the Fig 17 timeline: a spine link dies mid-run;
  per-phase goodput, time-to-failover/rebalance and link utilization.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.experiments.common import (
    SCALE,
    each_in,
    fct_percentiles,
    scaled_ns,
    schemes_param,
)
from repro.experiments.harness import Testbed, TestbedConfig
from repro.experiments.scalability import scalability_config
from repro.faults.schedule import FaultSchedule, LinkDown
from repro.metrics.collectors import Window
from repro.runner import JobSpec
from repro.runner.sweep import Artifact, Param, Sweep, seeds_param
from repro.units import KB, SEC, msec

SCHEMA = "repro.fluid.compare/1"
COMPARE_PATH = "FLUID_COMPARE.json"

EXPERIMENTS = ("scalability", "failover")
FIDELITIES = ("packet", "flow")

#: default schemes compared per cell (the paper's protagonist and its
#: baseline; both must agree across fidelities for the ``_flow`` claims
#: to hold)
DEFAULT_SCHEMES = ("presto", "ecmp")


def _utilization(window: Window, tb) -> Dict[str, float]:
    """Each port's carried bytes as a fraction of its line rate."""
    rate_bps = {port.name: port.link.rate_bps for port in tb.ports()}
    return {name: round(nbytes * 8 * SEC / (rate_bps[name] * window.span_ns), 6)
            for name, nbytes in window.port_tx_bytes().items()}


def _agg_gbps(window: Window) -> float:
    return round(sum(window.flow_rates_bps().values()) / 1e9, 4)


# --- cell runners ------------------------------------------------------------


def run_scalability_cell(cfg: TestbedConfig, warm_ns: int,
                         measure_ns: int) -> Dict:
    """Stride elephants + a mice stream on the scalability topology;
    FCTs, utilization over the measure window, aggregate goodput."""
    n_paths = cfg.n_spines
    tb = Testbed(cfg)
    apps = [tb.add_elephant(i, n_paths + i) for i in range(n_paths)]
    mice = tb.add_mice(0, n_paths, size_bytes=50 * KB,
                       interval_ns=msec(2),
                       stop_ns=warm_ns + measure_ns)
    tb.run(warm_ns)
    window = Window(tb, apps)
    tb.run(warm_ns + measure_ns)
    window.close()
    return {
        "agg_gbps": _agg_gbps(window),
        "fct_percentiles_ms": {k: round(v, 6) for k, v in
                               fct_percentiles(mice.fcts_ns).items()},
        "mice_count": len(mice.fcts_ns),
        "link_utilization": _utilization(window, tb),
    }


def run_failover_cell(cfg: TestbedConfig, warm_ns: int,
                      measure_ns: int) -> Dict:
    """Fig 17 shape: 4 L1→L4 elephants, spine link L1--S1 dies after
    the symmetric phase; per-phase goodput and whole-run utilization."""
    tb = Testbed(cfg)
    tb.controller.enable_fast_failover(cfg.failover_latency_ns)
    tb.enable_control_plane()
    apps = [tb.add_elephant(i, 12 + i) for i in range(4)]
    t_fault = warm_ns + measure_ns
    t_end = t_fault + 2 * measure_ns
    FaultSchedule.of(LinkDown(t_fault, "L1--S1")).arm(tb.sim, tb.topo)

    tb.run(warm_ns)
    whole_run, before = Window(tb), Window(tb, apps)
    tb.run(t_fault)
    before.close()
    tb.run(t_fault + cfg.failover_latency_ns + msec(1))
    after = Window(tb, apps)
    tb.run(t_end)
    return {
        "phase_agg_gbps": {"before": _agg_gbps(before),
                           "after": _agg_gbps(after.close())},
        "link_utilization": _utilization(whole_run.close(), tb),
    }


# --- divergence --------------------------------------------------------------


def _rel(packet: float, flow: float) -> Optional[float]:
    if packet == 0:
        return None
    return round((flow - packet) / packet, 6)


def _divergence(packet: Dict, flow: Dict) -> Dict:
    out: Dict[str, object] = {}
    fct_p = packet.get("fct_percentiles_ms") or {}
    fct_f = flow.get("fct_percentiles_ms") or {}
    for key in sorted(set(fct_p) & set(fct_f)):
        out[f"fct_{key}_rel"] = _rel(fct_p[key], fct_f[key])
    if "agg_gbps" in packet and "agg_gbps" in flow:
        out["agg_rel"] = _rel(packet["agg_gbps"], flow["agg_gbps"])
    for name, agg_p in (packet.get("phase_agg_gbps") or {}).items():
        agg_f = (flow.get("phase_agg_gbps") or {}).get(name)
        if agg_f is not None:
            out[f"phase_{name}_rel"] = _rel(agg_p, agg_f)
    util_p = packet.get("link_utilization") or {}
    util_f = flow.get("link_utilization") or {}
    shared = sorted(set(util_p) & set(util_f))
    if shared:
        gaps = [abs(util_f[k] - util_p[k]) for k in shared]
        out["link_util_mean_abs"] = round(sum(gaps) / len(gaps), 6)
        out["link_util_max_abs"] = round(max(gaps), 6)
        out["link_util_links"] = len(shared)
    return out


# --- the sweep ---------------------------------------------------------------

#: experiment family -> (cell function, (scheme, seed, fidelity) -> config)
_FAMILIES = {
    "scalability": (run_scalability_cell, lambda scheme, seed, fidelity:
                    scalability_config(scheme, 4, seed, fidelity)),
    "failover": (run_failover_cell, lambda scheme, seed, fidelity:
                 TestbedConfig(scheme=scheme, seed=seed, fidelity=fidelity)),
}


def _cell(experiment: str, scheme: str, fidelity: str, seed: int,
          p: Dict[str, Any]) -> JobSpec:
    run_cell, config = _FAMILIES[experiment]
    return JobSpec.make(
        run_cell, cfg=config(scheme, seed, fidelity),
        label=f"compare/{experiment}/{scheme}/{fidelity}/seed{seed}",
        warm_ns=scaled_ns(msec(10), p["scale"]),
        measure_ns=scaled_ns(msec(20), p["scale"]))


def _reduce(cells, p: Dict[str, Any]) -> Dict:
    """Pair every (experiment, scheme, seed) cell's two fidelities and
    fold per-metric divergence into one JSON-able report."""
    sides = dict(cells)
    report: Dict = {
        "schema": SCHEMA,
        "scale": p["scale"],
        "seeds": list(p["seeds"]),
        "schemes": list(p["schemes"]),
        "experiments": {},
    }
    for experiment in p["experiments"]:
        paired: Dict[str, Dict] = {}
        for scheme in p["schemes"]:
            for seed, packet, flow in zip(
                    p["seeds"], *(sides[experiment, scheme, fidelity]
                                  for fidelity in FIDELITIES)):
                paired[f"{scheme}/seed{seed}"] = {
                    "packet": packet,
                    "flow": flow,
                    "divergence": _divergence(packet, flow),
                }
        report["experiments"][experiment] = {
            "cells": paired,
            "summary": _summarize(paired),
        }
    return report


def _summarize(cells: Dict[str, Dict]) -> Dict:
    """Worst-case per-metric divergence across a family's cells."""
    worst: Dict[str, float] = {}
    for cell in cells.values():
        for key, value in cell["divergence"].items():
            if key == "link_util_links" or value is None:
                continue
            magnitude = abs(value)
            if magnitude > abs(worst.get(key, 0.0)):
                worst[key] = value
    return {key: worst[key] for key in sorted(worst)}


def _summary_rows(report: Dict) -> List[List[object]]:
    return [[experiment, metric, worst]
            for experiment, family in sorted(report["experiments"].items())
            for metric, worst in family["summary"].items()]


def render_markdown(report: Dict) -> str:
    rows = [f"| {experiment} | {metric} | {worst:+.4f} |"
            for experiment, metric, worst in _summary_rows(report)]
    return "\n".join([
        "# Packet vs flow fidelity: worst divergence per metric",
        "",
        "`*_rel` = (flow - packet) / packet; `link_util_*` = absolute "
        "utilization gap.  Per-cell numbers are in the JSON report.",
        "",
        "| experiment | metric | worst divergence |",
        "| --- | --- | ---: |",
        *rows, ""])


def _divergences(report: Dict) -> Dict[str, Optional[float]]:
    return {f"{experiment}/{cell} {metric}": value
            for experiment, family in report.get("experiments", {}).items()
            for cell, record in family["cells"].items()
            for metric, value in record["divergence"].items()}


def _drift(old: Dict, new: Dict) -> List[str]:
    """Every experiment/cell/metric whose divergence moved."""
    was, now = _divergences(old), _divergences(new)
    return [f"{key} drifted: committed {was.get(key)!r} != new "
            f"{now.get(key)!r}"
            for key in sorted(was.keys() | now.keys())
            if was.get(key) != now.get(key)]


#: grid order experiment > scheme > fidelity > seed; defaults reproduce
#: the committed FLUID_COMPARE.json
COMPARE = Sweep(
    name="compare",
    description="packet vs flow fidelity: the same cells on both "
                "engines, per-metric divergence; defaults reproduce the "
                "committed FLUID_COMPARE.json",
    params=(
        Param("experiments", EXPERIMENTS, "--experiments", "strs",
              f"families to compare (default: {','.join(EXPERIMENTS)})",
              coerce=each_in(EXPERIMENTS, "experiment")),
        seeds_param((1, 2, 3)),
        SCALE,
        schemes_param(DEFAULT_SCHEMES),
    ),
    axes=("experiments", "schemes", lambda p: FIDELITIES),
    cell=_cell,
    reduce=_reduce,
    table=lambda report: (["experiment", "metric", "worst divergence"],
                          _summary_rows(report)),
    artifact=Artifact(
        COMPARE_PATH,
        lambda report: json.dumps(report, indent=2, sort_keys=True) + "\n",
        render_markdown, drift=_drift),
)
