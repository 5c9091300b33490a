"""``python -m repro.faults`` — chaos soak + dynamic failure timelines.

Commands::

    python -m repro.faults soak --cases 20 --seed 0 --jobs 4
    python -m repro.faults soak --cases 1 --seed 7 --jobs 1 --no-store
    python -m repro.faults fig17 --workloads L1->L4 --seeds 1,2

``soak`` samples random self-restoring fault schedules, runs each
against a live testbed through :mod:`repro.runner` (cached in the
result store, so re-runs resume), and checks the conservation-law
invariants after every case.  Exit status is non-zero if any case
violates an invariant — CI-friendly.

``fig17`` runs the continuous symmetry -> failover -> weighted
timeline per workload and prints the per-phase means plus convergence
numbers from the single run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments.common import (
    MEASURE,
    WARM,
    each_in,
    fidelity_param,
    known_topology,
)
from repro.experiments.failure import FAILURE_WORKLOADS
from repro.faults.soak import DEFAULT_DEADLINE_NS, DEFAULT_FAULT_WINDOW_NS
from repro.runner.cli import (
    UsageError,
    add_execution_flags,
    add_param_flags,
    execution_options,
    param_values,
)
from repro.runner.sweep import Param, seeds_param


#: ``soak`` knobs — keywords of ``run_soak``
SOAK_PARAMS = (
    Param("n_cases", 20, "--cases", "int",
          "number of random (schedule, seed) cases (default: 20)"),
    Param("base_seed", 0, "--seed", "int",
          "base seed all cases derive from (default: 0)"),
    Param("max_faults", 2, "--max-faults", "int",
          "max composite faults per schedule (default: 2)"),
    Param("topology", None, "--topology",
          help="fabric under chaos, e.g. 'fat-tree:k=4' (default: the "
               "paper's 16-host Clos)", coerce=known_topology),
    Param("fault_window_ns", DEFAULT_FAULT_WINDOW_NS, "--window-ms", "ms",
          "fault window, all faults restored inside it (default: 40)"),
    Param("deadline_ns", DEFAULT_DEADLINE_NS, "--deadline-ms", "ms",
          "horizon by which flows + control plane must be done and the "
          "sim quiesced (default: 500)"),
)

#: ``fig17`` knobs
FIG17_PARAMS = (
    Param("workloads", FAILURE_WORKLOADS, "--workloads", "strs",
          "comma-separated workload subset", coerce=each_in(FAILURE_WORKLOADS, "workload")),
    seeds_param((1, 2)),
    WARM,
    MEASURE,
    fidelity_param(),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Fault injection: chaos soak and dynamic failure runs.",
    )
    sub = parser.add_subparsers(dest="command")

    soak = sub.add_parser(
        "soak", help="random fault schedules x seeds, invariants after each")
    add_param_flags(soak, SOAK_PARAMS)
    add_execution_flags(soak, no_store=True)

    fig = sub.add_parser(
        "fig17", help="continuous symmetry->failover->weighted run(s)")
    add_param_flags(fig, FIG17_PARAMS)
    return parser


def _cmd_soak(ns: argparse.Namespace) -> int:
    from repro.faults.soak import run_soak
    from repro.experiments.harness import format_table

    options = execution_options(ns)
    report = run_soak(**param_values(SOAK_PARAMS, ns), **vars(options))
    headers = ["case", "schedule", "verdict", "flows", "faults",
               "reactions", "violations"]
    print(format_table(headers, report.rows()))
    print(f"\n{report.n_passed}/{len(report.results)} cases passed "
          f"(base seed {report.base_seed})")
    return 0 if report.ok else 1


def _cmd_fig17(ns: argparse.Namespace) -> int:
    from repro.experiments.failure import STAGES, run_failure_timeline
    from repro.experiments.harness import TestbedConfig, format_table
    from repro.metrics.stats import mean

    p = {param.name: param.default for param in FIG17_PARAMS}
    p.update(param_values(FIG17_PARAMS, ns))
    workloads, seeds, fidelity = p["workloads"], p["seeds"], p["fidelity"]
    rows = []
    for workload in workloads:
        timelines = [
            run_failure_timeline(
                workload, seed, warm_ns=p["warm_ns"],
                measure_ns=p["measure_ns"],
                cfg=(TestbedConfig(scheme="presto", seed=seed,
                                   fidelity=fidelity)
                     if fidelity else None))
            for seed in seeds
        ]
        per_stage = {
            stage: mean([tl.phases[stage].mean_flow_tput_bps
                         for tl in timelines])
            for stage in STAGES
        }
        rebalance = [tl.convergence.time_to_rebalance_ns for tl in timelines
                     if tl.convergence.time_to_rebalance_ns is not None]
        blackholed = mean([tl.blackholed_bytes.get("total", 0)
                           for tl in timelines])
        rows.append([
            workload,
            *(f"{per_stage[stage] / 1e9:.2f}" for stage in STAGES),
            f"{mean(rebalance) / 1e6:.1f}" if rebalance else "nan",
            f"{blackholed / 1024:.0f}",
        ])
    headers = ["workload", "symmetry Gbps", "failover Gbps",
               "weighted Gbps", "rebalance ms", "blackholed KB"]
    print(format_table(headers, rows))
    print("\none continuous run per (workload, seed): the fault and the "
          "controller's reweight\nboth happen mid-simulation "
          "(fast failover carries the failover window).")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "soak":
            return _cmd_soak(ns)
        if ns.command == "fig17":
            return _cmd_fig17(ns)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    parser.print_help()
    return 2
