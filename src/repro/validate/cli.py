"""``python -m repro.validate`` — run the paper-fidelity oracle suite.

Commands::

    python -m repro.validate list
    python -m repro.validate run --all --seeds 1,2,3 --jobs 4
    python -m repro.validate run gro_reordering --scale 0.5 --no-store
    python -m repro.validate report

``run`` fans every (oracle, scheme, seed) cell through the parallel
runner (cached in the result store, so re-runs resume), prints a
verdict table and writes machine-readable ``VALIDATION.json``.  Exit
status is non-zero when any oracle check fails — CI-friendly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.experiments.common import known_topology
from repro.runner.cli import (
    UsageError,
    add_execution_flags,
    add_param_flags,
    execution_options,
    param_values,
)
from repro.runner.sweep import Param, seeds_param

DEFAULT_OUT = "VALIDATION.json"


def _positive(value: float) -> float:
    if value <= 0:
        raise ValueError(f"must be positive, got {value}")
    return value


#: the grid knobs of ``run`` — keywords of ``run_oracles``
RUN_PARAMS = (
    seeds_param((1, 2, 3)),
    Param("scale", 1.0, "--scale", "float",
          "window scale factor (tests/smoke use e.g. 0.2)",
          coerce=_positive),
    Param("fidelity", None, "--fidelity",
          help="simulation fidelity: packet (default) or the fluid "
               "flow-level engine (skips packet-only oracles with --all)",
          choices=("packet", "flow")),
    Param("topology", None, "--topology",
          help="fabric for topology-agnostic oracles, e.g. 'fat-tree:k=4' "
               "(skips fabric-pinned oracles with --all)",
          coerce=known_topology),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Paper-fidelity validation: figure oracles over a "
                    "seed sweep, VALIDATION.json out.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the available figure oracles")

    run = sub.add_parser("run", help="run oracles and write VALIDATION.json")
    run.add_argument(
        "oracles", nargs="*",
        help="oracle names (see `list`); default with --all: all of them",
    )
    run.add_argument(
        "--all", action="store_true",
        help="run every registered oracle",
    )
    add_param_flags(run, RUN_PARAMS)
    add_execution_flags(run, no_store=True)
    run.add_argument(
        "--out", default=DEFAULT_OUT, metavar="FILE",
        help=f"machine-readable output path (default: ./{DEFAULT_OUT})",
    )

    report = sub.add_parser(
        "report", help="render an existing VALIDATION.json as a table")
    report.add_argument(
        "--in", dest="path", default=DEFAULT_OUT, metavar="FILE",
        help=f"VALIDATION.json to read (default: ./{DEFAULT_OUT})",
    )
    return parser


def _cmd_list() -> int:
    from repro.experiments.harness import format_table
    from repro.validate.oracles import ORACLES

    print(format_table(
        ["oracle", "figure", "claim"],
        [[od.name, od.figure, od.description] for od in ORACLES.values()],
    ))
    return 0


def _report_rows(reports) -> List[List[object]]:
    rows = []
    for report in reports:
        for check in report.checks:
            observed = " ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(check.observed.items())
            )
            rows.append([
                report.oracle,
                check.name,
                "PASS" if check.passed else "FAIL",
                observed,
            ])
    return rows


def _cmd_run(ns: argparse.Namespace) -> int:
    from repro.experiments.harness import format_table
    from repro.validate.oracles import ORACLES, oracle_names, run_oracles
    from repro.validate.report import write_validation_json

    options = execution_options(ns)
    grid = param_values(RUN_PARAMS, ns)
    fidelity, topology = grid.get("fidelity"), grid.get("topology")
    known = oracle_names()
    names = tuple(ns.oracles)
    if ns.all:
        if names:
            raise UsageError("pass either oracle names or --all, not both")
        names = known
        if fidelity == "flow":
            skipped = [n for n in names if ORACLES[n].packet_only]
            names = tuple(n for n in names if not ORACLES[n].packet_only)
            if skipped and not ns.quiet:
                print(f"skipping packet-only oracle(s) at --fidelity flow: "
                      f"{', '.join(skipped)}", file=sys.stderr)
        if topology is not None:
            skipped = [n for n in names if ORACLES[n].fixed_topology]
            names = tuple(n for n in names if not ORACLES[n].fixed_topology)
            if skipped and not ns.quiet:
                print(f"skipping fabric-pinned oracle(s) with --topology: "
                      f"{', '.join(skipped)}", file=sys.stderr)
    if not names:
        raise UsageError(f"no oracles selected; name some or pass --all "
                         f"(available: {', '.join(known)})")
    unknown = [n for n in names if n not in known]
    if unknown:
        raise UsageError(f"unknown oracle(s) {', '.join(unknown)}; "
                         f"pick from {', '.join(known)}")
    if fidelity == "flow":
        packet_only = [n for n in names if ORACLES[n].packet_only]
        if packet_only:
            raise UsageError(
                f"oracle(s) {', '.join(packet_only)} are packet-only "
                f"and cannot run at --fidelity flow")
    if topology is not None:
        pinned = [n for n in names if ORACLES[n].fixed_topology]
        if pinned:
            raise UsageError(
                f"oracle(s) {', '.join(pinned)} are pinned to a paper "
                f"fabric and ignore --topology")
    reports = run_oracles(names, **grid, **vars(options))
    seeds = reports[0].seeds
    print(format_table(["oracle", "check", "verdict", "observed"],
                       _report_rows(reports)))
    path = write_validation_json(reports, ns.out)
    n_passed = sum(1 for r in reports if r.passed)
    print(f"\n{n_passed}/{len(reports)} oracles passed "
          f"(seeds {','.join(map(str, seeds))}, "
          f"scale {grid.get('scale', 1.0):g}); "
          f"wrote {path}", file=sys.stderr)
    return 0 if n_passed == len(reports) else 1


def _cmd_report(ns: argparse.Namespace) -> int:
    from repro.experiments.harness import format_table

    try:
        with open(ns.path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {ns.path!r}: {exc}", file=sys.stderr)
        return 2
    rows = []
    for oracle in payload.get("oracles", []):
        for check in oracle.get("checks", []):
            fields = check.get("fields", check)
            observed = " ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(fields.get("observed", {}).items())
            )
            rows.append([
                oracle.get("oracle", "?"),
                fields.get("name", "?"),
                "PASS" if fields.get("passed") else "FAIL",
                observed,
            ])
    print(format_table(["oracle", "check", "verdict", "observed"], rows))
    passed = bool(payload.get("passed"))
    print(f"\noverall: {'PASS' if passed else 'FAIL'} ({ns.path})",
          file=sys.stderr)
    return 0 if passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help()
        return 0
    if ns.command == "list":
        return _cmd_list()
    if ns.command == "run":
        try:
            return _cmd_run(ns)
        except UsageError as exc:
            print(exc, file=sys.stderr)
            return 2
    if ns.command == "report":
        return _cmd_report(ns)
    parser.error(f"unknown command {ns.command!r}")
    return 2
