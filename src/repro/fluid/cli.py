"""``python -m repro.fluid`` — cross-fidelity tooling.

``compare`` runs the same experiment grid at packet and flow fidelity
and writes the per-metric divergence report (see
:mod:`repro.fluid.compare`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.fluid.compare import (
    DEFAULT_SCHEMES,
    EXPERIMENTS,
    compare_report,
    write_report,
)
from repro.runner.cli import KINDS


def _csv(value: str) -> List[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fluid",
        description="fluid-engine tooling: packet-vs-flow divergence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_p = sub.add_parser(
        "compare",
        help="run the grid at both fidelities; write divergence JSON")
    cmp_p.add_argument(
        "--experiments", type=_csv, default=list(EXPERIMENTS),
        metavar="A,B", help=f"families to compare (default: all of "
        f"{','.join(EXPERIMENTS)})")
    cmp_p.add_argument(
        "--schemes", type=_csv, default=list(DEFAULT_SCHEMES),
        metavar="S,S", help="schemes per cell (default: "
        + ",".join(DEFAULT_SCHEMES) + ")")
    cmp_p.add_argument(
        "--seeds", type=KINDS["ints"], default=(1, 2, 3), metavar="N,N")
    cmp_p.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every warm/measure window (0.1 = ten times shorter)")
    cmp_p.add_argument("--out", default="FLUID_COMPARE.json",
                       help="report path (default: %(default)s)")
    cmp_p.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command != "compare":  # pragma: no cover - argparse guards
        parser.error(f"unknown command {ns.command!r}")
    unknown = [e for e in ns.experiments if e not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"pick from {', '.join(EXPERIMENTS)}")
    log = (lambda msg: None) if ns.quiet else (
        lambda msg: print(msg, file=sys.stderr))
    report = compare_report(
        experiments=ns.experiments,
        seeds=ns.seeds,
        scale=ns.scale,
        schemes=ns.schemes,
        log=log,
    )
    write_report(report, ns.out)
    if not ns.quiet:
        for experiment, family in sorted(report["experiments"].items()):
            print(f"{experiment}:")
            print(json.dumps(family["summary"], indent=2, sort_keys=True))
        print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
