"""``python -m repro.runner`` — list, run and summarize paper sweeps.

Commands::

    python -m repro.runner list
    python -m repro.runner run scalability --jobs 4
    python -m repro.runner run oversub --points 2,4 --seeds 1,2 --force
    python -m repro.runner run fabric --service http://127.0.0.1:8642
    python -m repro.runner run tournament --check
    python -m repro.runner summary
    python -m repro.runner store gc

``run SWEEP`` is the one way to run a sweep.  Its flags are derived:
one per parameter the sweep declares (``run SWEEP --help`` lists
them), the execution flags every job-executing command shares, and —
for sweeps with a committed artifact — ``--out/--check/--markdown``.
It writes the rendered table to ``<results-dir>/runner_<sweep>.txt``
and a machine-readable ``runner_<sweep>.json``; per-job results land in
``<results-dir>/store/<hash>.json``, which is what makes a re-run
resume instead of re-simulate.

Exit status: 0, 1 when the sweep's own verdict fails (a claim's check,
a soak invariant, a crashed cell of either) or ``--check`` finds drift,
2 for a flag value the sweep cannot run with.

This module also owns the flag plumbing :mod:`repro.service.cli`
reuses (:func:`add_force_flag`, :func:`add_retries_flag`,
:func:`add_param_flags`, :func:`param_values`), so each flag and each
rejection message is defined once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.serialize import artifact_json, movement
from repro.runner.store import DEFAULT_RESULTS_DIR, RESULTS_DIR_ENV, ResultStore
from repro.runner.sweep import TELEMETRY, Param, Sweep, SweepOptions
from repro.units import msec


class UsageError(Exception):
    """A flag value the command cannot run with; ``main`` prints the
    message to stderr and exits with status 2."""


# --- execution flags: shared by every job-executing command ------------------


def add_retries_flag(parser: argparse.ArgumentParser) -> None:
    """``--retries`` alone: the coordinator owns its queue's budget but
    executes no jobs itself, so it takes none of the other flags."""
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="how many times a job that raises (or times out) is re-run "
             "before it reports failed; a dead worker or an expired "
             "lease is not charged (default: 1; see EXPERIMENTS.md "
             "'Running sweeps')")


def add_force_flag(parser: argparse.ArgumentParser) -> None:
    """``--force`` alone: all of a run's execution that ``service
    submit`` can pass on — the rest is the coordinator's business."""
    parser.add_argument(
        "--force", action="store_true",
        help="invalidate cached results for these jobs and re-run")


def add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs/--force/--timeout/--retries/--service/--results-dir/
    --no-store/--quiet``."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: os.cpu_count(); 1 = in-process "
             "serial)")
    add_force_flag(parser)
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock timeout; a hung job is killed, retried, "
             "then reported failed")
    add_retries_flag(parser)
    parser.set_defaults(retries=None)  # None unless given: see --service
    parser.add_argument(
        "--service", default=None, metavar="URL",
        help="run the jobs on a sweep coordinator (python -m "
             "repro.service coordinator) instead of a local pool, e.g. "
             "http://127.0.0.1:8642")
    parser.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help=f"results root (default: ${RESULTS_DIR_ENV} or "
             f"{DEFAULT_RESULTS_DIR})")
    parser.add_argument(
        "--no-store", action="store_true",
        help="skip the result store entirely: nothing cached, nothing "
             "resumed")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress lines")


#: where each local execution flag's setting lives with ``--service``
SERVICE_SIDE = {
    "--jobs": "the number of workers started against the coordinator",
    "--timeout": "the coordinator's --lease-ttl",
    "--retries": "the coordinator's --retries"}


def execution_options(ns: argparse.Namespace) -> SweepOptions:
    """The parsed execution flags as :class:`SweepOptions`."""
    given = [flag for flag in SERVICE_SIDE
             if ns.service and getattr(ns, flag[2:]) is not None]
    if given:
        raise UsageError(
            f"{', '.join(given)} cannot be used with --service: " + "; ".join(
                f"{flag} is {SERVICE_SIDE[flag]}" for flag in given))
    if ns.jobs is not None and ns.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {ns.jobs}")
    if ns.timeout is not None and ns.timeout <= 0:
        raise UsageError(f"--timeout must be positive, got {ns.timeout}")
    if ns.retries is not None and ns.retries < 0:
        raise UsageError(f"--retries must be >= 0, got {ns.retries}")
    return SweepOptions(
        jobs=ns.jobs,
        store=None if ns.no_store else ResultStore(ns.results_dir),
        force=ns.force,
        timeout_s=ns.timeout,
        retries=SweepOptions.retries if ns.retries is None else ns.retries,
        log=None if ns.quiet else (lambda msg: print(msg, file=sys.stderr)),
        service=ns.service,
    )


# --- parameter flags: derived from Param declarations ------------------------


def _csv_strs(text: str) -> Tuple[str, ...]:
    return tuple(s for s in text.split(",") if s)


def _csv_ints(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s)
    except ValueError as exc:
        raise ValueError(f"must be comma-separated integers: {exc}") from None


#: how a flag's text becomes a parameter value, by ``Param.kind``
#: ("flag" = store_true and "each" = repeatable carry no text to convert)
KINDS: Dict[str, Callable[[str], Any]] = {
    "str": str,
    "int": int,
    "float": float,
    "strs": _csv_strs,
    "ints": _csv_ints,
    # simulated milliseconds on the command line, integer ns inside
    "ms": lambda text: msec(float(text)),
}
#: what --help shows in place of the value, by kind
METAVARS = {"int": "N", "float": "F", "strs": "A,B", "ints": "N,N",
            "ms": "MS", "each": "SPEC"}


def add_param_flags(parser: argparse.ArgumentParser,
                    params: Sequence[Param]) -> None:
    """One flag per parameter that names one.  Values stay text here
    and convert in :func:`param_values`, so a bad value is reported
    the same way whichever flag carried it."""
    for p in params:
        if p.flag is None:
            continue
        if p.kind == "flag":
            parser.add_argument(p.flag, dest=p.name, action="store_true",
                                help=p.help)
        else:
            parser.add_argument(
                p.flag, dest=p.name, default=None, choices=p.choices,
                action="append" if p.kind == "each" else "store",
                metavar=METAVARS.get(p.kind), help=p.help)


def param_values(params: Sequence[Param],
                 ns: argparse.Namespace) -> Dict[str, Any]:
    """The parameters the command line set, converted and validated;
    unset ones are left out so their declared defaults apply."""
    values: Dict[str, Any] = {}
    for p in params:
        raw = getattr(ns, p.name) if p.flag else None
        if raw is None or raw is False:
            continue
        try:
            if p.kind == "each":
                value = tuple(raw)
            else:
                value = raw if p.kind == "flag" else KINDS[p.kind](raw)
            values[p.name] = p.coerce(value) if p.coerce else value
        except ValueError as exc:
            raise UsageError(f"bad {p.flag}: {exc}") from None
    return values


# --- the commands ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel sweep runner with a persistent, resumable "
                    "result store.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the available sweeps")

    # `run` parses per sweep (see _cmd_run); this stub documents it
    sub.add_parser(
        "run", help="run one sweep through the job pool",
        usage="python -m repro.runner run SWEEP [flags]",
        description="SWEEP is a name from `list`; `run SWEEP --help` "
                    "shows that sweep's own flags.")

    summary = sub.add_parser(
        "summary", help="show what the result store already holds"
    )
    summary.add_argument("--results-dir", default=None, metavar="DIR")

    store = sub.add_parser(
        "store", help="result-store maintenance (currently: gc)"
    )
    store.add_argument(
        "action", choices=("gc",),
        help="gc: remove orphaned *.tmp files left by killed writers "
             "and structurally-corrupt records",
    )
    store.add_argument("--results-dir", default=None, metavar="DIR")
    return parser


def _cmd_list() -> int:
    from repro.runner.sweeps import SWEEPS

    width = max(len(name) for name in SWEEPS)
    for name, sweep in SWEEPS.items():
        first, *more = sweep.description.split("\n")
        print(f"{name.ljust(width)}  {first}")
        for line in more:
            print(f"{' ' * width}    {line}")
    return 0


def run_parser(sweep: Sweep) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.runner run {sweep.name}",
        description=sweep.description.split("\n")[0])
    add_param_flags(parser, sweep.params)
    add_execution_flags(parser)
    parser.set_defaults(trace=False, metrics_out=None)
    if TELEMETRY in sweep.params:
        parser.add_argument(
            "--trace", action="store_true",
            help="record per-cell event traces; Chrome/Perfetto-loadable "
                 "JSON lands in <results-dir>/traces/ (implies metric "
                 "snapshots in each stored result)")
        parser.add_argument(
            "--metrics-out", default=None, metavar="FILE",
            help="collect per-cell metric snapshots (counters/gauges/"
                 "histograms) and write them to FILE as JSON")
    if sweep.artifact is not None:
        parser.add_argument(
            "--out", default=sweep.artifact.path, metavar="FILE",
            help=f"artifact path (default: {sweep.artifact.path})")
        parser.add_argument(
            "--check", action="store_true",
            help="compare against the committed --out file instead of "
                 "writing it; exit 1 on any drift")
        parser.add_argument(
            "--markdown", default=None, metavar="FILE",
            help="also write the markdown report to FILE")
    return parser


def sweep_params(sweep: Sweep, ns: argparse.Namespace) -> Dict[str, Any]:
    """``param_values`` plus the telemetry config ``--trace`` /
    ``--metrics-out`` ask for (its trace directory hangs off the
    results root)."""
    params = param_values(sweep.params, ns)
    if ns.trace or ns.metrics_out:
        from repro.telemetry.core import TelemetryConfig

        root = ResultStore(ns.results_dir).root
        params["telemetry"] = TelemetryConfig(
            metrics=True,
            trace=ns.trace,
            trace_dir=os.path.join(root, "traces") if ns.trace else None,
        )
    return params


def format_table(headers: List[str], rows: List[List[object]]) -> str:
    """Plain-text table for experiment output, GitHub-markdown style."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def save_table(stem: str, name: str, table: str,
               data: Any = None) -> Tuple[str, str]:
    """Write a rendered table as ``<stem>.txt`` and, machine-readable,
    ``<stem>.json`` (``data`` encoded so ``from_jsonable`` restores the
    original dataclasses)."""
    os.makedirs(os.path.dirname(stem) or ".", exist_ok=True)
    with open(f"{stem}.txt", "w") as fh:
        fh.write(table + "\n")
    payload = {"name": name, "table": table}
    if data is not None:
        payload["data"] = data
    with open(f"{stem}.json", "w") as fh:
        fh.write(artifact_json(payload))
    return f"{stem}.txt", f"{stem}.json"


def _cmd_run(argv: List[str]) -> int:
    from repro.runner.sweeps import SWEEPS

    if not argv or argv[0].startswith("-"):
        raise UsageError(
            f"a sweep name is required; available: {', '.join(SWEEPS)}")
    name = argv[0]
    sweep = SWEEPS.get(name)
    if sweep is None:
        raise UsageError(
            f"unknown sweep {name!r}; available: {', '.join(SWEEPS)}")
    ns = run_parser(sweep).parse_args(argv[1:])
    options = execution_options(ns)
    try:
        payload = sweep.run(**sweep_params(sweep, ns), **vars(options))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    table = format_table(*sweep.table(payload))
    print(table)

    root = ResultStore(ns.results_dir).root
    txt_path, json_path = save_table(
        os.path.join(root, f"runner_{name}"), name, table, payload)
    print(f"saved {txt_path} and {json_path}", file=sys.stderr)

    if ns.metrics_out:
        _write_metrics_out(ResultStore(ns.results_dir), name, ns.metrics_out)
    if ns.trace:
        print(f"traces in {os.path.join(root, 'traces')} "
              "(load a .trace.json at https://ui.perfetto.dev)",
              file=sys.stderr)
    ok = sweep.ok(payload)
    if not ok:
        print("the result's own checks FAILED (see the table)",
              file=sys.stderr)
    if sweep.artifact is not None:
        ok = _artifact_gate(sweep.artifact, payload, ns) and ok
    return 0 if ok else 1


def _artifact_gate(artifact, payload: Any, ns: argparse.Namespace) -> bool:
    """Write the artifact, or with ``--check`` compare it with the
    committed file and print what moved; False = drift."""
    if ns.markdown:
        with open(ns.markdown, "w") as fh:
            fh.write(artifact.to_markdown(payload))
        print(f"saved {ns.markdown}", file=sys.stderr)
    new = artifact_json(payload)
    if not ns.check:
        with open(ns.out, "w") as fh:
            fh.write(new)
        print(f"saved {ns.out}", file=sys.stderr)
        return True
    try:
        with open(ns.out) as fh:
            committed = fh.read()
    except OSError as exc:
        print(f"--check: cannot read {ns.out}: {exc}", file=sys.stderr)
        return False
    if committed == new:
        print(f"--check: {ns.out} reproduced byte-for-byte", file=sys.stderr)
        return True
    try:
        old = json.loads(committed)
    except ValueError as exc:
        print(f"--check: {ns.out} is not JSON ({exc})", file=sys.stderr)
        return False
    for line in movement(old, json.loads(new)):
        print(f"--check: {line}", file=sys.stderr)
    print(f"--check: {ns.out} drifted from this run (regenerate with the "
          f"same flags and review the diff)", file=sys.stderr)
    return False


def _write_metrics_out(store: ResultStore, sweep_name: str, path: str) -> None:
    """Collect each stored cell's metric snapshot into one JSON file.

    Scans the result store for this sweep's labels; cells recorded
    without telemetry carry no snapshot and are skipped.
    """
    cells = {}
    for record in store.records():
        label = record.get("label", "")
        if not label.startswith(f"{sweep_name}/"):
            continue
        metrics = record.get("result", {}).get("fields", {}).get("metrics")
        if metrics is not None:
            cells[label] = metrics
    with open(path, "w") as fh:
        json.dump({"sweep": sweep_name, "cells": cells},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"saved metric snapshots for {len(cells)} cell(s) to {path}",
          file=sys.stderr)


def _cmd_store(ns: argparse.Namespace) -> int:
    store = ResultStore(ns.results_dir)
    stats = store.gc()
    print(f"store gc at {store.store_dir}: "
          f"removed {stats['tmp_removed']} orphaned tmp file(s) and "
          f"{stats['corrupt_removed']} corrupt record(s); "
          f"{stats['kept']} record(s) kept")
    return 0


def _cmd_summary(ns: argparse.Namespace) -> int:
    store = ResultStore(ns.results_dir)
    rows: List[List[object]] = []
    total_elapsed = 0.0
    for record in store.records():
        total_elapsed += record.get("elapsed_s", 0.0)
        rows.append([
            record.get("hash", "?"),
            record.get("label", "?"),
            f"{record.get('elapsed_s', 0.0):.1f}s",
            record.get("attempts", "?"),
        ])
    if not rows:
        print(f"result store at {store.store_dir} is empty")
        return 0
    print(format_table(["hash", "job", "elapsed", "attempts"], rows))
    print(f"\n{len(rows)} cached job(s), "
          f"{total_elapsed:.1f}s of simulation on disk "
          f"({store.store_dir})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv[:1] == ["run"] and argv[1:] not in (["-h"], ["--help"]):
            return _cmd_run(argv[1:])
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "list":
        return _cmd_list()
    if ns.command == "summary":
        return _cmd_summary(ns)
    if ns.command == "store":
        return _cmd_store(ns)
    parser.print_help()
    return 0
