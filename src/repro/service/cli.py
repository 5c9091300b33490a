"""``python -m repro.service`` — run and talk to the sweep service.

Subcommands::

    coordinator  --host --port --results-dir --retries --lease-ttl
                 --max-queue [--quiet]
    worker       URL [--name N] [--poll S] [--max-idle S] [--max-jobs N]
    submit       URL SWEEP [sweep flags...] [--force]  # enqueue, don't wait
    status       URL [--json] [--watch S]    # one-shot or polling status

A typical two-machine sweep (see EXPERIMENTS.md "Sweep-as-a-service")::

    # terminal 1 — owns the result store and the dashboard at /
    python -m repro.service coordinator --results-dir benchmarks/results

    # terminals 2..N — anywhere that can reach terminal 1
    python -m repro.service worker http://coord:8642

    # terminal N+1 — the sweep CLI, pointed at the coordinator
    python -m repro.runner run scalability --service http://coord:8642
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.runner.cli import add_retries_flag
from repro.service import protocol
from repro.service.protocol import ServiceError, request_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="coordinator/worker sweep execution with leases, "
                    "backpressure and a live dashboard",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    coord = sub.add_parser(
        "coordinator", help="serve the job queue, store and dashboard")
    coord.add_argument("--host", default="127.0.0.1")
    coord.add_argument("--port", type=int, default=protocol.DEFAULT_PORT)
    coord.add_argument(
        "--results-dir", default=None,
        help="ResultStore root (default: $REPRO_RESULTS_DIR or "
             "benchmarks/results); restart a coordinator on the same "
             "root and resubmitted jobs it finished are store hits")
    add_retries_flag(coord)
    coord.add_argument(
        "--lease-ttl", type=float, default=protocol.DEFAULT_LEASE_TTL_S,
        metavar="S",
        help="seconds without a heartbeat before a lease is requeued "
             f"(default {protocol.DEFAULT_LEASE_TTL_S:g})")
    coord.add_argument(
        "--max-queue", type=int, default=protocol.DEFAULT_MAX_QUEUE,
        help="outstanding-job cap; /submit answers 429 past it "
             f"(default {protocol.DEFAULT_MAX_QUEUE})")
    coord.add_argument("--quiet", action="store_true",
                       help="suppress per-event log lines")

    worker = sub.add_parser(
        "worker", help="poll a coordinator for leased jobs and run them")
    worker.add_argument("url", help="coordinator base URL")
    worker.add_argument("--name", default=None,
                        help="worker name (default host-pid)")
    worker.add_argument("--poll", type=float, default=protocol.POLL_S,
                        metavar="S", help="seconds between empty claims "
                                          f"(default {protocol.POLL_S:g})")
    worker.add_argument(
        "--max-idle", type=float, default=None, metavar="S",
        help="exit after this long with no work (default: never)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after executing this many jobs")

    # `submit` parses per sweep (see _cmd_submit); this stub documents it
    sub.add_parser(
        "submit", help="enqueue a named sweep's specs and return "
                       "(fire-and-forget; `status --watch` to follow)",
        usage="python -m repro.service submit URL SWEEP [flags]",
        description="SWEEP is a name from `python -m repro.runner list`; "
                    "its flags are that sweep's own parameters from "
                    "`python -m repro.runner run SWEEP`, plus --force "
                    "(`submit URL SWEEP --help` lists them).")

    status = sub.add_parser(
        "status", help="print the coordinator's progress snapshot")
    status.add_argument("url", help="coordinator base URL")
    status.add_argument("--json", action="store_true",
                        help="raw /api/progress JSON instead of a summary")
    status.add_argument(
        "--watch", type=float, default=None, metavar="S",
        help="repeat every S seconds until the sweep finishes")

    return parser


def _cmd_coordinator(ns: argparse.Namespace) -> int:
    from repro.runner.store import ResultStore
    from repro.service.coordinator import serve

    store = ResultStore(ns.results_dir)
    log = (lambda msg: None) if ns.quiet else \
        (lambda msg: print(msg, flush=True))
    coordinator, server = serve(
        store, host=ns.host, port=ns.port, retries=ns.retries,
        lease_ttl_s=ns.lease_ttl, max_queue=ns.max_queue, log=log)
    host, port = server.server_address[:2]
    print(f"coordinator on http://{host}:{port}/ "
          f"(store: {store.store_dir}, "
          f"retries {ns.retries}, lease TTL {ns.lease_ttl:g}s, "
          f"queue cap {ns.max_queue})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_worker(ns: argparse.Namespace) -> int:
    from repro.service.worker import run_worker

    try:
        executed = run_worker(
            ns.url, name=ns.name, poll_s=ns.poll, max_idle_s=ns.max_idle,
            max_jobs=ns.max_jobs,
            log=lambda msg: print(msg, flush=True))
    except KeyboardInterrupt:
        return 130
    print(f"executed {executed} job(s)")
    return 0


def _cmd_submit(argv: List[str]) -> int:
    from repro.runner.cli import (
        UsageError,
        add_force_flag,
        add_param_flags,
        param_values,
    )
    from repro.runner.serialize import to_jsonable
    from repro.runner.sweeps import SWEEPS

    head = argparse.ArgumentParser(
        prog="python -m repro.service submit", add_help=False)
    head.add_argument("url")
    head.add_argument("sweep")
    target, flags = head.parse_known_args(argv)
    sweep = SWEEPS.get(target.sweep)
    if sweep is None:
        print(f"unknown sweep {target.sweep!r}; "
              f"choose from {', '.join(sorted(SWEEPS))}", file=sys.stderr)
        return 2
    if sweep.cell is None:
        print(f"sweep {sweep.name!r} has no static grid to submit: each "
              f"of its rounds depends on the last one's results.  Run it "
              f"against the coordinator instead: python -m repro.runner "
              f"run {sweep.name} --service {target.url}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.service submit URL {sweep.name}",
        description=sweep.description)
    add_param_flags(parser, sweep.params)
    add_force_flag(parser)
    ns = parser.parse_args(flags)
    try:
        specs = sweep.specs(**param_values(sweep.params, ns))
    except (UsageError, ValueError) as exc:
        print(f"bad sweep options: {exc}", file=sys.stderr)
        return 2
    payloads = [to_jsonable(spec) for spec in specs]
    try:
        status, body = request_json(
            target.url, "/submit",
            {"specs": payloads, "force": ns.force})
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if status != 200:
        print(f"submit failed (status {status}): {body}", file=sys.stderr)
        return 1
    states = [j["status"] for j in body["jobs"]]
    print(f"submitted {len(states)} spec(s): "
          + ", ".join(f"{states.count(s)} {s}"
                      for s in sorted(set(states))))
    return 0


def _print_status(progress: dict) -> None:
    by = progress["by_status"]
    queue = progress["queue"]
    alive = sum(1 for w in progress["workers"] if w["alive"])
    print(f"{progress['finished']}/{progress['total']} finished "
          f"({by['done']} done, {by['cached']} cached, "
          f"{by['failed']} failed) | queue {queue['pending']} pending, "
          f"{queue['in_flight']} in flight | {alive} worker(s) alive | "
          f"{progress['throughput']['last_minute']} done in last 60s",
          flush=True)


def _cmd_status(ns: argparse.Namespace) -> int:
    while True:
        try:
            _, progress = request_json(ns.url, "/api/progress")
        except ServiceError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if ns.json:
            print(json.dumps(progress, indent=2, sort_keys=True))
        else:
            _print_status(progress)
        finished = (progress["total"] > 0
                    and progress["finished"] >= progress["total"])
        if ns.watch is None or finished:
            return 0
        time.sleep(ns.watch)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["submit"] and argv[1:] not in (["-h"], ["--help"]):
        return _cmd_submit(argv[1:])
    ns = build_parser().parse_args(argv)
    if ns.cmd == "coordinator":
        return _cmd_coordinator(ns)
    if ns.cmd == "worker":
        return _cmd_worker(ns)
    return _cmd_status(ns)


if __name__ == "__main__":
    sys.exit(main())
