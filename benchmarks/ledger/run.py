#!/usr/bin/env python3
"""Perf ledger: one benchmark for every layer a sweep passes through.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
                                     [--trace [0|1]] [--out FILE]
    python3 benchmarks/ledger/run.py compare A.json B.json

Runs the workloads named in ``BENCHMARK.json`` (all five, or one), each
in its own child process on a fresh temporary store, prints every
metric by name with its unit and checks the simulated outputs.  Without
``--trace`` the metrics are the end-to-end ones; with it, a second
child repeats the workload under the profiler and the per-layer metrics
are printed instead.  The last line of standard output is one JSON
object (``correct`` / ``attempted`` / ``failed`` / ``metrics``); the
exit code is non-zero when any cell or output check failed.

All times are *host* time.  Simulated results are outputs to check,
never metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: every store and scratch file of a run lives (briefly) under here
WORK_DIR = os.path.join(ROOT, ".ledger_tmp")

#: set-ups per untraced run; setup_s is their median
SETUP_ROUNDS = 5
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 170.0
#: children run with str-hash randomisation off: a random hash seed moves
#: dict and set probing enough to swing identical work by +-5 % from one
#: process to the next (measured on packet_faults), outputs unchanged
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- child side --------------------------------------------------------------


def child_main(ns: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    if ns.mode == "direct":
        from direct import direct_timings

        record = direct_timings(ns.seed, ns.tmp)
    else:
        from harness import execute

        record = execute(ns.child, ns.seed, ns.mode, ns.tmp,
                         spawned=ns.spawned)
    print(json.dumps(record))
    return 0


# --- parent side -------------------------------------------------------------


def spawn(name: str, seed: int, mode: str, tmp: str) -> Dict:
    """Run one child to completion and return the record it printed."""
    child_tmp = tempfile.mkdtemp(prefix=f"{name}-{mode}-", dir=tmp)
    argv = [sys.executable, os.path.abspath(__file__), "--child", name,
            "--mode", mode, "--seed", str(seed), "--tmp", child_tmp,
            "--spawned", repr(time.monotonic())]
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT,
                              env=CHILD_ENV)
    finally:
        shutil.rmtree(child_tmp, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{name} ({mode}) child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_workload(name: str, seed: int, tmp: str,
                     direct: Optional[Dict[str, float]]) -> Dict:
    """The untraced record of one workload; with ``direct`` (the direct
    timings, which make this a ``--trace`` run) its per-layer metrics
    from a second, profiled child as well."""
    trace = direct is not None
    setups = [] if trace else [
        spawn(name, seed, "setup", tmp)["setup_s"]
        for _ in range(SETUP_ROUNDS - 1)]
    record = spawn(name, seed, "run", tmp)
    record["setup_s"] = statistics.median(setups + [record["setup_s"]])
    record["setup_samples"] = len(setups) + 1
    if trace:
        traced = spawn(name, seed, "trace", tmp)
        layer = dict(traced["layer"], **direct)
        layer["trace.overhead_x"] = traced["wall_s"] / record["wall_s"]
        # walls of the untraced run, not of the profiled one
        layer.update(record["layer"])
        record["layer"] = layer
        record["traced"] = {
            key: traced[key]
            for key in ("wall_s", "sim_digest", "failed", "attempted")}
        record["failed"] += traced["failed"]
        record["attempted"] += traced["attempted"]
        record["checks"] += [dict(c, name="traced run: " + c["name"])
                             for c in traced["checks"]]
    return record


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.6g}"


def print_record(record: Dict, spec: Dict, trace: bool) -> None:
    name = record["workload"]
    inputs = ("canonical inputs, digests checked" if record["canonical"] else
              "stretched horizon: structural checks only, digests not "
              "compared")
    print(f"== {name} (seed {record['seed']}; {inputs}) ==")
    notes = {
        "cell_tail_s": f"{record['cell_tail_kind']} of "
                       f"{record['cell_samples']} cells",
        "setup_s": f"median of {record['setup_samples']} set-up(s)",
    }
    for metric in spec["end_to_end"]:
        key = metric["name"]
        note = f"   ({notes[key]})" if key in notes else ""
        print(f"  {key:<34} {_fmt(record[key]):>12} {metric['unit']}{note}")
    print(f"  {'failed_share':<34} {_fmt(record['failed_share']):>12} ratio"
          f"   ({record['failed']} of {record['attempted']} cells + checks)")
    print(f"  {'cells_per_s':<34} {_fmt(record['cells_per_s']):>12} 1/s"
          f"   (derived, not gated)")
    print(f"  {'sim_ms_per_host_s':<34} "
          f"{_fmt(record['sim_ms_per_host_s']):>12} ms/s   "
          f"(derived, not gated)")
    print(f"  sim_digest {record['sim_digest']}")
    if trace:
        print(f"  -- per layer (traced wall {record['traced']['wall_s']:.3f} s"
              f"; direct timings are untraced medians) --")
        applicable = record["layer"]
        for metric in spec["per_layer"]:
            key = metric["name"]
            if key in applicable:
                print(f"  {key:<34} {_fmt(applicable[key]):>12} "
                      f"{metric['unit']}")
            else:
                print(f"  {key:<34} {'0':>12} {metric['unit']}"
                      f"   (not measured by this workload)")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED: {check['name']}: {check['detail']}")
    passed = sum(c["ok"] for c in record["checks"])
    print(f"  checks: {passed}/{len(record['checks'])} passed")


def final_metrics(record: Dict, spec: Dict, trace: bool) -> Dict:
    if trace:
        return {m["name"]: {"value": record["layer"].get(m["name"], 0.0),
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": record[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def append_out(path: str, entry: Dict) -> None:
    runs: List[Dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    runs.append(entry)
    with open(path, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_main(ns: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if ns.workload is not None:
        if ns.workload not in names:
            print(f"unknown workload {ns.workload!r}; pick from {names}",
                  file=sys.stderr)
            return 2
        names = [ns.workload]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"nothing to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    trace = bool(ns.trace)

    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        # direct timings first, in their own child: no profiler, once
        direct = spawn("all", ns.seed, "direct", tmp) if trace else None
        records = [measure_workload(n, ns.seed, tmp, direct) for n in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for record in records:
        print_record(record, spec, trace)
    if ns.out:
        append_out(ns.out, {
            "seed": ns.seed, "trace": trace,
            "results": {r["workload"]: r for r in records}})

    failed = sum(r["failed"] for r in records)
    metrics: Dict[str, Dict] = {}
    for record in records:
        for key, value in final_metrics(record, spec, trace).items():
            prefix = f"{record['workload']}." if len(records) > 1 else ""
            metrics[prefix + key] = value
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="1 = the canonical inputs whose digests are "
                             "committed; other seeds stretch every cell's "
                             "simulated horizon by (seed-1) %% 1000 ns")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the benchmark driver and ignored: "
                             "sizes are fixed work, sized to BENCHMARK.json's "
                             "run_seconds on the reference box")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also run under the profiler and print the "
                             "per-layer metrics instead")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append this invocation's full records to FILE "
                             "(JSON; input of the compare subcommand)")
    for hidden in ("--child", "--mode", "--tmp"):
        parser.add_argument(hidden, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import compare_main

        return compare_main(argv[1:], load_spec())
    ns = build_parser().parse_args(argv)
    if ns.child is not None:
        return child_main(ns)
    return run_main(ns)


if __name__ == "__main__":
    raise SystemExit(main())
