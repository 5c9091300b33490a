#!/usr/bin/env python3
"""Paired parent/change runs of the perf ledger, as one command.

    python3 tools/ledger_pairs.py PARENT_REF [--pairs 10] [--workload W]
                                             [--seed N]

The measurement protocol a gain claim has to follow (see
``benchmarks/ledger/README.md``): check the parent commit out beside
this tree (``git worktree add`` under a temp dir), run
``benchmarks/ledger/run.py --out`` on both trees ``--pairs`` times,
alternating which side goes first, hand the two files to ``run.py
compare`` and count, per workload and end-to-end metric, in how many
pairs the change read better.  A gain may be claimed when the change is
ahead in at least nine tenths of the pairs and the medians differ by
more than the parent's own inter-quartile spread; ``compare`` prints
the medians, spreads and the no-regression verdict of every other
metric.

The change side is this working tree as it stands, uncommitted edits
included.  Nothing under ``benchmarks/ledger/`` is touched; the
worktree and both ``--out`` files live in a fresh temp dir (``$TMPDIR``
picks where).  The worktree is removed on exit, the two files are left
there — their paths are printed — for the PR text and for re-running
``compare``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "ledger", "run.py")


def run_ledger(tree, out, ns):
    """One ``run.py --out`` invocation in ``tree``; its exit status."""
    argv = [sys.executable, os.path.join(tree, RUN_PY),
            "--seed", str(ns.seed), "--out", out]
    if ns.workload:
        argv += ["--workload", ns.workload]
    done = subprocess.run(argv, cwd=tree, stdout=subprocess.DEVNULL)
    if done.returncode not in (0, 1):  # 1 = a cell or output check failed
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}")
    return done.returncode


def pair_wins(parent_runs, change_runs, metrics):
    """``(workload, metric) -> [pairs the change won, ties, pairs]``,
    pairing the i-th invocation of one side with the i-th of the other."""
    wins = {}
    for before, after in zip(parent_runs, change_runs):
        for workload, record in before["results"].items():
            for metric in metrics:
                a = record[metric["name"]]
                b = after["results"][workload][metric["name"]]
                if metric["better"] != "lower":
                    a, b = -a, -b
                row = wins.setdefault((workload, metric["name"]), [0, 0, 0])
                row[0] += b < a
                row[1] += b == a
                row[2] += 1
    return wins


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ledger_pairs.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF",
                        help="commit the change is measured against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs to run (default: 10)")
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="ledger seed (default: 1, the canonical inputs)")
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="ledger-pairs-")
    parent = os.path.join(tmp, "parent")
    outs = {"parent": os.path.join(tmp, "parent.json"),
            "change": os.path.join(tmp, "change.json")}
    trees = {"parent": parent, "change": REPO}
    failed = 0
    try:
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                        parent, ns.parent_ref], cwd=REPO, check=True)
        for pair in range(ns.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for side in order:
                t0 = time.monotonic()
                failed += run_ledger(trees[side], outs[side], ns)
                print(f"pair {pair + 1}/{ns.pairs}  {side:<6} "
                      f"{time.monotonic() - t0:6.1f} s", flush=True)
        status = subprocess.run(
            [sys.executable, os.path.join(REPO, RUN_PY), "compare",
             outs["parent"], outs["change"]], cwd=REPO).returncode
        with open(outs["parent"]) as a, open(outs["change"]) as b:
            wins = pair_wins(json.load(a)["runs"], json.load(b)["runs"],
                             metrics)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent],
                       cwd=REPO, stderr=subprocess.DEVNULL)
        shutil.rmtree(parent, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=REPO)

    print(f"\nchange ahead of {ns.parent_ref} (pairs won / pairs, ties "
          f"count for neither):")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in (m["name"] for m in metrics):
            if (workload, metric) in wins:
                won, ties, pairs = wins[workload, metric]
                tied = f"  ({ties} tied)" if ties else ""
                print(f"{workload:<16} {metric:<12} {won:>2}/{pairs}{tied}")
    if failed:
        print(f"{failed} invocation(s) reported failed cells or checks")
    print(f"records: {outs['parent']} {outs['change']}")
    return 1 if failed else status


if __name__ == "__main__":
    raise SystemExit(main())
