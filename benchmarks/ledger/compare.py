"""``run.py compare A.json B.json``: did B get worse than A?

Each file holds the records of several ``run.py --out FILE``
invocations.  Per workload and end-to-end metric the table shows both
medians, how much worse B reads (negative = better) and the bound from
``BENCHMARK.json``.  The verdict follows the measurement protocol in
README.md: when the run-to-run spread of either side (distance between
the first and third quartile, as a share of the median) is wider than
the bound, a difference inside it proves nothing, so the pair is
``unresolved`` — not ``unchanged`` — unless every B run beats every A
run.  Deterministic outputs are compared exactly: every ``sim_digest``
of a seed, and every traced ``*.calls`` count, must be identical across
all invocations of both files.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence

from fold import COUNTED_CALLS


def load_runs(path: str) -> List[Dict]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median; unknown
    (infinite, so never "within the bound") from a single run."""
    if len(values) < 2:
        return float("inf")
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            lower_is_better: bool) -> Dict[str, object]:
    """Medians, how much worse ``b`` reads than ``a`` (as a share of
    ``a``'s median) and what that means at ``bound``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a
    all_better = max(b) < min(a)
    if not lower_is_better:
        worse = -worse
        all_better = min(b) > max(a)
    wide = max(spread(a), spread(b))
    if all_better:
        word = "better"
    elif wide > bound:
        word = "unresolved"
    elif worse > bound:
        word = "REGRESSED"
    else:
        word = "unchanged"
    return {"median_a": med_a, "median_b": med_b, "worse": worse,
            "spread": wide, "verdict": word}


def _repeats_exactly(workload: str, metric: str) -> bool:
    """Call counts are exact on the single-threaded workloads; on
    ``sweep_overhead`` pool polling and socket reads depend on timing,
    so only the counts of named functions are held to repeat there."""
    if metric in COUNTED_CALLS:
        return True
    return metric.endswith(".calls") and workload != "sweep_overhead"


def exact_mismatches(runs: List[Dict]) -> List[str]:
    """Outputs that must repeat exactly but did not."""
    seen: Dict[tuple, set] = {}
    for run in runs:
        for name, record in run["results"].items():
            key = (name, run["seed"])
            seen.setdefault(key + ("sim_digest",), set()).add(
                record["sim_digest"])
            if "traced" in record:
                seen[key + ("sim_digest",)].add(
                    record["traced"]["sim_digest"])
            for metric, value in record["layer"].items():
                if run["trace"] and _repeats_exactly(name, metric):
                    seen.setdefault(key + (metric,), set()).add(value)
    return [f"{name} seed {seed}: {what} took {len(values)} values"
            for (name, seed, what), values in sorted(seen.items())
            if len(values) > 1]


def compare_main(argv: List[str], spec: Dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    print(f"A = {argv[0]} ({len(runs_a)} runs)   "
          f"B = {argv[1]} ({len(runs_b)} runs)")
    header = (f"{'workload':<16} {'metric':<12} {'median A':>11} "
              f"{'median B':>11} {'B worse by':>10} {'bound':>6} "
              f"{'spread':>7}  verdict")
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        rec_a = [r["results"][workload] for r in runs_a
                 if workload in r["results"]]
        rec_b = [r["results"][workload] for r in runs_b
                 if workload in r["results"]]
        if not rec_a or not rec_b:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            row = verdict([r[key] for r in rec_a], [r[key] for r in rec_b],
                          metric["bound"], metric["better"] == "lower")
            regressed |= row["verdict"] == "REGRESSED"
            print(f"{workload:<16} {key:<12} {row['median_a']:>11.5g} "
                  f"{row['median_b']:>11.5g} {row['worse']:>+10.2%} "
                  f"{metric['bound']:>6.0%} {row['spread']:>7.2%}  "
                  f"{row['verdict']}")
        failed_a = max(r["failed_share"] for r in rec_a)
        failed_b = max(r["failed_share"] for r in rec_b)
        word = "REGRESSED" if failed_b > failed_a else "unchanged"
        regressed |= failed_b > failed_a
        print(f"{workload:<16} {'failed_share':<12} {failed_a:>11.5g} "
              f"{failed_b:>11.5g} {'':>10} {'any':>6} {'':>7}  {word}")
    mismatches = exact_mismatches(runs_a + runs_b)
    for line in mismatches:
        print(f"NOT REPRODUCIBLE: {line}")
    if not mismatches:
        print("every sim_digest and traced call count is identical "
              "across all runs of a seed")
    return 1 if regressed or mismatches else 0
