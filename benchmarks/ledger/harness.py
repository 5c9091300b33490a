"""What one ledger child process does: set up a workload, time it (or
profile it), check its outputs, and describe the run as one dict.

One child = one workload, so ``ru_maxrss`` and CPU time belong to that
workload alone.  ``mode`` is ``setup`` (stop at the start of the timed
section and report how long getting there took), ``run`` (the untraced
measurement every end-to-end metric comes from) or ``trace`` (the same
workload under the profiler; per-layer metrics only).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from typing import Dict, List, Optional

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: cell_tail_s is the p95 above this many cells, else the max
TAIL_P95_MIN_CELLS = 200


def load_expected() -> Dict[str, str]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def cell_tail(elapsed: List[float]) -> Dict[str, object]:
    from repro.metrics.stats import percentile

    if len(elapsed) >= TAIL_P95_MIN_CELLS:
        value, kind = percentile(elapsed, 95), "p95"
    else:
        value, kind = max(elapsed, default=0.0), "max"
    return {"cell_tail_s": value, "cell_tail_kind": kind,
            "cell_samples": len(elapsed)}


def execute(
    name: str,
    seed: int,
    mode: str,
    tmp: str,
    spawned: Optional[float] = None,
    small: bool = False,
    expected: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Run workload ``name`` in this process and return its record.

    ``spawned`` is the parent's ``time.monotonic()`` just before it
    started this process (the same system-wide clock here), so
    ``setup_s`` spans interpreter start, imports and workload set-up.
    ``expected`` overrides ``expected.json`` and is then applied even
    to non-canonical inputs (the ledger's tests pass a wrong digest).
    """
    import repro

    workload = WORKLOADS[name](seed, tmp, small)
    try:
        gc.collect()
        setup_s = (time.monotonic() - spawned) if spawned is not None else 0.0
        if mode == "setup":
            return {"workload": name, "mode": mode, "setup_s": setup_s}
        if mode == "trace":
            from fold import Tracer, fold

            with Tracer() as tracer:
                wall_s, cpu_s = workload.run()
            layer = fold(tracer.stats(), os.path.dirname(repro.__file__))
        else:
            wall_s, cpu_s = workload.run()
            layer = {}
        out = workload.outputs()
    finally:
        workload.close()

    digest = hashlib.sha256(out.sim.encode()).hexdigest()
    checks = list(out.checks)
    if expected is not None or workload.canonical:
        want = (load_expected() if expected is None else expected).get(name)
        checks.append(("sim_digest matches expected.json", digest == want,
                       f"got {digest}, expected {want}"))

    tail_records = out.tail_records if out.tail_records is not None \
        else out.records
    elapsed_sum = sum(r["elapsed_s"] for r in out.records)
    cells_failed = max(0, out.cells - len(out.records))
    failed_checks = [c for c in checks if not c[1]]
    layer.update(out.layer)
    layer.update({
        "runner.cells_executed": len(out.records),
        "runner.cells_cached": out.cells_cached,
        "runner.cells_failed": cells_failed,
        "runner.retries": sum(r.get("attempts", 1) - 1 for r in out.records),
    })
    if workload.overhead_metric:
        layer[workload.overhead_metric] = wall_s - elapsed_sum

    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    record = {
        "workload": name, "seed": seed, "mode": mode,
        "canonical": workload.canonical,
        "wall_s": wall_s, "cpu_s": cpu_s, "setup_s": setup_s,
        "peak_rss_mb": max(usage) / 1024.0,  # ru_maxrss is KiB on Linux
        "cells": out.cells,
        "cells_per_s": out.cells / wall_s,
        "sim_ms_per_host_s": out.sim_ms / wall_s,
        "sim_digest": digest,
        "checks": [{"name": c[0], "ok": c[1], "detail": "" if c[1] else c[2]}
                   for c in checks],
        "attempted": out.cells + len(checks),
        "failed": cells_failed + len(failed_checks),
        "layer": layer,
    }
    record.update(cell_tail([r["elapsed_s"] for r in tail_records]))
    record["failed_share"] = record["failed"] / record["attempted"]
    return record
