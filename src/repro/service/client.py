"""Client glue: make ``run_jobs(..., service=URL)`` ride the coordinator.

:func:`run_via_service` is the branch :func:`repro.runner.pool.run_jobs`
takes for the jobs its local store could not satisfy: submit the spec
payloads (chunked, honoring 429 backpressure), poll ``/results`` until
every id is terminal, and turn each terminal answer into a
:class:`JobOutcome` with the local pool's own
:func:`~repro.runner.pool.outcome_of`, handed back through the same
``finish`` callback — so callers see no difference beyond where the
CPUs were.

Retry budgets are enforced coordinator-side (it was started with
``--retries``); the client's ``retries`` argument exists for signature
parity with the local pool and is intentionally not forwarded, because
two clients sharing one coordinator must not fight over a job's
budget.

Results flowing back are written into the local store only when the
record is absent, preserving ``created_unix`` on coordinator-shared
stores while making client-only stores resumable.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.runner.jobspec import JobSpec
from repro.runner.pool import JobOutcome, outcome_of
from repro.runner.serialize import to_jsonable
from repro.runner.store import ResultStore
from repro.service.protocol import (
    FAILED,
    Backpressure,
    ServiceError,
    TERMINAL,
    request_json,
)

#: specs per /submit request — bounds request size, not sweep size
SUBMIT_CHUNK = 64
#: how often the client polls /results
DEFAULT_POLL_S = 0.5
#: consecutive unreachable polls before the sweep is declared dead
MAX_CONSECUTIVE_ERRORS = 30


def run_via_service(
    todo: List[Tuple[int, JobSpec]],
    url: str,
    *,
    retries: int = 1,
    force: bool = False,
    store: Optional[ResultStore] = None,
    finish: Callable[[int, JobOutcome], None],
    log: Callable[[str], None],
    poll_s: float = DEFAULT_POLL_S,
) -> None:
    """Run ``todo`` on the coordinator at ``url``; calls
    ``finish(index, JobOutcome)`` exactly once per entry."""
    if not todo:
        return
    log(f"running {len(todo)} job(s) via coordinator at {url}")

    # duplicate specs share a hash; every index gets the shared outcome
    by_id: Dict[str, List[Tuple[int, JobSpec]]] = {}
    for index, spec in todo:
        by_id.setdefault(spec.hash, []).append((index, spec))

    _submit(url, [spec for _, spec in todo], force=force, log=log)

    pending = set(by_id)
    consecutive_errors = 0
    while pending:
        time.sleep(poll_s)
        try:
            _, body = request_json(
                url, "/results", {"ids": sorted(pending)})
        except ServiceError as exc:
            consecutive_errors += 1
            if consecutive_errors >= MAX_CONSECUTIVE_ERRORS:
                raise RuntimeError(
                    f"coordinator at {url} unreachable for "
                    f"{consecutive_errors} consecutive polls; "
                    f"{len(pending)} job(s) unresolved") from exc
            continue
        consecutive_errors = 0
        for job_id, info in (body or {}).get("jobs", {}).items():
            status = info.get("status")
            if job_id not in pending or status not in TERMINAL:
                continue
            pending.discard(job_id)
            # a terminal /results entry, in the worker's reply format
            reply = {
                "ok": status != FAILED,
                "result": info.get("result"),
                "error": info.get("error") or "failed on coordinator",
                "elapsed_s": info.get("elapsed_s", 0.0),
            }
            for index, spec in by_id[job_id]:
                # the coordinator may share this store: keep its record
                fresh = store is not None and store.load_record(spec) is None
                finish(index, outcome_of(
                    spec, reply, info.get("attempts", 1),
                    store if fresh else None))


def _submit(
    url: str,
    specs: List[JobSpec],
    *,
    force: bool,
    log: Callable[[str], None],
) -> None:
    """POST the specs in chunks, sleeping through 429 backpressure."""
    for start in range(0, len(specs), SUBMIT_CHUNK):
        chunk = specs[start:start + SUBMIT_CHUNK]
        payloads = [to_jsonable(spec) for spec in chunk]
        while True:
            try:
                status, body = request_json(
                    url, "/submit", {"specs": payloads, "force": force})
            except Backpressure as exc:
                log(f"coordinator queue full; backing off "
                    f"{exc.retry_after_s:g}s before resubmitting "
                    f"{len(chunk)} spec(s)")
                time.sleep(exc.retry_after_s)
                continue
            if status != 200:
                raise ServiceError(
                    f"submit to {url} failed (status {status}): {body}")
            break
