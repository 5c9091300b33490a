"""Client glue: make ``run_jobs(..., service=URL)`` ride the coordinator.

:func:`run_via_service` is the branch :func:`repro.runner.pool.run_jobs`
takes for the jobs its local store could not satisfy: over one
kept-alive connection, submit the spec payloads (chunked, honoring 429
backpressure), poll ``/results`` every
:data:`~repro.service.protocol.POLL_S` until every id is terminal, and
turn each terminal answer into a :class:`JobOutcome` with the local
pool's own :func:`~repro.runner.pool.outcome_of`, handed back through
the same ``finish`` callback — so callers see no difference beyond
where the CPUs were.

An id answered ``unknown`` (the coordinator restarted, or the job's
record vanished) is resubmitted: ``/submit`` replay is the restart
contract.  Retry budgets, lease TTLs and parallelism are the
coordinator's and its workers'; the client sends specs and ``force``
only, so two clients sharing one coordinator do not fight over a job.

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
    POLL_S,
    UNKNOWN,
    Backpressure,
    Connection,
    ServiceError,
    TERMINAL,
)

#: specs per /submit request — bounds request size, not sweep size
SUBMIT_CHUNK = 64
#: consecutive unreachable polls before the sweep is declared dead
MAX_CONSECUTIVE_ERRORS = 30


def run_via_service(
    todo: List[Tuple[int, JobSpec]],
    url: str,
    *,
    force: bool = False,
    store: Optional[ResultStore] = None,
    finish: Callable[[int, JobOutcome], None],
    log: Callable[[str], None],
) -> None:
    """Run ``todo`` on the coordinator at ``url``; calls
    ``finish(index, JobOutcome)`` exactly once per entry."""
    log(f"running {len(todo)} job(s) via coordinator at {url}")

    # duplicate specs share a hash; every index gets the shared outcome
    by_id: Dict[str, List[Tuple[int, JobSpec]]] = {}
    for index, spec in todo:
        by_id.setdefault(spec.hash, []).append((index, spec))

    with Connection(url) as conn:
        _submit(conn, [spec for _, spec in todo], force=force, log=log)
        _poll(conn, by_id, store=store, finish=finish, log=log)


def _poll(
    conn: Connection,
    by_id: Dict[str, List[Tuple[int, JobSpec]]],
    *,
    store: Optional[ResultStore],
    finish: Callable[[int, JobOutcome], None],
    log: Callable[[str], None],
) -> None:
    """Poll ``/results`` until every id is terminal; ``finish`` each,
    and resubmit the ones the coordinator answers ``unknown``."""
    pending = set(by_id)
    consecutive_errors = 0
    while pending:
        time.sleep(POLL_S)
        try:
            _, body = conn.request("/results", {"ids": sorted(pending)})
            jobs = (body or {}).get("jobs", {})
            unknown = sorted(job_id for job_id, info in jobs.items()
                             if job_id in pending
                             and info.get("status") == UNKNOWN)
            if unknown:
                log(f"coordinator at {conn.base_url} does not hold "
                    f"{len(unknown)} job(s); resubmitting them")
                # never forced: a record present after a forced submit
                # was written after it
                _submit(conn, [by_id[job_id][0][1] for job_id in unknown],
                        force=False, log=log)
        except ServiceError as exc:
            consecutive_errors += 1
            if consecutive_errors >= MAX_CONSECUTIVE_ERRORS:
                raise RuntimeError(
                    f"coordinator at {conn.base_url} unreachable for "
                    f"{consecutive_errors} consecutive polls; "
                    f"{len(pending)} job(s) unresolved") from exc
            continue
        consecutive_errors = 0
        for job_id, info in jobs.items():
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
                # when it holds this result, replace a missing or stale one
                record = store.load_record(spec) if store is not None else None
                stale = record is None or record["result"] != reply["result"]
                finish(index, outcome_of(
                    spec, reply, info.get("attempts", 1),
                    store if stale else None))


def _submit(
    conn: Connection,
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
                status, body = conn.request(
                    "/submit", {"specs": payloads, "force": force})
            except Backpressure as exc:
                log(f"coordinator queue full; backing off "
                    f"{exc.retry_after_s:g}s before resubmitting "
                    f"{len(chunk)} spec(s)")
                time.sleep(exc.retry_after_s)
                continue
            if status != 200:
                raise ServiceError(f"submit to {conn.base_url} failed "
                                   f"(status {status}): {body}")
            break
