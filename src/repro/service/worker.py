"""The sweep worker: claim, execute, heartbeat, complete, repeat.

A worker is stateless — everything it knows about a job arrives in the
``/claim`` response, and everything it produces leaves via
``/complete``.  Execution is :func:`repro.runner.pool.execute_leased`,
the body the local pool's workers run, and its reply is the
``/complete`` body — so a result's encoded bytes are identical whether
the job ran locally or across the service.

While a job runs, a daemon heartbeat thread renews its lease every
``ttl/3`` seconds.  If the heartbeat learns the lease went stale (the
coordinator expired it during a partition and handed the job to
someone else), the worker keeps computing but its eventual
``/complete`` is rejected — the replacement attempt owns the job.  A
worker that is SIGKILLed simply stops heartbeating, and the
coordinator requeues its lease without charging the job's retry
budget.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Optional

from repro.runner.pool import execute_leased
from repro.service.protocol import ServiceError, request_json

#: how long a fresh worker waits between empty /claim polls
DEFAULT_POLL_S = 0.5
#: give up after this long with neither jobs nor reachable coordinator
DEFAULT_MAX_IDLE_S = 60.0


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _heartbeat_loop(
    url: str,
    worker: str,
    lease_id: str,
    ttl_s: float,
    done: threading.Event,
    stale: threading.Event,
) -> None:
    interval = max(0.2, ttl_s / 3.0)
    while not done.wait(interval):
        try:
            _, body = request_json(
                url, "/heartbeat", {"worker": worker, "leases": [lease_id]})
        except ServiceError:
            continue  # partition: keep computing, retry next beat
        if lease_id in (body or {}).get("stale", ()):
            stale.set()
            return


def run_worker(
    url: str,
    *,
    name: Optional[str] = None,
    poll_s: float = DEFAULT_POLL_S,
    max_idle_s: Optional[float] = DEFAULT_MAX_IDLE_S,
    max_jobs: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    stop: Optional[threading.Event] = None,
) -> int:
    """Serve jobs from the coordinator at ``url`` until idle too long,
    ``max_jobs`` jobs are done, or ``stop`` is set.  Returns the number
    of jobs executed (failures included — they were work)."""
    worker = name or default_worker_name()
    _log = log or (lambda msg: None)
    stop = stop or threading.Event()
    executed = 0
    idle_since: Optional[float] = None
    _log(f"worker {worker} polling {url}")
    while not stop.is_set():
        if max_jobs is not None and executed >= max_jobs:
            break
        try:
            _, body = request_json(url, "/claim", {"worker": worker})
            job = (body or {}).get("job")
        except ServiceError as exc:
            if idle_since is None:
                idle_since = time.monotonic()
            if (max_idle_s is not None
                    and time.monotonic() - idle_since > max_idle_s):
                _log(f"worker {worker}: coordinator unreachable for "
                     f"{max_idle_s:.0f}s, giving up ({exc})")
                return executed
            stop.wait(poll_s)
            continue
        if job is None:
            if idle_since is None:
                idle_since = time.monotonic()
            if (max_idle_s is not None
                    and time.monotonic() - idle_since > max_idle_s):
                _log(f"worker {worker}: idle {max_idle_s:.0f}s, exiting")
                return executed
            stop.wait(poll_s)
            continue
        idle_since = None

        lease_id = job["lease"]
        _log(f"worker {worker}: running {job['label']} "
             f"(attempt {job['attempts']}, lease {lease_id})")
        done = threading.Event()
        stale = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(url, worker, lease_id, float(job["ttl_s"]), done, stale),
            daemon=True,
        )
        beat.start()
        try:
            outcome = execute_leased(job["payload"])
        finally:
            done.set()
        executed += 1
        if stale.is_set():
            _log(f"worker {worker}: lease {lease_id} went stale mid-job; "
                 "dropping result")
            continue
        body = {"lease": lease_id, "worker": worker, **outcome}
        try:
            _, reply = request_json(url, "/complete", body, timeout_s=60.0)
        except ServiceError as exc:
            _log(f"worker {worker}: could not report {job['label']}: {exc}")
            continue
        if not (reply or {}).get("accepted"):
            _log(f"worker {worker}: completion of {job['label']} rejected "
                 "(lease expired)")
    return executed
