"""The sweep worker: claim, execute, heartbeat, complete, repeat.

A worker is stateless — everything it knows about a job arrives in its
lease, and everything it produces leaves via ``/complete``.  Execution
is :func:`repro.runner.pool.execute_leased`, the body the local pool's
workers run, and its reply is the ``/complete`` body — so a result's
encoded bytes are identical whether the job ran locally or across the
service.

A job costs one round trip: the worker keeps one connection open and
its ``/complete`` asks for the next lease (``"claim": true``) whenever
it would claim again anyway, so ``/claim`` is only the first request
and the poll of an idle worker.

One heartbeat thread per worker renews the running lease every
``max(0.2, ttl/3)`` seconds, on a connection of its own.  If it learns
the lease went stale (the coordinator expired it during a partition
and handed the job to someone else), the worker keeps computing but
drops the result — the replacement attempt owns the job.  A worker
that is SIGKILLed simply stops heartbeating, and the coordinator
requeues its lease without charging the job's retry budget.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.runner.pool import execute_leased
from repro.service.protocol import POLL_S, Connection, ServiceError

#: give up after this long with neither jobs nor reachable coordinator
DEFAULT_MAX_IDLE_S = 60.0


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat:
    """A worker's one heartbeat thread.

    It sleeps until :meth:`begin` names a lease, then renews that lease
    every ``max(0.2, ttl/3)`` seconds until :meth:`end`.  A renewal
    answered "stale" marks the lease and stops its beats.
    """

    def __init__(self, url: str, worker: str) -> None:
        self._url = url
        self._worker = worker
        self._cond = threading.Condition()
        self._lease: Optional[str] = None
        self._ttl_s = 0.0
        self._stale = False
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat {worker}", daemon=True)
        self._thread.start()

    def begin(self, lease_id: str, ttl_s: float) -> None:
        with self._cond:
            self._lease, self._ttl_s, self._stale = lease_id, ttl_s, False
            self._cond.notify()

    def end(self) -> bool:
        """Stop renewing; True if the lease went stale meanwhile."""
        with self._cond:
            self._lease = None
            return self._stale

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join()

    def _run(self) -> None:
        with Connection(self._url) as conn:
            while True:
                with self._cond:
                    self._cond.wait_for(lambda: self._closed or (
                        self._lease is not None and not self._stale))
                    if self._closed:
                        return
                    lease, ttl_s = self._lease, self._ttl_s
                    # one interval of this lease, cut short when it ends
                    if self._cond.wait_for(
                            lambda: self._closed or self._lease != lease,
                            max(0.2, ttl_s / 3.0)):
                        continue
                try:
                    # a renewal later than the TTL comes too late anyway
                    _, body = conn.request(
                        "/heartbeat",
                        {"worker": self._worker, "leases": [lease]},
                        timeout_s=ttl_s)
                except ServiceError:
                    continue  # partition: keep computing, retry next beat
                if lease in (body or {}).get("stale", ()):
                    with self._cond:
                        if self._lease == lease:
                            self._stale = True


def run_worker(
    url: str,
    *,
    name: Optional[str] = None,
    poll_s: float = POLL_S,
    max_idle_s: Optional[float] = DEFAULT_MAX_IDLE_S,
    max_jobs: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    stop: Optional[threading.Event] = None,
) -> int:
    """Serve jobs from the coordinator at ``url`` until idle too long,
    ``max_jobs`` jobs are done, or ``stop`` is set.  Returns the number
    of jobs executed (failures included — they were work).  Its
    connections and heartbeat thread are gone when it returns."""
    worker = name or default_worker_name()
    _log = log or (lambda msg: None)
    stop = stop or threading.Event()
    executed = 0
    idle_since: Optional[float] = None
    #: a lease the last /complete handed over; it is run even past stop
    job: Optional[Dict[str, Any]] = None
    _log(f"worker {worker} polling {url}")
    conn = Connection(url)
    heartbeat = _Heartbeat(url, worker)
    try:
        while job is not None or not stop.is_set():
            if job is None:
                if max_jobs is not None and executed >= max_jobs:
                    break
                why = "idle"
                try:
                    _, body = conn.request("/claim", {"worker": worker})
                    job = (body or {}).get("job")
                except ServiceError as exc:
                    why = f"coordinator unreachable ({exc})"
                if job is None:
                    if idle_since is None:
                        idle_since = time.monotonic()
                    if (max_idle_s is not None
                            and time.monotonic() - idle_since > max_idle_s):
                        _log(f"worker {worker}: {why} for "
                             f"{max_idle_s:.0f}s, exiting")
                        return executed
                    stop.wait(poll_s)
                    continue
            idle_since = None

            lease_id, label = job["lease"], job["label"]
            _log(f"worker {worker}: running {label} "
                 f"(attempt {job['attempts']}, lease {lease_id})")
            heartbeat.begin(lease_id, float(job["ttl_s"]))
            try:
                outcome = execute_leased(job["payload"])
            finally:
                stale = heartbeat.end()
            executed += 1
            job = None
            if stale:
                _log(f"worker {worker}: lease {lease_id} went stale "
                     "mid-job; dropping result")
                continue
            body = {"lease": lease_id, "worker": worker, **outcome}
            claim = not stop.is_set() and (
                max_jobs is None or executed < max_jobs)
            if claim:
                body["claim"] = True
            try:
                status, reply = conn.request("/complete", body,
                                             timeout_s=60.0)
            except ServiceError as exc:
                _log(f"worker {worker}: could not report {label}: {exc}")
                continue
            reply = reply or {}
            if not reply.get("accepted"):
                # a 500 (a failed save) leaves the lease to lapse, too
                why = "lease expired" if status == 200 else \
                    f"status {status}: {reply.get('error')}"
                _log(f"worker {worker}: completion of {label} rejected "
                     f"({why})")
            job = reply.get("job")
    finally:
        heartbeat.close()
        conn.close()
    return executed
