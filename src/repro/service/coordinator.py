"""The sweep coordinator: a lease-granting job queue over HTTP.

:class:`SweepCoordinator` is the pure state machine — submit, claim,
heartbeat, complete, expire — guarded by one lock so the threading
HTTP server can hit it from many connections.  The queue/retry-budget
bookkeeping is the same :class:`repro.runner.lease.LeaseQueue` the
local pool uses:

* a worker that reports a job *raised* charges that job's retry
  budget (it requeues until ``retries`` is spent, then fails);
* a lease that *expires* — the worker was SIGKILLed, hung or
  partitioned away, and from here nobody can tell which — requeues
  the job at the front **without** charging its budget.

Completed results are written to the coordinator's
:class:`~repro.runner.store.ResultStore` through the same
``store.save`` path ``run_jobs`` uses, so a distributed sweep's store
records hold byte-identical ``result`` payloads to a local run of the
same specs.  Submission is bounded: past ``max_queue`` outstanding
jobs, ``/submit`` answers 429 with a Retry-After, and well-behaved
clients (:mod:`repro.service.client`) back off.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runner.jobspec import JobSpec
from repro.runner.lease import DEFAULT_MAX_RELEASES, LeaseQueue
from repro.runner.serialize import from_jsonable
from repro.runner.store import ResultStore
from repro.service import protocol
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.protocol import (
    CACHED,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_MAX_QUEUE,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL,
)
from repro.telemetry.metrics import Counter

#: names of the coordinator's telemetry counters (snapshot keys)
COUNTER_NAMES = (
    "jobs_submitted",
    "jobs_deduped",
    "jobs_completed",
    "jobs_failed",
    "store_hits",
    "leases_granted",
    "leases_expired",
    "leases_renewed",
    "stale_completions",
    "submits_rejected",
)

#: how many wall-clock seconds of completions the timeline keeps
TIMELINE_WINDOW_S = 600.0
TIMELINE_BUCKET_S = 10.0


class BadSpec(ValueError):
    """Raised by :meth:`SweepCoordinator.submit` for a payload that does
    not decode to a :class:`JobSpec`."""


class QueueFull(Exception):
    """Raised by :meth:`SweepCoordinator.submit` past ``max_queue``."""

    def __init__(self, retry_after_s: float):
        super().__init__("queue full")
        self.retry_after_s = retry_after_s


@dataclass
class _Job:
    """One submitted spec, keyed by its content hash."""

    job_id: str
    spec: JobSpec
    payload: Dict[str, Any]
    label: str
    status: str = QUEUED
    attempts: int = 0
    worker: str = ""
    error: Optional[str] = None
    #: encoded result for DONE/CACHED jobs (what /results serves)
    result: Optional[Any] = None
    elapsed_s: float = 0.0
    submitted_unix: float = field(default_factory=time.time)
    finished_unix: Optional[float] = None


@dataclass
class _Worker:
    name: str
    last_seen_unix: float = field(default_factory=time.time)
    jobs_done: int = 0
    jobs_failed: int = 0
    current_job: Optional[str] = None


class SweepCoordinator:
    """Thread-safe coordinator state; the HTTP layer is a thin skin."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        retries: int = 1,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_releases: int = DEFAULT_MAX_RELEASES,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.store = store
        self.retries = retries
        self.lease_ttl_s = lease_ttl_s
        self.max_queue = max_queue
        self._log = log or (lambda msg: None)
        self._lock = threading.Lock()
        self._queue = LeaseQueue(retries=retries, max_releases=max_releases)
        self._jobs: Dict[str, _Job] = {}
        self._workers: Dict[str, _Worker] = {}
        self._completions: List[float] = []  # wall stamps, pruned to window
        self.counters = {name: Counter(name) for name in COUNTER_NAMES}
        self.started_unix = time.time()

    # --- client side --------------------------------------------------------

    def submit(
        self, payloads: List[Dict[str, Any]], force: bool = False
    ) -> List[Dict[str, str]]:
        """Enqueue spec payloads; returns one ``{"id","status"}`` per
        payload, deduped by content hash.  Raises :class:`QueueFull`
        (atomically — none of the batch is taken) when admitting the
        batch would exceed ``max_queue`` outstanding jobs."""
        try:
            specs = [from_jsonable(p) for p in payloads]
        except (ValueError, TypeError, KeyError, AttributeError,
                ImportError) as exc:
            raise BadSpec(f"undecodable spec: {type(exc).__name__}: "
                          f"{exc}") from exc
        if not all(isinstance(spec, JobSpec) for spec in specs):
            raise BadSpec("every spec must decode to a JobSpec")
        with self._lock:
            self._expire_leases()
            new = []
            for payload, spec in zip(payloads, specs):
                job = self._jobs.get(spec.hash)
                if job is None or (force and job.status in TERMINAL) or \
                        job.status == FAILED:
                    new.append((payload, spec))
            admitted = self._queue.depth + len(new)
            if admitted > self.max_queue:
                self.counters["submits_rejected"].inc()
                self._log(f"submit rejected: queue depth {self._queue.depth} "
                          f"+ {len(new)} new > {self.max_queue}")
                raise QueueFull(retry_after_s=1.0)
            out = []
            for payload, spec in zip(payloads, specs):
                out.append({"id": spec.hash,
                            "status": self._admit(payload, spec, force)})
            return out

    def _admit(self, payload: Dict[str, Any], spec: JobSpec,
               force: bool) -> str:
        job = self._jobs.get(spec.hash)
        if job is not None:
            if job.status in (QUEUED, RUNNING):
                self.counters["jobs_deduped"].inc()
                return job.status
            if job.status in (DONE, CACHED) and not force:
                self.counters["jobs_deduped"].inc()
                return job.status
            # failed (always re-admitted with a fresh budget) or forced
        if force and self.store is not None:
            self.store.invalidate(spec)
        record = (self.store.load_record(spec)
                  if self.store is not None and not force else None)
        job = _Job(job_id=spec.hash, spec=spec, payload=payload,
                   label=spec.display)
        self._jobs[spec.hash] = job
        self.counters["jobs_submitted"].inc()
        if record is not None:
            self.counters["store_hits"].inc()
            job.status = CACHED
            job.result = record["result"]
            job.attempts = record.get("attempts", 0)
            job.elapsed_s = record.get("elapsed_s", 0.0)
            job.finished_unix = time.time()
            return CACHED
        self._queue.add(spec.hash, spec)
        return QUEUED

    def results(self, job_ids: List[str]) -> Dict[str, Dict[str, Any]]:
        """Status (and, when terminal, result/error) per requested id."""
        with self._lock:
            self._expire_leases()
            out: Dict[str, Dict[str, Any]] = {}
            for job_id in job_ids:
                job = self._jobs.get(job_id)
                if job is None:
                    out[job_id] = {"status": "unknown"}
                    continue
                info: Dict[str, Any] = {
                    "status": job.status,
                    "attempts": job.attempts,
                    "elapsed_s": job.elapsed_s,
                }
                if job.status in (DONE, CACHED):
                    info["result"] = job.result
                elif job.status == FAILED:
                    info["error"] = job.error
                out[job_id] = info
            return out

    # --- worker side --------------------------------------------------------

    def claim(self, worker: str) -> Optional[Dict[str, Any]]:
        """Lease the next queued job to ``worker``; None when idle."""
        with self._lock:
            self._expire_leases()
            self._touch_worker(worker)
            lease = self._queue.claim(worker=worker, ttl_s=self.lease_ttl_s)
            if lease is None:
                return None
            job = self._jobs[lease.index]
            job.status = RUNNING
            job.worker = worker
            job.attempts = lease.attempts
            job.error = None
            self._workers[worker].current_job = job.job_id
            self.counters["leases_granted"].inc()
            self._log(f"leased {job.label} to {worker} "
                      f"(attempt {lease.attempts}, lease {lease.lease_id})")
            return {
                "id": job.job_id,
                "lease": lease.lease_id,
                "payload": job.payload,
                "label": job.label,
                "ttl_s": self.lease_ttl_s,
                "attempts": lease.attempts,
            }

    def heartbeat(self, worker: str,
                  lease_ids: List[str]) -> Dict[str, List[str]]:
        """Renew leases; stale ids tell the worker its work is orphaned."""
        with self._lock:
            self._expire_leases()
            self._touch_worker(worker)
            renewed, stale = [], []
            for lease_id in lease_ids:
                if self._queue.renew(lease_id, self.lease_ttl_s):
                    renewed.append(lease_id)
                    self.counters["leases_renewed"].inc()
                else:
                    stale.append(lease_id)
            return {"renewed": renewed, "stale": stale}

    def complete(
        self,
        lease_id: str,
        worker: str,
        ok: bool,
        result: Optional[Any] = None,
        error: Optional[str] = None,
        elapsed_s: float = 0.0,
    ) -> bool:
        """A worker finished (or failed) its leased job.

        Returns False for a stale lease — it expired and the job was
        requeued to someone else, so this attempt's result is dropped
        (the replacement attempt owns the job now)."""
        with self._lock:
            self._expire_leases()
            self._touch_worker(worker)
            lease = self._queue.get(lease_id)
            if lease is None:
                self.counters["stale_completions"].inc()
                self._log(f"stale completion from {worker} "
                          f"(lease {lease_id})")
                return False
            job = self._jobs[lease.index]
            winfo = self._workers[worker]
            winfo.current_job = None
            if ok:
                self._queue.complete(lease_id)
                job.status = DONE
                job.result = result
                job.attempts = lease.attempts
                job.elapsed_s = elapsed_s
                job.error = None
                job.worker = worker
                job.finished_unix = time.time()
                if self.store is not None:
                    self.store.save(job.spec, result, elapsed_s,
                                    lease.attempts)
                self._completions.append(job.finished_unix)
                self._prune_timeline()
                self.counters["jobs_completed"].inc()
                winfo.jobs_done += 1
                self._log(f"done {job.label} on {worker} "
                          f"({elapsed_s:.1f}s, attempt {lease.attempts})")
            else:
                status, _ = self._queue.fail(lease_id)
                job.error = error
                winfo.jobs_failed += 1
                if status == "retry":
                    job.status = QUEUED
                    job.worker = ""
                    self._log(f"retrying {job.label} "
                              f"(attempt {lease.attempts + 1}/"
                              f"{self.retries + 1}): {error}")
                else:
                    job.status = FAILED
                    job.attempts = lease.attempts
                    job.finished_unix = time.time()
                    self.counters["jobs_failed"].inc()
                    self._log(f"failed {job.label} after "
                              f"{lease.attempts} attempt(s): {error}")
            return True

    # --- internal -----------------------------------------------------------

    def _touch_worker(self, worker: str) -> None:
        info = self._workers.get(worker)
        if info is None:
            info = self._workers[worker] = _Worker(worker)
            self._log(f"worker {worker} joined")
        info.last_seen_unix = time.time()

    def _expire_leases(self) -> None:
        """Requeue jobs whose lease lapsed, uncharged.  Called under
        the lock from every public entry point, so expiry needs no
        background thread."""
        for lease in self._queue.expired():
            status, _ = self._queue.release(lease.lease_id)
            job = self._jobs.get(lease.index)
            self.counters["leases_expired"].inc()
            winfo = self._workers.get(lease.worker)
            if winfo is not None and winfo.current_job == lease.index:
                winfo.current_job = None
            if job is None:
                continue
            if status == "failed":
                job.status = FAILED
                job.error = (f"lease expired {self._queue.max_releases} "
                             "times without a completion")
                job.finished_unix = time.time()
                self.counters["jobs_failed"].inc()
                self._log(f"gave up on {job.label}: {job.error}")
            else:
                job.status = QUEUED
                job.worker = ""
                self._log(f"lease {lease.lease_id} on {job.label} expired "
                          f"(worker {lease.worker}); requeued uncharged")

    def _prune_timeline(self) -> None:
        cutoff = time.time() - TIMELINE_WINDOW_S
        while self._completions and self._completions[0] < cutoff:
            self._completions.pop(0)

    # --- dashboard ----------------------------------------------------------

    def progress(self) -> Dict[str, Any]:
        """The ``/api/progress`` snapshot: jobs, workers, throughput."""
        with self._lock:
            self._expire_leases()
            self._prune_timeline()
            now = time.time()
            by_status: Dict[str, int] = {
                s: 0 for s in (QUEUED, RUNNING, DONE, FAILED, CACHED)}
            jobs = []
            for job in self._jobs.values():
                by_status[job.status] += 1
                jobs.append({
                    "id": job.job_id,
                    "label": job.label,
                    "status": job.status,
                    "worker": job.worker,
                    "attempts": job.attempts,
                    "elapsed_s": round(job.elapsed_s, 3),
                    "error": job.error,
                })
            # newest first, running before queued before terminal
            order = {RUNNING: 0, QUEUED: 1, FAILED: 2, DONE: 3, CACHED: 4}
            jobs.sort(key=lambda j: (order[j["status"]], j["label"]))
            workers = [
                {
                    "name": w.name,
                    "last_seen_s": round(now - w.last_seen_unix, 1),
                    "alive": (now - w.last_seen_unix) < 3 * self.lease_ttl_s,
                    "jobs_done": w.jobs_done,
                    "jobs_failed": w.jobs_failed,
                    "current_job": (self._jobs[w.current_job].label
                                    if w.current_job else None),
                }
                for w in sorted(self._workers.values(),
                                key=lambda w: w.name)
            ]
            n_buckets = int(TIMELINE_WINDOW_S / TIMELINE_BUCKET_S)
            buckets = [0] * n_buckets
            for stamp in self._completions:
                age = now - stamp
                slot = n_buckets - 1 - int(age / TIMELINE_BUCKET_S)
                if 0 <= slot < n_buckets:
                    buckets[slot] += 1
            total = len(self._jobs)
            finished = by_status[DONE] + by_status[FAILED] + by_status[CACHED]
            submitted = self.counters["jobs_submitted"].value
            hits = self.counters["store_hits"].value
            return {
                "uptime_s": round(now - self.started_unix, 1),
                "total": total,
                "finished": finished,
                "by_status": by_status,
                "queue": {
                    "pending": self._queue.pending,
                    "in_flight": self._queue.in_flight,
                    "depth": self._queue.depth,
                    "max_queue": self.max_queue,
                },
                "workers": workers,
                "jobs": jobs[:500],
                "throughput": {
                    "bucket_s": TIMELINE_BUCKET_S,
                    "window_s": TIMELINE_WINDOW_S,
                    "buckets": buckets,
                    "last_minute": sum(
                        1 for t in self._completions if now - t <= 60.0),
                },
                "store": {
                    "enabled": self.store is not None,
                    "hits": hits,
                    "hit_rate": (hits / submitted) if submitted else 0.0,
                    "records": (len(self.store)
                                if self.store is not None else 0),
                },
                "counters": {name: c.value
                             for name, c in self.counters.items()},
                "lease_ttl_s": self.lease_ttl_s,
                "retries": self.retries,
            }


# --- HTTP layer --------------------------------------------------------------

#: largest request body read; a full-grid submit is a few MiB
MAX_BODY_BYTES = 64 << 20


class CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto one shared :class:`SweepCoordinator`."""

    server_version = "repro-service/1"
    #: set by make_server
    coordinator: SweepCoordinator = None  # type: ignore[assignment]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the coordinator log's job, not stderr's

    # -- helpers --

    def _send_json(self, status: int, body: Any,
                   headers: Optional[Dict[str, str]] = None) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> Optional[Dict[str, Any]]:
        """The request's JSON object; None, with the 400/413 already
        sent, for a body the peer must not be able to make us wait on,
        buffer or index."""
        raw = self.headers.get("Content-Length") or "0"
        if not raw.isdecimal():  # "-1" would read until the peer hangs up
            self._send_json(400, {"error": f"bad Content-Length {raw!r}"})
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": f"body of {length} bytes exceeds "
                                           f"{MAX_BODY_BYTES}"})
            return None
        try:
            body = json.loads(self.rfile.read(length)) if length else {}
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            self._send_json(400, {"error": f"bad JSON body: {exc}"})
            return None
        if not isinstance(body, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return body

    # -- verbs --

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        if self.path == "/" or self.path.startswith("/index"):
            data = DASHBOARD_HTML.encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        elif self.path.startswith("/api/progress"):
            self._send_json(200, self.coordinator.progress())
        elif self.path.startswith("/healthz"):
            self._send_json(200, {"ok": True})
        else:
            self._send_json(404, {"error": f"no such path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        body = self._read_json()
        if body is None:
            return
        try:
            if self.path == "/submit":
                self._post_submit(body)
            elif self.path == "/claim":
                job = self.coordinator.claim(
                    str(body.get("worker") or self.client_address[0]))
                self._send_json(200, {"job": job})
            elif self.path == "/heartbeat":
                out = self.coordinator.heartbeat(
                    str(body.get("worker") or ""),
                    list(body.get("leases") or ()))
                self._send_json(200, out)
            elif self.path == "/complete":
                accepted = self.coordinator.complete(
                    str(body.get("lease") or ""),
                    worker=str(body.get("worker") or ""),
                    ok=bool(body.get("ok")),
                    result=body.get("result"),
                    error=body.get("error"),
                    elapsed_s=float(body.get("elapsed_s") or 0.0),
                )
                self._send_json(200, {"accepted": accepted})
            elif self.path == "/results":
                out = self.coordinator.results(list(body.get("ids") or ()))
                self._send_json(200, {"jobs": out})
            elif self.path == "/shutdown":
                self._send_json(200, {"ok": True})
                threading.Thread(target=self.server.shutdown,
                                 daemon=True).start()
            else:
                self._send_json(404, {"error": f"no such path {self.path!r}"})
        except BadSpec as exc:
            self._send_json(400, {"error": str(exc)})
        except QueueFull as exc:
            self._send_json(
                429, {"error": "queue full",
                      "retry_after_s": exc.retry_after_s},
                headers={"Retry-After": f"{exc.retry_after_s:g}"})
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the server
            self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"})

    def _post_submit(self, body: Dict[str, Any]) -> None:
        payloads = body.get("specs")
        if not isinstance(payloads, list) or not payloads:
            self._send_json(400, {"error": "submit needs a non-empty "
                                           "'specs' list"})
            return
        jobs = self.coordinator.submit(payloads,
                                       force=bool(body.get("force")))
        self._send_json(200, {"jobs": jobs})


def make_server(
    coordinator: SweepCoordinator,
    host: str = "127.0.0.1",
    port: int = protocol.DEFAULT_PORT,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``host:port``
    (``port=0`` picks a free port; read ``server.server_port``)."""
    handler = type("BoundHandler", (CoordinatorHandler,),
                   {"coordinator": coordinator})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    store: Optional[ResultStore] = None,
    *,
    host: str = "127.0.0.1",
    port: int = protocol.DEFAULT_PORT,
    retries: int = 1,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    max_queue: int = DEFAULT_MAX_QUEUE,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[SweepCoordinator, ThreadingHTTPServer]:
    """Build a coordinator + server pair (does not block; call
    ``server.serve_forever()``)."""
    coordinator = SweepCoordinator(
        store, retries=retries, lease_ttl_s=lease_ttl_s,
        max_queue=max_queue, log=log)
    server = make_server(coordinator, host, port)
    return coordinator, server
