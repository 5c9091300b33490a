"""Wire protocol shared by the sweep coordinator, workers and clients.

Everything rides JSON over HTTP/1.1 keep-alive connections (stdlib
``http.server`` + ``http.client``; no new dependencies): a worker
opens one :class:`Connection` and sends every ``/claim`` and
``/complete`` over it.  Job payloads are the exact
``to_jsonable(JobSpec)`` dicts the local pool sends its workers, and a
``/complete`` body is what :func:`repro.runner.pool.execute_leased`
returned for one plus the lease and worker ids — so a job's result
bytes do not depend on where it ran.

Endpoints (all bodies JSON)::

    POST /submit     {"specs": [payload...], "force": bool}
                     -> {"jobs": [{"id", "status"}...]}; 429 + Retry-After
                        when the queue is at --max-queue
    POST /claim      {"worker": name}
                     -> {"job": {"id","lease","payload","label",
                                 "ttl_s","attempts"}} or {"job": null}
    POST /heartbeat  {"worker": name, "leases": [lease_id...]}
                     -> {"renewed": [...], "stale": [...]}; stale: ended,
                        expired, or held by another worker
    POST /complete   {"lease": id, "worker": name, "ok": bool,
                      "result": payload | "error": str, "elapsed_s": f,
                      "claim": true (optional)}
                     -> {"accepted": bool}, false for a stale lease (as
                        /heartbeat's); with "claim", also "job" in
                        /claim's shape: the worker's next lease, one
                        round trip per job
    POST /results    {"ids": [job_id...]}
                     -> {"jobs": {id: {"status","attempts","releases",
                                       "elapsed_s", "result" | "error"}}};
                        attempts are charged ones, releases the leases
                        that expired uncharged; an id it does not hold
                        (restarted, or the record vanished) is
                        {"status": "unknown"}: the client resubmits it
    POST /shutdown   {} -> {"ok": true}; the server exits afterwards
    GET  /api/progress -> the dashboard/status snapshot
    GET  /healthz      -> {"ok": true}
    GET  /             -> the HTML dashboard

A request without a ``worker`` name speaks for the client's address.

A connection stays open between requests until either side closes it:
the coordinator closes one that sits idle for
``CoordinatorHandler.timeout`` seconds, and after an error reply sent
before the request body was read (400 bad ``Content-Length``, 413).
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Optional, Tuple

DEFAULT_PORT = 8642
DEFAULT_LEASE_TTL_S = 30.0
DEFAULT_MAX_QUEUE = 1024
#: how often a client polls /results, and a worker's default wait
#: between empty /claim polls
POLL_S = 0.5

#: job lifecycle states reported by /results and /api/progress
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CACHED = "cached"
TERMINAL = (DONE, FAILED, CACHED)
#: what /results answers for an id the coordinator does not hold
UNKNOWN = "unknown"


class ServiceError(RuntimeError):
    """The coordinator is unreachable or answered nonsense."""


class Backpressure(Exception):
    """HTTP 429: the coordinator's queue is full; retry later."""

    def __init__(self, retry_after_s: float):
        super().__init__(f"coordinator queue full; retry in {retry_after_s}s")
        self.retry_after_s = retry_after_s


#: what a kept-alive connection the server has since closed fails with
#: before any reply byte: the request reached no handler, so it is sent
#: once more on a fresh connection
_CLOSED_BY_PEER = (http.client.RemoteDisconnected, BrokenPipeError,
                   ConnectionResetError)


class Connection:
    """One HTTP/1.1 connection to a coordinator, kept alive between
    JSON round trips.

    The socket opens on the first request and reopens after either
    side closed it.  Not thread-safe: every thread that talks to the
    coordinator owns its own.  Use as a context manager, or call
    :meth:`close`; an open connection holds one coordinator handler
    thread.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        scheme, _, rest = self.base_url.partition("://")
        if scheme != "http":
            raise ServiceError(f"not an http:// URL: {base_url!r}")
        netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        try:
            self._http = http.client.HTTPConnection(netloc, timeout=timeout_s)
        except http.client.InvalidURL as exc:
            raise ServiceError(f"bad coordinator URL {base_url!r}: "
                               f"{exc}") from None

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        self._http.close()

    def request(
        self,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Any]:
        """One JSON round trip: POST ``payload`` (or GET when None).

        Returns ``(status_code, decoded_body)``.  Raises
        :class:`Backpressure` on 429 and :class:`ServiceError` when the
        coordinator is unreachable or replies with a non-JSON body.
        """
        url = self.base_url + path
        method, body = "GET", None
        headers = {"Accept": "application/json"}
        if payload is not None:
            method, body = "POST", json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        if timeout_s != self._http.timeout:
            self._http.timeout = timeout_s
            if self._http.sock is not None:
                self._http.sock.settimeout(timeout_s)
        reused = self._http.sock is not None
        try:
            while True:
                try:
                    self._http.request(method, self._prefix + path, body,
                                       headers)
                    resp = self._http.getresponse()
                    break
                except _CLOSED_BY_PEER:
                    self.close()
                    if not reused:
                        raise
                    reused = False
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise ServiceError(
                f"coordinator unreachable at {url}: {exc}") from exc
        status = resp.status
        if status == 429:
            try:
                retry_after = float(resp.getheader("Retry-After", "1"))
            except ValueError:
                retry_after = 1.0
            raise Backpressure(retry_after)
        if not data:
            return status, None
        try:
            return status, json.loads(data)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"coordinator at {url} replied non-JSON "
                f"(status {status}): {data[:200]!r}") from exc


def request_json(
    base_url: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
) -> Tuple[int, Any]:
    """One JSON round trip on a connection of its own, closed after it
    (see :meth:`Connection.request`).  A caller that sends more than a
    few requests keeps a :class:`Connection` instead."""
    with Connection(base_url) as conn:
        return conn.request(path, payload)
