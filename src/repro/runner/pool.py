"""Job execution with timeouts, retries and resume.

``run_jobs`` is the single entry point every sweep goes through, and
one claim → run → settle loop over a :class:`~repro.runner.lease.LeaseQueue`
is all of it:

* ``jobs > 1`` (and fork available): the loop owns up to ``jobs`` forked
  worker processes, each with one duplex pipe and at most one lease.
  A lease is claimed when it is handed to a worker, so its claim time is
  its start time and per-job wall-clock timeouts are meaningful.
* ``jobs = 1``: the same loop with no workers — the lease runs
  in-process — unless a ``timeout_s`` asks for a process that can be
  killed, in which case there is one worker.  Without fork there are
  never workers and timeouts are not enforced (a log note says so).

A cell that runs in this process or in a forked worker is followed by
a collection of the reference cycles it leaves (``_collecting``), so a
long sweep's memory does not ride on garbage-collector timing.

Failure handling: a job that raises is retried up to ``retries`` times,
then reported failed in its outcome — it never kills the sweep.  A
worker that *dies* (segfault, ``os._exit``) is EOF on its own pipe and a
worker that *hangs* past ``timeout_s`` is killed by pid, so either is
charged to the one lease that worker held, exactly like a raise; the
worker is replaced and every other in-flight job keeps running.  See
EXPERIMENTS.md ("Retries and lease expiry").

``run_jobs(..., service="http://host:port")`` hands the non-cached jobs
to a sweep coordinator (:mod:`repro.service`) instead: its workers call
the same :func:`execute_leased`, and its results become outcomes (and
local store records) through the same :func:`outcome_of`.

Specs and results always cross :func:`execute_leased` in their JSON
encoding (:mod:`repro.runner.serialize`) — in-process too — so cached,
serial, parallel and remote runs of the same spec are byte-identical.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence,
    Tuple)

from repro.runner.jobspec import JobSpec
from repro.runner.lease import Lease, LeaseQueue
from repro.runner.serialize import from_jsonable, to_jsonable
from repro.runner.store import ResultStore

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: statuses a finished job can report
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"

#: how long an idle worker gets to exit on the shutdown sentinel
_JOIN_S = 2.0

Logger = Optional[Callable[[str], None]]


@dataclass
class JobOutcome:
    """What happened to one submitted :class:`JobSpec`."""

    spec: JobSpec
    status: str
    result: Any = None
    error: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)


def execute_leased(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The worker body: decode the spec, run it, encode the result.

    Takes and returns plain JSON-able dicts — ``{"ok": True, "result",
    "elapsed_s"}`` or ``{"ok": False, "error", "elapsed_s"}`` — so no
    pipe or socket ever sees experiment objects and the transcript
    matches what the store holds.  The in-process path, the forked
    workers and :func:`repro.service.worker.run_worker` all call this.
    """
    t0 = time.monotonic()
    try:
        result = to_jsonable(from_jsonable(payload).execute())
    except Exception as exc:  # noqa: BLE001 — the job failed, not its worker
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "elapsed_s": time.monotonic() - t0}
    return {"ok": True, "result": result, "elapsed_s": time.monotonic() - t0}


@contextmanager
def _collecting() -> Iterator[None]:
    """Run one cell, then free the reference cycles it leaves behind
    (port and link, bound callbacks, pipes and their legs), so the next
    cell starts from the same footprint.

    The heap from before the cell is frozen while it runs, so the
    closing collection scans only what the cell allocated; the young
    collection first keeps what the loop made since the last cell out
    of the freeze.  While frozen, a collection cannot free older
    garbage either, so a loop that runs cells here ends with a full
    collection.  The freeze is the process's own: a caller's
    ``gc.freeze()`` does not outlive a cell run here."""
    gc.collect(1)
    gc.freeze()
    try:
        yield
    finally:
        gc.collect()
        gc.unfreeze()


def outcome_of(
    spec: JobSpec,
    reply: Dict[str, Any],
    attempts: int,
    store: Optional[ResultStore] = None,
) -> JobOutcome:
    """A final :func:`execute_leased` reply as a :class:`JobOutcome`; an
    ok result is written to ``store`` first."""
    elapsed = reply["elapsed_s"]
    if not reply["ok"]:
        return JobOutcome(spec=spec, status=STATUS_FAILED,
                          error=reply["error"], attempts=attempts,
                          elapsed_s=elapsed)
    if store is not None:
        store.save(spec, reply["result"], elapsed, attempts)
    return JobOutcome(spec=spec, status=STATUS_OK,
                      result=from_jsonable(reply["result"]),
                      attempts=attempts, elapsed_s=elapsed)


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    log: Logger = None,
    service: Optional[str] = None,
) -> List[JobOutcome]:
    """Run ``specs``; returns one :class:`JobOutcome` per spec, in order.

    ``jobs=None`` means ``os.cpu_count()``.  With a ``store``, completed
    hashes are loaded instead of re-run (``force=True`` invalidates and
    re-runs).  Failures are contained: inspect ``outcome.status``, or
    use :func:`collect_results` to raise on any failure.

    ``service`` is a coordinator base URL (``http://host:port``): the
    non-cached jobs run on that coordinator's workers instead of a
    local pool, and ``jobs``, ``timeout_s`` and ``retries`` are not
    used — the coordinator's ``--retries`` and ``--lease-ttl`` and the
    workers started against it decide those.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if timeout_s is not None and timeout_s <= 0:
        # A non-positive timeout would kill every worker on the first
        # poll, whatever its job.
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")

    def _log(msg: str) -> None:
        if log is not None:
            log(msg)

    total = len(specs)
    outcomes: Dict[int, JobOutcome] = {}
    todo: List[Tuple[int, JobSpec]] = []
    for i, spec in enumerate(specs):
        hit = store.hit(spec, force) if store is not None else None
        if hit is not None:
            outcomes[i] = JobOutcome(
                spec=spec, status=STATUS_CACHED, result=hit[1])
            _log(f"[{len(outcomes)}/{total}] cached {spec.display}")
        else:
            todo.append((i, spec))

    def _finish(idx: int, outcome: JobOutcome) -> None:
        outcomes[idx] = outcome
        note = f" ({outcome.error})" if outcome.error else ""
        _log(
            f"[{len(outcomes)}/{total}] {outcome.status} "
            f"{outcome.spec.display} ({outcome.elapsed_s:.1f}s)"
            f"{note}"
        )

    if todo and service is not None:
        # Local import: repro.service imports repro.runner.
        from repro.service.client import run_via_service

        run_via_service(todo, service, force=force, store=store,
                        finish=_finish, log=_log)
    elif todo:
        fork = hasattr(os, "fork")
        if jobs > 1 and not fork:
            _log("fork start method unavailable; degrading to serial execution")
        if timeout_s is not None and not fork:
            _log("note: per-job timeouts are not enforced without fork")
        # a lease runs in-process unless it may need company or killing
        in_process = not fork or (jobs == 1 and timeout_s is None)
        _run_leases(
            todo, workers=0 if in_process else jobs, timeout_s=timeout_s,
            retries=retries, store=store, finish=_finish, log=_log,
        )

    return [outcomes[i] for i in range(total)]


def collect_results(outcomes: Sequence[JobOutcome]) -> List[Any]:
    """Results in submission order; raises if any job failed."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        details = "; ".join(f"{o.spec.display}: {o.error}" for o in failed)
        raise RuntimeError(f"{len(failed)} job(s) failed: {details}")
    return [o.result for o in outcomes]


# --- the lease loop and its workers ------------------------------------------


@dataclass
class _Worker:
    """A forked process this loop owns, and the one lease it may hold."""

    process: Any
    conn: Connection
    lease: Optional[Lease] = None


def _worker_main(conn: Connection, parent_end: Connection) -> None:
    """A forked worker: one payload in, one reply out, until ``None``."""
    # our inherited copy of the parent's end would outlive the parent
    # and keep recv() from ever seeing it gone
    parent_end.close()
    try:
        while True:
            payload = conn.recv()
            if payload is None:
                return
            with _collecting():
                reply = execute_leased(payload)
            conn.send(reply)
    except (EOFError, OSError):
        return  # the parent is gone


def _spawn(ctx: Any) -> _Worker:
    parent_end, child_end = ctx.Pipe()
    process = ctx.Process(
        target=_worker_main, args=(child_end, parent_end), daemon=True)
    process.start()
    # the child's is now the only copy: its death is EOF on parent_end
    child_end.close()
    return _Worker(process, parent_end)


def _retire(worker: _Worker, kill: bool) -> None:
    """Stop and reap one worker.  An idle one is *asked* (``None``): a
    sibling forked after it inherited a copy of our end of its pipe, so
    closing that end would never reach it as EOF."""
    if kill:
        worker.process.kill()
    else:
        try:
            worker.conn.send(None)
        except OSError:
            pass  # already dead
    worker.process.join(_JOIN_S)
    if worker.process.is_alive():
        worker.process.kill()
        worker.process.join()
    worker.conn.close()


def _run_leases(
    todo: Sequence[Tuple[int, JobSpec]],
    *,
    workers: int,
    timeout_s: Optional[float],
    retries: int,
    store: Optional[ResultStore],
    finish: Callable[[int, JobOutcome], None],
    log: Callable[[str], None],
) -> None:
    """Claim → run → settle until the queue is idle, on at most
    ``workers`` owned processes (0: each lease runs in this one)."""
    queue = LeaseQueue(retries=retries)
    for index, spec in todo:
        queue.add(index, spec)
    if workers:  # the only path that forks loads multiprocessing
        import multiprocessing
        from multiprocessing.connection import wait

        ctx = multiprocessing.get_context("fork")
    idle: List[_Worker] = []
    busy: Dict[Connection, _Worker] = {}

    def settle(lease: Lease, reply: Dict[str, Any]) -> None:
        """The one retry/charge rule: ok completes, anything else is
        charged to this lease — retried while the budget lasts."""
        if reply["ok"]:
            queue.complete(lease.lease_id)
        elif queue.fail(lease.lease_id)[0] == "retry":
            log(f"retrying {lease.spec.display} "
                f"(attempt {lease.attempts + 1}/{retries + 1}): "
                f"{reply['error']}")
            return
        finish(lease.index,
               outcome_of(lease.spec, reply, lease.attempts, store))

    def dispatch(worker: _Worker) -> None:
        """Hand ``worker`` the next pending lease."""
        worker.lease = queue.claim(ttl_s=timeout_s)
        try:
            worker.conn.send(to_jsonable(worker.lease.spec))
        except OSError:
            pass  # found dead: reads as EOF below
        busy[worker.conn] = worker

    def lost(worker: _Worker, why: str) -> None:
        """``worker`` will never reply: replace it, charge its lease."""
        _retire(worker, kill=True)
        settle(worker.lease, {
            "ok": False, "error": why,
            "elapsed_s": time.monotonic() - worker.lease.started})

    try:
        while not queue.idle:
            if not workers:
                lease = queue.claim()
                with _collecting():
                    reply = execute_leased(to_jsonable(lease.spec))
                settle(lease, reply)
                continue
            while queue.pending and len(busy) < workers:
                dispatch(idle.pop() if idle else _spawn(ctx))
            patience = None
            if timeout_s is not None:
                nearest = min(w.lease.deadline for w in busy.values())
                patience = max(0.0, nearest - time.monotonic())
            for conn in wait(list(busy), patience):
                worker = busy.pop(conn)
                lease = worker.lease
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    lost(worker, "worker process died")
                    continue
                # the worker starts its next job while this one settles;
                # a charged retry still joins the back of the queue
                if queue.pending:
                    dispatch(worker)
                else:
                    idle.append(worker)
                settle(lease, reply)
            for conn, worker in list(busy.items()):
                if worker.lease.expired():
                    del busy[conn]
                    lost(worker, f"timed out after {timeout_s:.1f}s")
    finally:
        for worker in idle:
            _retire(worker, kill=False)
        for worker in busy.values():  # only on the way out of an exception
            _retire(worker, kill=True)
        if not workers:
            gc.collect()  # what the frozen heap made garbage meanwhile
