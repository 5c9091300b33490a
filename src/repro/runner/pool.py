"""Process-pool job execution with timeouts, retries and resume.

``run_jobs`` is the single entry point every sweep goes through:

* ``jobs > 1`` (and fork available): a ``concurrent.futures``
  ``ProcessPoolExecutor`` with a sliding submission window of at most
  ``jobs`` in-flight futures, so each job's submit time is its start
  time and per-job wall-clock timeouts are meaningful.
* ``jobs = 1`` or no fork: the same semantics in-process (no pool, no
  pickling overhead); per-job timeouts cannot be enforced without
  preemption and are ignored with a log note.

Failure handling: a job whose worker raises is retried up to
``retries`` times; a worker that *dies* (segfault, ``os._exit``) or
*hangs* past ``timeout_s`` poisons the whole executor, so the pool is
torn down (hung workers are killed), surviving in-flight jobs are
requeued without charging their retry budget, and a fresh executor is
spawned after an exponential backoff.  A hang is charged to the job
that timed out.  A death breaks every in-flight future alike — the
executor cannot say whose process it was — so it is charged only to a
job that was *alone* in flight: when several were, all are requeued
uncharged and run one at a time until each has finished or died on its
own; then ``jobs``-wide dispatch resumes.  A job that exhausts its budget
is reported as failed in its outcome — it never kills the sweep.  The
queue/budget bookkeeping lives in :class:`repro.runner.lease.LeaseQueue`,
shared with the distributed coordinator (:mod:`repro.service`); the
full retry/restart/backoff contract is documented in EXPERIMENTS.md
("Retries, restarts and backoff").

``run_jobs(..., service="http://host:port")`` hands the non-cached
jobs to a sweep coordinator instead of a local pool: specs are
submitted over HTTP, executed by remote workers through the same
``_execute_payload`` path, and the outcomes (and local store records)
are indistinguishable from a local run.

Results always round-trip through the JSON encoding
(:mod:`repro.runner.serialize`) — in the serial path too — so cached,
serial and parallel runs of the same spec are byte-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.jobspec import JobSpec
from repro.runner.lease import Lease, LeaseQueue
from repro.runner.serialize import from_jsonable, to_jsonable
from repro.runner.store import ResultStore

#: statuses a finished job can report
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"

_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0
#: floor for the poll interval while watching in-flight futures
_MIN_POLL_S = 0.05

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


def _execute_payload(payload: Dict[str, Any]) -> Any:
    """Worker-side entry: decode the spec, run it, encode the result.

    Takes/returns plain JSON-able dicts so the pickle layer never sees
    experiment objects and the transcript matches what the store holds.
    """
    spec = from_jsonable(payload)
    return to_jsonable(spec.execute())


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


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
    local pool (``jobs``/``timeout_s`` then govern the coordinator's
    side, not this process).
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if timeout_s is not None and timeout_s <= 0:
        # A non-positive timeout would mark every in-flight job timed
        # out on the first poll and thrash pool restarts forever.
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")

    def _log(msg: str) -> None:
        if log is not None:
            log(msg)

    total = len(specs)
    outcomes: Dict[int, JobOutcome] = {}
    todo: List[Tuple[int, JobSpec]] = []
    for i, spec in enumerate(specs):
        if store is not None and force:
            store.invalidate(spec)
        record = store.load_record(spec) if store is not None and not force else None
        if record is not None:
            outcomes[i] = JobOutcome(
                spec=spec,
                status=STATUS_CACHED,
                result=from_jsonable(record["result"]),
                attempts=0,
                elapsed_s=0.0,
            )
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

    if todo:
        if service is not None:
            # Local import: repro.service imports repro.runner.
            from repro.service.client import run_via_service

            run_via_service(
                todo, service, retries=retries, force=force,
                store=store, finish=_finish, log=_log,
            )
            return [outcomes[i] for i in range(total)]
        use_pool = jobs > 1 and _fork_available()
        if jobs > 1 and not use_pool:
            _log("fork start method unavailable; degrading to serial execution")
        if use_pool:
            _run_pool(
                todo, jobs=jobs, timeout_s=timeout_s, retries=retries,
                store=store, finish=_finish, log=_log,
            )
        else:
            _run_serial(
                todo, timeout_s=timeout_s, retries=retries,
                store=store, finish=_finish, log=_log,
            )

    return [outcomes[i] for i in range(total)]


def collect_results(outcomes: Sequence[JobOutcome]) -> List[Any]:
    """Results in submission order; raises if any job failed."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        details = "; ".join(f"{o.spec.display}: {o.error}" for o in failed)
        raise RuntimeError(f"{len(failed)} job(s) failed: {details}")
    return [o.result for o in outcomes]


# --- serial fallback ---------------------------------------------------------


def _run_serial(
    todo: Sequence[Tuple[int, JobSpec]],
    *,
    timeout_s: Optional[float],
    retries: int,
    store: Optional[ResultStore],
    finish: Callable[[int, JobOutcome], None],
    log: Callable[[str], None],
) -> None:
    if timeout_s is not None:
        log("note: per-job timeouts are not enforced in serial mode")
    for index, spec in todo:
        attempts = 0
        t0 = time.monotonic()
        while True:
            attempts += 1
            try:
                payload = to_jsonable(spec.execute())
            except Exception as exc:  # noqa: BLE001 — job errors must not kill the sweep
                err = f"{type(exc).__name__}: {exc}"
                if attempts <= retries:
                    log(f"retrying {spec.display} "
                        f"(attempt {attempts + 1}/{retries + 1}): {err}")
                    continue
                finish(index, JobOutcome(
                    spec=spec, status=STATUS_FAILED, error=err,
                    attempts=attempts, elapsed_s=time.monotonic() - t0,
                ))
                break
            elapsed = time.monotonic() - t0
            if store is not None:
                store.save(spec, payload, elapsed, attempts)
            finish(index, JobOutcome(
                spec=spec, status=STATUS_OK, result=from_jsonable(payload),
                attempts=attempts, elapsed_s=elapsed,
            ))
            break


# --- process pool ------------------------------------------------------------


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down even if its workers are hung."""
    processes = list((getattr(executor, "_processes", None) or {}).values())
    for proc in processes:
        proc.terminate()
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)


def _run_pool(
    todo: Sequence[Tuple[int, JobSpec]],
    *,
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
    store: Optional[ResultStore],
    finish: Callable[[int, JobOutcome], None],
    log: Callable[[str], None],
) -> None:
    ctx = multiprocessing.get_context("fork")

    def new_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)

    queue = LeaseQueue(retries=retries)
    for index, spec in todo:
        queue.add(index, spec)
    executor = new_executor()
    in_flight: Dict[Any, Lease] = {}  # future -> lease
    restarts = 0
    #: jobs that were in flight together when a worker died and have
    #: not run alone since; while there are any, one job runs at a time
    suspects: set = set()

    def finish_failed(lease: Lease, err: str) -> None:
        finish(lease.index, JobOutcome(
            spec=lease.spec, status=STATUS_FAILED, error=err,
            attempts=lease.attempts,
            elapsed_s=time.monotonic() - lease.started,
        ))

    def fail_or_retry(lease: Lease, err: str) -> None:
        suspects.discard(lease.index)  # charged: it ran alone, or raised
        status, _ = queue.fail(lease.lease_id)
        if status == "retry":
            log(f"retrying {lease.spec.display} "
                f"(attempt {lease.attempts + 1}/{retries + 1}): {err}")
        elif status == "failed":
            finish_failed(lease, err)

    try:
        while not queue.idle:
            # (released suspects sit at the front of the queue)
            width = 1 if suspects else jobs
            while queue.pending and len(in_flight) < width:
                lease = queue.claim(ttl_s=timeout_s)
                future = executor.submit(
                    _execute_payload, to_jsonable(lease.spec))
                in_flight[future] = lease

            now = time.monotonic()
            poll: Optional[float] = None
            if timeout_s is not None and in_flight:
                nearest = min(l.deadline for l in in_flight.values())
                poll = max(_MIN_POLL_S, nearest - now)
            done, _ = wait(set(in_flight), timeout=poll,
                           return_when=FIRST_COMPLETED)

            broken = died = False
            alone = len(in_flight) == 1
            for future in done:
                lease = in_flight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    broken = died = True
                    if alone:  # nobody else's process it could have been
                        fail_or_retry(lease, "worker process died")
                    continue   # else: released below, with the others
                except Exception as exc:  # noqa: BLE001 — contained per job
                    fail_or_retry(lease, f"{type(exc).__name__}: {exc}")
                    continue
                suspects.discard(lease.index)
                queue.complete(lease.lease_id)
                elapsed = time.monotonic() - lease.started
                if store is not None:
                    store.save(lease.spec, payload, elapsed, lease.attempts)
                finish(lease.index, JobOutcome(
                    spec=lease.spec, status=STATUS_OK,
                    result=from_jsonable(payload),
                    attempts=lease.attempts, elapsed_s=elapsed,
                ))

            if timeout_s is not None:
                # a wedged worker holds its process hostage: only a
                # pool restart can reclaim it, and the timed-out job
                # itself is charged (it may be the reason it hangs)
                expired = {l.lease_id for l in queue.expired()}
                if expired:
                    broken = True
                    for future, lease in list(in_flight.items()):
                        if lease.lease_id in expired:
                            del in_flight[future]
                            fail_or_retry(
                                lease, f"timed out after {timeout_s:.1f}s")

            if broken:
                # Requeue the innocent bystanders at the front, without
                # charging their retry budget, then restart on fresh
                # (reseeded) workers after a backoff.
                for status, lease in queue.release_all():
                    if status == "failed":
                        suspects.discard(lease.index)
                        finish_failed(
                            lease,
                            f"requeued {queue.max_releases} times by pool "
                            "restarts without completing")
                    elif died:
                        suspects.add(lease.index)
                in_flight.clear()
                _kill_executor(executor)
                delay = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** restarts))
                restarts += 1
                log(f"worker pool restarted (#{restarts}); "
                    f"backing off {delay:.2f}s")
                time.sleep(delay)
                executor = new_executor()
        executor.shutdown(wait=True)
    except BaseException:
        _kill_executor(executor)
        raise
