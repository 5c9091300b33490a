"""Lease-based job accounting shared by the pool and the sweep service.

Both executors — the local :mod:`repro.runner.pool` and the HTTP
coordinator in :mod:`repro.service` — face the same bookkeeping
problem: a queue of jobs, each "checked out" by some worker for a
while, where workers can crash, hang or vanish.  :class:`LeaseQueue`
is that bookkeeping, with two ways for a lease to end badly:

* ``fail`` — the job raised, or the process running it died or was
  killed at its deadline — **charges** the retry budget; the job
  requeues at the back until the budget is spent, then reports failed.
* ``release`` — nobody can say what became of the attempt: a service
  lease expired because its worker was SIGKILLed or partitioned away —
  requeues at the *front* **without charging** the budget.  A per-job
  cap (:data:`DEFAULT_MAX_RELEASES`) stops a job that somehow takes
  down every worker it touches from cycling forever.

A job's state — charged attempts, uncharged releases, live lease — is
one :class:`Entry`; a :class:`Lease` reads its job's fields from it.

The queue is deliberately synchronous and lock-free; callers that need
thread safety (the HTTP coordinator) hold their own lock around it.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

#: cap on uncharged requeues before a job is declared cursed
DEFAULT_MAX_RELEASES = 8


@dataclass(eq=False)
class Entry:
    """One job's lease state, and the only copy of it: the queue, its
    leases and the coordinator's job table all read this record."""

    #: the caller's key: a pool position, a spec hash at the coordinator
    index: Any
    #: opaque job payload — a JobSpec in both executors
    spec: Any
    #: charged attempts, the live lease's included
    attempts: int = 0
    #: uncharged requeues so far
    releases: int = 0
    #: the live lease; None while the job is pending or has ended
    lease: Optional["Lease"] = None


@dataclass(eq=False)
class Lease:
    """One claim of one job by one worker, valid until ``deadline``."""

    lease_id: str
    entry: Entry = field(repr=False)
    worker: str
    started: float
    #: monotonic time after which the lease is expired; None = forever
    deadline: Optional[float]

    @property
    def index(self) -> Any:
        return self.entry.index

    @property
    def spec(self) -> Any:
        return self.entry.spec

    @property
    def attempts(self) -> int:
        """The job's charged attempts (1 on the first claim)."""
        return self.entry.attempts

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline


class LeaseQueue:
    """Pending jobs + in-flight leases + the retry/release budget rules."""

    def __init__(
        self,
        retries: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self._clock = clock
        self._pending: Deque[Entry] = deque()
        self._leases: Dict[str, Lease] = {}
        self._seq = itertools.count(1)

    # --- introspection ------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def in_flight(self) -> int:
        return len(self._leases)

    @property
    def depth(self) -> int:
        """Jobs the queue is still responsible for (pending + leased)."""
        return len(self._pending) + len(self._leases)

    @property
    def idle(self) -> bool:
        return not self._pending and not self._leases

    def get(self, lease_id: str) -> Optional[Lease]:
        return self._leases.get(lease_id)

    def live(self) -> Iterable[Lease]:
        """In-flight leases, oldest claim first."""
        return self._leases.values()

    # --- lifecycle ----------------------------------------------------------

    def add(self, index: Any, spec: Any) -> Entry:
        """Enqueue a job at the back of the pending queue: its record."""
        entry = Entry(index, spec)
        self._pending.append(entry)
        return entry

    def claim(
        self, worker: str = "", ttl_s: Optional[float] = None
    ) -> Optional[Lease]:
        """Check out the next pending job, charging one attempt.

        Returns None when nothing is pending.  ``ttl_s`` sets the lease
        deadline; expired leases surface via :meth:`expired`.
        """
        if not self._pending:
            return None
        entry = self._pending.popleft()
        entry.attempts += 1
        now = self._clock()
        entry.lease = lease = Lease(
            f"L{next(self._seq)}", entry, worker, now,
            now + ttl_s if ttl_s is not None else None)
        self._leases[lease.lease_id] = lease
        return lease

    def renew(self, lease_id: str, ttl_s: float) -> bool:
        """Push a live lease's deadline out (heartbeat); False if stale."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = self._clock() + ttl_s
        return True

    def complete(self, lease_id: str) -> Optional[Lease]:
        """Retire a finished lease; None if it was already expired/stale."""
        lease = self._leases.pop(lease_id, None)
        if lease is not None:
            lease.entry.lease = None
        return lease

    def fail(self, lease_id: str) -> Tuple[str, Optional[Lease]]:
        """The attempt failed: charge the budget, retry or give up.

        Returns ``("retry", lease)`` when the job requeued (at the
        back), ``("failed", lease)`` when its budget is spent, or
        ``("stale", None)`` when the lease was already gone.
        """
        lease = self.complete(lease_id)
        if lease is None:
            return ("stale", None)
        if lease.attempts <= self.retries:
            self._pending.append(lease.entry)
            return ("retry", lease)
        return ("failed", lease)

    def release(self, lease_id: str) -> Tuple[str, Optional[Lease]]:
        """The attempt was lost: requeue at the front, budget uncharged.

        Returns ``("requeued", lease)`` normally, ``("failed", lease)``
        once the job has been released :data:`DEFAULT_MAX_RELEASES`
        times (a job that takes down every worker it meets must not spin
        forever), or ``("stale", None)``.
        """
        lease = self.complete(lease_id)
        if lease is None:
            return ("stale", None)
        entry = lease.entry
        entry.releases += 1
        if entry.releases >= DEFAULT_MAX_RELEASES:
            return ("failed", lease)
        entry.attempts -= 1  # this attempt never counts
        self._pending.appendleft(entry)
        return ("requeued", lease)

    def expired(self, now: Optional[float] = None) -> List[Lease]:
        """In-flight leases past their deadline (not yet released)."""
        now = self._clock() if now is None else now
        return [l for l in self._leases.values() if l.expired(now)]
