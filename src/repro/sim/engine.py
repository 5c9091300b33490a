"""Event loop at the heart of the simulator.

The engine is deliberately minimal: a binary heap of ``(time, seq,
event)`` entries, a monotonically increasing sequence number to break
ties deterministically, and cancellable events.  Components schedule
plain callbacks; there are no coroutine processes, which keeps the hot
path (packet transmission/arrival) cheap enough to push millions of
events through CPython.

Cancellation is O(1) — the heap entry stays behind with a flag — but a
workload that cancels and reschedules long-dated timers on every packet
(TCP re-arms its ~20 ms RTO on every ACK) would otherwise grow the heap
without bound: the dead entries sit far beyond the run horizon and are
never popped.  The simulator therefore counts live cancellations and,
when more than half the heap is dead, rebuilds it without the cancelled
entries.  Entries keep their original ``(time, seq)`` keys, so the pop
order — and with it every simulation result — is unchanged.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

#: never bother compacting heaps smaller than this
_COMPACT_MIN = 64


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancelling an event is O(1): the heap entry stays but is skipped when
    popped.  ``time`` is the absolute simulation time in nanoseconds.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                # done here, not in a Simulator method: cancel runs once
                # per ACK (RTO re-arm) and the extra call was measurable
                sim._cancelled = count = sim._cancelled + 1
                if count > _COMPACT_MIN and count * 2 > len(sim._heap):
                    sim._compact()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} {getattr(self.fn, '__qualname__', self.fn)} {state}>"


class Simulator:
    """Deterministic discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.schedule(usec(10), my_callback, arg1, arg2)
        sim.run(until=seconds(1))

    Events at the same timestamp fire in scheduling order (FIFO), which
    makes runs reproducible regardless of heap internals.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: List[tuple] = []
        self._running = False
        #: cancelled events still sitting in the heap (approximate: an
        #: event cancelled after it fired counts until the next compaction)
        self._cancelled: int = 0
        #: cumulative count of events fired over the simulator's lifetime
        #: (perf benchmarks report events/sec against wall time)
        self.events_executed: int = 0

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def pending_count(self) -> int:
        """Heap entries currently held, cancelled ones included."""
        return len(self._heap)

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        event = Event(time, fn, args, self)
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        return self.schedule(time - self._now, fn, *args)

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.  Entries keep their
        ``(time, seq)`` keys, so pop order is exactly what it would have
        been had the dead entries simply been skipped.  The list is
        mutated in place: ``run()``/``step()`` hold local aliases to it
        while dispatching the callbacks that trigger compaction."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        heap = self._heap
        while heap:
            _, _, event = _heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = event.time
            self.events_executed += 1
            event.fn(*event.args)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events executed.

        When stopping at ``until``, the clock is advanced to ``until`` so
        rate computations over a fixed window are exact.
        """
        count = 0
        heap = self._heap
        pop = _heappop
        while heap:
            time, _, event = heap[0]
            if until is not None and time > until:
                break
            pop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            event.fn(*event.args)
            count += 1
            if max_events is not None and count >= max_events:
                self.events_executed += count
                return count
        if until is not None and self._now < until:
            self._now = until
        self.events_executed += count
        return count
