"""Event loop at the heart of the simulator.

The engine is deliberately minimal: a binary heap of ``(time, seq, fn,
args, handle)`` entries, with a monotonically increasing sequence
number to break ties deterministically.  Components schedule plain
callbacks; there are no coroutine processes, which keeps the hot path
(packet transmission/arrival) cheap enough to push millions of events
through CPython.

Almost every event is fire-and-forget — a packet's serializer finishing,
its arrival one propagation delay later — so :meth:`Simulator.schedule`
returns nothing and the entry's ``handle`` slot is ``None``: no object
is allocated beyond the heap tuple.  Only the few timers that are ever
cancelled (TCP's RTO, the NIC's interrupt and GRO timers, the fluid
engine's completion timer) are armed through :meth:`Simulator.timer`,
which puts an :class:`Event` in that slot and returns it.

Cancellation is O(1) — the heap entry stays behind with its handle
flagged — but a workload that cancels and re-arms long-dated timers on
every packet (TCP re-arms its ~20 ms RTO on every ACK) would otherwise
grow the heap without bound: the dead entries sit far beyond the run
horizon and are never popped.  The simulator therefore counts live
cancellations and, when more than half the heap is dead, rebuilds it
without the cancelled entries.  Entries keep their original ``(time,
seq)`` keys, so the pop order — and with it every simulation result —
is unchanged.

:meth:`Simulator.run` is the one loop that drives a simulation: it
pops events until the heap drains or the ``until`` horizon.
:meth:`Simulator.step` and :meth:`Simulator.peek_time` execute or peek
one event at a time, for tests that single-step the heap and for the
invariant checker.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

#: never bother compacting heaps smaller than this
_COMPACT_MIN = 64


class Event:
    """A cancellable timer.  Returned by :meth:`Simulator.timer`.

    Cancelling is O(1): the heap entry stays but is skipped when popped.
    ``time`` is the absolute simulation time in nanoseconds.
    """

    __slots__ = ("time", "cancelled", "_sim")

    def __init__(self, time: int, sim: Optional["Simulator"] = None):
        self.time = time
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
        return f"<Event t={self.time} {state}>"


class Simulator:
    """Deterministic discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.schedule(usec(10), my_callback, arg1, arg2)
        rto = sim.timer(msec(20), on_timeout)   # cancellable
        sim.run(until=seconds(1))

    Events at the same timestamp fire in scheduling order (FIFO), which
    makes runs reproducible regardless of heap internals.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: List[tuple] = []
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

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.  Fire and
        forget: use :meth:`timer` for an event that may be cancelled."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (self._now + delay, seq, fn, args, None))

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        self.schedule(time - self._now, fn, *args)

    def timer(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Like :meth:`schedule`, but returns a handle whose ``cancel()``
        keeps ``fn`` from running."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        event = Event(time, self)
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, fn, args, event))
        return event

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.  Entries keep their
        ``(time, seq)`` keys, so pop order is exactly what it would have
        been had the dead entries simply been skipped.  The list is
        mutated in place: ``run()``/``step()`` hold local aliases to it
        while dispatching the callbacks that trigger compaction."""
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[4] is None or not entry[4].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][4] is not None and heap[0][4].cancelled:
            _heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, fn, args, handle = _heappop(heap)
            if handle is not None and handle.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            self.events_executed += 1
            fn(*args)
            return True
        return False

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` is reached.
        Returns the number of events executed.

        When stopping at ``until``, the clock is advanced to ``until`` so
        rate computations over a fixed window are exact.
        """
        horizon = math.inf if until is None else until
        count = 0
        heap = self._heap
        pop = _heappop
        while heap:
            entry = pop(heap)
            time, _, fn, args, handle = entry
            if time > horizon:
                # popping first and pushing the one entry past the
                # horizon back is cheaper than peeking at every event
                _heappush(heap, entry)
                break
            if handle is not None and handle.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            fn(*args)
            count += 1
        self.events_executed += count
        if until is not None and self._now < until:
            self._now = until
        return count
