"""Unit tests for the discrete-event engine."""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams


def test_initial_time_is_zero():
    assert Simulator().now == 0


def test_schedule_and_run_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(5, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.timer(10, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: sim.schedule_at(25, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [25]


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_run_returns_event_count():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    assert sim.run() == 7


def test_peek_time_skips_cancelled():
    sim = Simulator()
    ev = sim.timer(5, lambda: None)
    sim.schedule(9, lambda: None)
    ev.cancel()
    assert sim.peek_time() == 9


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_heap_bounded_under_cancel_churn():
    """Regression for the cancelled-event heap leak: TCP-style
    cancel/re-arm of a long-dated timer per ACK used to leave every
    cancelled entry in the heap until its far-future pop time."""
    sim = Simulator()
    n_timers = 64
    timers = [sim.timer(20_000_000 + i, lambda: None)
              for i in range(n_timers)]
    ops = 20_000
    for i in range(ops):
        idx = i % n_timers
        timers[idx].cancel()
        timers[idx] = sim.timer(20_000_000 + i, lambda: None)
    # without compaction the heap would hold ~ops dead entries
    assert sim.pending_count() < 4 * n_timers + 256


def test_cancel_churn_preserves_results():
    """Compaction must not change which events fire or in what order."""
    sim = Simulator()
    fired = []
    timers = {}
    for i in range(64):
        timers[i] = sim.timer(1_000_000 + i, fired.append, ("stale", i))
    for round_ in range(40):
        for i in range(64):
            timers[i].cancel()
            timers[i] = sim.timer(
                1_000_000 + 64 * round_ + i, fired.append, ("live", round_, i))
    sim.run()
    assert fired == [("live", 39, i) for i in range(64)]


def test_compaction_during_run_keeps_pop_order():
    """Mass-cancelling from inside a callback triggers compaction while
    run() is mid-dispatch; the surviving events must still fire exactly
    once, in (time, seq) order."""
    sim = Simulator()
    fired = []
    victims = [sim.timer(1_000_000 + i, fired.append, f"victim{i}")
               for i in range(500)]

    def massacre():
        fired.append("massacre")
        for v in victims[:400]:
            v.cancel()
        sim.schedule(1, fired.append, "after")

    sim.schedule(10, massacre)
    sim.schedule(20, fired.append, "tail")
    sim.run()
    assert fired[:3] == ["massacre", "after", "tail"]
    assert fired[3:] == [f"victim{i}" for i in range(400, 500)]
    assert sim.events_executed == len(fired)


def test_events_executed_counts_fired_not_cancelled():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.timer(10, lambda: None).cancel()
    sim.run()
    assert sim.events_executed == 5
    assert sim.step() is False
    assert sim.events_executed == 5


def test_schedule_is_fire_and_forget():
    """Only ``timer()`` hands out a handle: a caller that tries to
    cancel a ``schedule()`` result fails at once."""
    sim = Simulator()
    assert sim.schedule(10, lambda: None) is None
    assert sim.schedule_at(20, lambda: None) is None
    with pytest.raises(AttributeError):
        sim.schedule(30, lambda: None).cancel()
    with pytest.raises(ValueError):
        sim.timer(-1, lambda: None)


# --- the engine against a reference model ----------------------------------


class _RefTimer:
    def __init__(self, entry):
        self.entry = entry

    def cancel(self):
        self.entry[2] = True


class _Reference:
    """The engine's contract, naively: every pending event fires in
    ``(time, scheduling order)`` unless it was cancelled first."""

    def __init__(self):
        self.now = 0
        self.events_executed = 0
        self._pending = []      # [time, order, cancelled, fn, args]
        self._scheduled = 0

    def _push(self, time, fn, args):
        entry = [time, self._scheduled, False, fn, args]
        self._scheduled += 1
        self._pending.append(entry)
        return entry

    def schedule(self, delay, fn, *args):
        self._push(self.now + delay, fn, args)

    def schedule_at(self, time, fn, *args):
        self._push(time, fn, args)

    def timer(self, delay, fn, *args):
        return _RefTimer(self._push(self.now + delay, fn, args))

    def _fire_next(self, horizon):
        live = [entry for entry in self._pending if not entry[2]]
        if not live or min(live)[0] > horizon:
            return False
        entry = min(live)
        self._pending.remove(entry)
        self.now = entry[0]
        self.events_executed += 1
        entry[3](*entry[4])
        return True

    def step(self):
        return self._fire_next(math.inf)

    def run(self, until=None):
        horizon = math.inf if until is None else until
        count = 0
        while self._fire_next(horizon):
            count += 1
        if until is not None and self.now < until:
            self.now = until
        return count


def _interpret(sim, phases):
    """Drive ``sim`` through ``phases``: each is a list of operations
    applied at top level, then one drain; a final ``run()`` empties it.
    A scheduled event, when it fires, records ``(now, label)`` and applies
    its own nested operations.  Returns everything observable."""
    fired, timers, drains = [], [], []
    labels = itertools.count()

    def apply(op):
        if op[0] == "cancel":
            if timers:   # may hit a timer already cancelled or fired
                timers[op[1] % len(timers)].cancel()
            return
        kind, delay, body = op
        label = next(labels)
        if kind == "schedule":
            sim.schedule(delay, fire, label, body)
        elif kind == "schedule_at":
            sim.schedule_at(sim.now + delay, fire, label, body)
        else:
            timers.append(sim.timer(delay, fire, label, body))

    def fire(label, body):
        fired.append((sim.now, label))
        for op in body:
            apply(op)

    for ops, drain in phases:
        for op in ops:
            apply(op)
        if drain[0] == "until":
            result = sim.run(until=sim.now + drain[1])
        else:
            result = sim.step()
        drains.append((result, sim.now))
    drains.append((sim.run(), sim.now))
    return fired, drains, sim.events_executed


_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 63))


def _scheduling(bodies):
    # delay 0 inside a body is the nested same-instant case
    return st.tuples(st.sampled_from(("schedule", "timer", "schedule_at")),
                     st.integers(0, 12), bodies)


_OPS = st.recursive(st.one_of(_scheduling(st.just(())), _CANCEL),
                    lambda inner: st.one_of(
                        _scheduling(st.lists(inner, max_size=3).map(tuple)),
                        _CANCEL),
                    max_leaves=12)
_DRAINS = st.one_of(st.tuples(st.just("until"), st.integers(-3, 30)),
                    st.tuples(st.just("step")))
_PROGRAMS = st.lists(st.tuples(st.lists(_OPS, max_size=4), _DRAINS),
                     max_size=6)


@pytest.mark.parametrize("compact_min", [engine._COMPACT_MIN, 0])
@settings(max_examples=150, deadline=None)
@given(phases=_PROGRAMS)
def test_engine_matches_reference_model(compact_min, phases):
    """Random programs of schedule / timer / schedule_at / cancel —
    cancel twice, after fire and from inside a callback included —
    drained by any mix of ``run(until=)`` and ``step()``: the engine
    fires exactly what the reference fires, in its order, with the same
    clock and return values, and counts every fired event once.  ``compact_min=0`` compacts on nearly every
    cancel, mid-dispatch too."""
    with mock.patch.object(engine, "_COMPACT_MIN", compact_min):
        got = _interpret(Simulator(), phases)
    want = _interpret(_Reference(), phases)
    assert got == want
    fired, _, executed = got
    assert executed == len(fired)


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(seed=7).stream("x").random()
        b = RandomStreams(seed=7).stream("x").random()
        assert a == b

    def test_different_names_decorrelated(self):
        streams = RandomStreams(seed=7)
        assert streams.stream("x").random() != streams.stream("y").random()

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x").random()
        b = RandomStreams(seed=2).stream("x").random()
        assert a != b
