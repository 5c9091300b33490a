"""Declarative fault schedules.

A :class:`FaultSchedule` is a seedable, serializable list of fault
events — link deaths, recoveries, flaps, rate degradations and whole
switch outages — expressed against component *names* so a schedule can
ride inside a :class:`~repro.runner.jobspec.JobSpec` (content-hashed,
pickled to worker processes) without dragging a live topology along.
:meth:`FaultSchedule.arm` compiles the schedule onto a running
simulator's event heap against a live :class:`~repro.net.topology.Topology`;
from there the ports, failover groups and the modeled control plane
(:mod:`repro.faults.controlplane`) react through the ordinary
``Link.on_state_change`` machinery, exactly as they would for a fault
nobody scripted.

Event times are absolute simulation nanoseconds.  Composite events
(``LinkFlap``, ``SwitchDown``) expand to primitive link actions at arm
time, so everything the simulator sees is a plain ``set_down`` /
``set_up`` / ``set_rate`` call.  An armed schedule records each action
it applied in :attr:`ArmedFaults.applied`; :func:`random_schedule`
draws from every kind in :data:`RANDOM_FAULT_KINDS`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union


class _Action(NamedTuple):
    """One primitive, timed mutation of a named component."""

    at_ns: int
    kind: str  # link_down | link_up | link_degrade | link_restore_rate
    #           | switch_down | switch_up
    target: str
    arg: Optional[float] = None


def _require_time(at_ns: int) -> None:
    if at_ns < 0:
        raise ValueError(f"event time must be >= 0, got {at_ns}")


@dataclass(frozen=True)
class LinkDown:
    """Fail ``link`` (both directions) at ``at_ns``."""

    at_ns: int
    link: str

    def actions(self) -> List[_Action]:
        _require_time(self.at_ns)
        return [_Action(self.at_ns, "link_down", self.link)]


@dataclass(frozen=True)
class LinkUp:
    """Restore ``link`` at ``at_ns``."""

    at_ns: int
    link: str

    def actions(self) -> List[_Action]:
        _require_time(self.at_ns)
        return [_Action(self.at_ns, "link_up", self.link)]


@dataclass(frozen=True)
class LinkFlap:
    """``count`` down/up cycles starting at ``at_ns``.

    Each cycle is ``period_ns`` long with the link down for the first
    half — the classic bouncing-optics pattern that stresses both the
    failover groups' re-arm path and the control plane's coalescing.
    """

    at_ns: int
    link: str
    period_ns: int
    count: int = 1

    def actions(self) -> List[_Action]:
        _require_time(self.at_ns)
        if self.period_ns < 2:
            raise ValueError(f"flap period must be >= 2 ns, got {self.period_ns}")
        if self.count < 1:
            raise ValueError(f"flap count must be >= 1, got {self.count}")
        out: List[_Action] = []
        for cycle in range(self.count):
            start = self.at_ns + cycle * self.period_ns
            out.append(_Action(start, "link_down", self.link))
            out.append(_Action(start + self.period_ns // 2, "link_up", self.link))
        return out


@dataclass(frozen=True)
class LinkDegrade:
    """Run ``link`` at ``rate_factor`` x its pre-fault rate.

    Models degraded optics / FEC fallback rather than outright death;
    the control plane reweights WCMP schedules around the slow leg.
    ``duration_ns=None`` leaves the link degraded for good (such a
    schedule is not self-restoring; see :meth:`FaultSchedule.restores_network`).
    """

    at_ns: int
    link: str
    rate_factor: float
    duration_ns: Optional[int] = None

    def actions(self) -> List[_Action]:
        _require_time(self.at_ns)
        if not 0 < self.rate_factor <= 1:
            raise ValueError(
                f"rate_factor must be in (0, 1], got {self.rate_factor}")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ValueError(
                f"duration_ns must be positive, got {self.duration_ns}")
        out = [_Action(self.at_ns, "link_degrade", self.link, self.rate_factor)]
        if self.duration_ns is not None:
            out.append(_Action(
                self.at_ns + self.duration_ns, "link_restore_rate", self.link))
        return out


@dataclass(frozen=True)
class SwitchDown:
    """Kill every link attached to ``switch`` at ``at_ns``.

    The expansion to concrete links happens at arm time, so the same
    schedule works on any topology that has a switch by that name.
    """

    at_ns: int
    switch: str

    def actions(self) -> List[_Action]:
        _require_time(self.at_ns)
        return [_Action(self.at_ns, "switch_down", self.switch)]


@dataclass(frozen=True)
class SwitchUp:
    """Restore every link attached to ``switch`` at ``at_ns``."""

    at_ns: int
    switch: str

    def actions(self) -> List[_Action]:
        _require_time(self.at_ns)
        return [_Action(self.at_ns, "switch_up", self.switch)]


FaultEvent = Union[LinkDown, LinkUp, LinkFlap, LinkDegrade, SwitchDown, SwitchUp]


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable set of fault events.

    Being a frozen dataclass of frozen dataclasses, a schedule
    serializes through :mod:`repro.runner.serialize` and content-hashes
    stably — the soak harness relies on both.
    """

    events: Tuple[FaultEvent, ...] = ()

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultSchedule":
        return cls(tuple(events))

    def actions(self) -> List[_Action]:
        """All primitive actions, time-sorted (stable for ties)."""
        out: List[_Action] = []
        for event in self.events:
            out.extend(event.actions())
        out.sort(key=lambda a: a.at_ns)
        return out

    @property
    def end_ns(self) -> int:
        """Time of the last scripted action (0 for an empty schedule)."""
        actions = self.actions()
        return actions[-1].at_ns if actions else 0

    def link_names(self) -> Tuple[str, ...]:
        return tuple(sorted({a.target for a in self.actions()
                             if a.kind.startswith("link_")}))

    def switch_names(self) -> Tuple[str, ...]:
        return tuple(sorted({a.target for a in self.actions()
                             if a.kind.startswith("switch_")}))

    def restores_network(
        self, switch_links: Optional[Mapping[str, Sequence[str]]] = None
    ) -> bool:
        """True when replaying the schedule leaves every touched
        component up at its original rate.

        ``switch_links`` (switch name -> link names) lets the replay
        expand switch events; without it, switch and link events are
        tracked independently, which is exact as long as the schedule
        does not target a switch *and* one of its links.
        """
        up: Dict[str, bool] = {}
        degraded: Dict[str, bool] = {}
        for action in self.actions():
            if action.kind in ("switch_down", "switch_up"):
                targets = (list(switch_links[action.target])
                           if switch_links is not None else [action.target])
                for t in targets:
                    up[t] = action.kind == "switch_up"
            elif action.kind in ("link_down", "link_up"):
                up[action.target] = action.kind == "link_up"
            elif action.kind == "link_degrade":
                degraded[action.target] = True
            elif action.kind == "link_restore_rate":
                degraded[action.target] = False
        return all(up.values()) and not any(degraded.values())

    def arm(self, sim, topo) -> "ArmedFaults":
        """Compile onto ``sim``'s event heap against live ``topo``."""
        return ArmedFaults(self, sim, topo)


class ArmedFaults:
    """A schedule bound to a live simulator + topology.

    Keeps the applied-action log (for reports and the soak harness's
    consistency checks) and the pre-degrade rates needed to restore
    links exactly.
    """

    def __init__(self, schedule: FaultSchedule, sim, topo):
        self.schedule = schedule
        self.sim = sim
        self.topo = topo
        #: (at_ns, description) per applied primitive action
        self.applied: List[Tuple[int, str]] = []
        self._links = {link.name: link for link in topo.links}
        self._orig_rates: Dict[str, float] = {}
        for name in schedule.link_names():
            if name not in self._links:
                raise ValueError(f"schedule targets unknown link {name!r}")
        for name in schedule.switch_names():
            if name not in topo.switches:
                raise ValueError(f"schedule targets unknown switch {name!r}")
        for action in schedule.actions():
            if action.at_ns < sim.now:
                raise ValueError(
                    f"cannot arm: action at t={action.at_ns} is in the past "
                    f"(now={sim.now})")
            sim.schedule(action.at_ns - sim.now, self._apply, action)

    def _switch_link_set(self, name: str) -> List:
        seen: Dict[str, object] = {}
        for port in self.topo.switches[name].ports:
            seen.setdefault(port.link.name, port.link)
        return list(seen.values())

    def _apply(self, action: _Action) -> None:
        kind = action.kind
        if kind == "link_down":
            self._links[action.target].set_down()
        elif kind == "link_up":
            self._links[action.target].set_up()
        elif kind == "link_degrade":
            link = self._links[action.target]
            orig = self._orig_rates.setdefault(action.target, link.rate_bps)
            link.set_rate(orig * action.arg)
        elif kind == "link_restore_rate":
            orig = self._orig_rates.pop(action.target, None)
            if orig is not None:
                self._links[action.target].set_rate(orig)
        elif kind == "switch_down":
            for link in self._switch_link_set(action.target):
                link.set_down()
        elif kind == "switch_up":
            for link in self._switch_link_set(action.target):
                link.set_up()
        else:  # pragma: no cover - _Action kinds are produced above
            raise AssertionError(f"unknown action kind {kind!r}")
        desc = f"{kind} {action.target}"
        if action.arg is not None:
            desc += f" x{action.arg:g}"
        self.applied.append((self.sim.now, desc))


#: composite fault kinds :func:`random_schedule` draws from
RANDOM_FAULT_KINDS = ("down", "flap", "degrade", "switch")


def random_schedule(
    rng: random.Random,
    links: Sequence[str],
    *,
    window_ns: int,
    switches: Optional[Mapping[str, Sequence[str]]] = None,
    max_faults: int = 2,
) -> FaultSchedule:
    """Draw a self-restoring random schedule inside ``[0, window_ns)``.

    ``links`` are candidate link names; ``switches`` maps candidate
    switch names to their link names (needed both to pick switch faults
    and to keep a switch fault from overlapping a link fault on one of
    its own links).  Every fault injected is paired with its recovery
    well before ``window_ns`` so soak runs can demand full convergence.
    """
    if window_ns < 100:
        raise ValueError(f"window_ns too small to fit faults: {window_ns}")
    kinds = [k for k in RANDOM_FAULT_KINDS if k != "switch" or switches]
    free_links = list(links)
    free_switches = sorted(switches) if switches else []
    events: List[FaultEvent] = []
    latest = int(window_ns * 0.9)
    for _ in range(rng.randint(1, max_faults)):
        kind = rng.choice(kinds)
        start = rng.randrange(window_ns // 20, window_ns // 2)
        budget = latest - start
        if kind == "switch":
            if not free_switches:
                continue
            name = free_switches.pop(rng.randrange(len(free_switches)))
            # its links can no longer host an independent fault
            for link_name in switches[name]:
                if link_name in free_links:
                    free_links.remove(link_name)
            outage = rng.randrange(max(1, budget // 4), max(2, budget // 2))
            events.append(SwitchDown(start, name))
            events.append(SwitchUp(start + outage, name))
            continue
        if not free_links:
            continue
        name = free_links.pop(rng.randrange(len(free_links)))
        if kind == "down":
            outage = rng.randrange(max(1, budget // 4), max(2, budget // 2))
            events.append(LinkDown(start, name))
            events.append(LinkUp(start + outage, name))
        elif kind == "flap":
            count = rng.randint(1, 3)
            period = rng.randrange(max(2, budget // (count * 3)),
                                   max(4, budget // count))
            events.append(LinkFlap(start, name, period, count))
        else:  # degrade
            factor = rng.choice((0.25, 0.5))
            duration = rng.randrange(max(1, budget // 4), max(2, budget // 2))
            events.append(LinkDegrade(start, name, factor, duration))
    if not events:  # every draw collided; fall back to one clean outage
        name = rng.choice(list(links))
        start = window_ns // 4
        events = [LinkDown(start, name), LinkUp(start + window_ns // 4, name)]
    schedule = FaultSchedule(tuple(events))
    assert schedule.restores_network(switches), \
        "random_schedule drew a non-restoring schedule"
    return schedule
