"""Modeled Presto control plane: subscribe, detect, react — in-sim.

A controller that is only ever told to ``push_all()`` by hand reacts
outside simulated time.  This module gives it the reaction loop the
paper describes (S3.3): it *subscribes* to every
link's ``on_state_change``, learns of a change ``detection_delay_ns``
later (LOS propagation, OpenFlow port-status, topology daemon), spends
``reaction_delay_ns`` recomputing weighted schedules, and only then
pushes updates to the vSwitches — all as ordinary simulator events, so
hardware fast failover visibly carries the traffic in the gap and the
failover->weighted transition happens *during* the run.

Reactions are coalesced: state changes whose reaction would land at the
same instant (e.g. the N link deaths of one ``SwitchDown``) trigger a
single recompute+push, like a real controller batching a burst of
port-status messages.

Recovery needs no special casing — ``push_all`` recomputes schedules
from the live topology, so a restored link simply yields the original
unweighted schedules again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.units import msec

#: defaults mirroring the paper's observation that end-to-end controller
#: reaction is "tens of milliseconds" while failover is microseconds
DEFAULT_DETECTION_DELAY_NS = msec(10)
DEFAULT_REACTION_DELAY_NS = msec(5)


@dataclass(frozen=True)
class LinkChange:
    """One observed link state/rate transition."""

    at_ns: int
    link: str
    up: bool
    rate_bps: float


@dataclass(frozen=True)
class Reaction:
    """One schedule recompute+push, with the changes that triggered it."""

    at_ns: int
    changes: Tuple[LinkChange, ...]


class ControlPlane:
    """Delayed, coalescing bridge from link events to ``push_all``.

    Purely reactive: it never mutates the topology and draws no
    randomness, so attaching it perturbs nothing until a link actually
    changes state.
    """

    def __init__(
        self,
        sim,
        controller,
        links,
        detection_delay_ns: int = DEFAULT_DETECTION_DELAY_NS,
        reaction_delay_ns: int = DEFAULT_REACTION_DELAY_NS,
        tracer=None,
    ):
        if detection_delay_ns < 0 or reaction_delay_ns < 0:
            raise ValueError("control plane delays must be >= 0")
        self.sim = sim
        self.controller = controller
        self.detection_delay_ns = int(detection_delay_ns)
        self.reaction_delay_ns = int(reaction_delay_ns)
        self.tracer = tracer
        #: every link change seen, in observation order
        self.observed: List[LinkChange] = []
        #: every recompute+push performed, in time order
        self.reactions: List[Reaction] = []
        self._pending: dict = {}  # reaction time -> [LinkChange, ...]
        for link in links:
            link.on_state_change.append(self._on_state_change)

    @property
    def total_delay_ns(self) -> int:
        return self.detection_delay_ns + self.reaction_delay_ns

    def _on_state_change(self, link) -> None:
        change = LinkChange(self.sim.now, link.name, link.up, link.rate_bps)
        self.observed.append(change)
        react_at = self.sim.now + self.total_delay_ns
        batch = self._pending.get(react_at)
        if batch is None:
            self._pending[react_at] = batch = []
            self.sim.schedule(self.total_delay_ns, self._react, react_at)
        batch.append(change)

    def _react(self, react_at: int) -> None:
        batch = self._pending.pop(react_at, [])
        self.controller.push_all()
        self.reactions.append(Reaction(self.sim.now, tuple(batch)))
        if self.tracer is not None:
            self.tracer.instant(
                "fault", "controller_reaction", "controller",
                {"changes": len(batch),
                 "links": sorted({c.link for c in batch})},
            )

    def last_reaction_ns(self) -> Optional[int]:
        return self.reactions[-1].at_ns if self.reactions else None

    def settled(self) -> bool:
        """True once every observed change has been reacted to."""
        return not self._pending
