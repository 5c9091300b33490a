"""The unified transfer interface every traffic application satisfies.

``add_elephant``/``add_mice``/``add_probe`` historically returned
objects with inconsistent shapes (``delivered_bytes()`` vs ``fcts_ns``
vs ``fct_ns``), forcing measurement code to branch on transport and
reach into ``host.receivers`` internals.  :class:`Transfer` is the
contract the collectors consume instead, and the base every traffic
object inherits the derived half of it from:

* ``flow_ids()`` — the wire flows this transfer occupies, in a stable
  order (an MPTCP connection returns its subflows);
* ``delivered_by_flow()`` — per-flow in-order bytes delivered at the
  receiver so far;
* ``delivered_bytes()`` — the sum, i.e. transfer goodput so far;
* ``fcts_ns`` — completion times recorded so far (empty for unbounded
  or unfinished transfers; one entry per completed request for mice).

Implemented by the wire transfers of each data plane —
:class:`~repro.host.app.BulkApp`,
:class:`~repro.mptcp.mptcp.MptcpConnection`,
:class:`~repro.host.app.RttProbeApp` at packet fidelity;
:class:`~repro.fluid.engine.FluidTransfer` and
:class:`~repro.fluid.testbed.FluidProbeApp` at flow fidelity — and by
the engine-agnostic layer above them, :class:`~repro.host.app.RaceApp`
and :class:`~repro.host.app.MiceApp`
(``tests/test_traffic_surface.py`` holds the whole matrix to it).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple


class Transfer:
    """What the measurement layer may assume about any transfer.  An
    implementation says which wire flows it occupies and what each has
    delivered (and sets ``fct_ns`` if it can complete); the rest
    follows."""

    def flow_ids(self) -> Tuple[int, ...]:
        """Wire flow ids in use, in a stable order."""
        raise NotImplementedError

    def delivered_by_flow(self) -> Dict[int, int]:
        """In-order bytes delivered at the receiver, per flow."""
        raise NotImplementedError

    def delivered_bytes(self) -> int:
        """Total in-order bytes delivered across all flows."""
        return sum(self.delivered_by_flow().values())

    @property
    def fcts_ns(self) -> Sequence[int]:
        """Completion times recorded so far (ns): ``fct_ns`` once set;
        nothing for open-ended traffic (probes), which has none."""
        fct = getattr(self, "fct_ns", None)
        return (fct,) if fct is not None else ()


def delivered_for(host, flow_id: int) -> int:
    """Receiver-side delivered byte count for one flow (0 before any
    data arrives) — the single place measurement code touches
    ``host.receivers``."""
    receiver = host.receivers.get(flow_id)
    return receiver.delivered_bytes if receiver is not None else 0
