"""The host vSwitch and the policy seam every scheme plugs into.

One decision is made at the soft edge — *which label does this unit of
bytes get* — and the schemes differ only in how they answer it.  The
:class:`VSwitch` owns everything they share (schedules, the RNG stream,
one :class:`FlowState` per flow, pairing, spraying, telemetry); a
scheme is a :class:`Policy`: a few lines over that state record that
take values and return a label index.  Nothing here reads or writes a
packet, so the packet engine (``Host.send_segment``) and the flow
engine (``FluidEngine._slice_flow``) call the same object the same way.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.addresses import host_mac

#: label index meaning "no label": the real MAC, the fabric picks per hop
DIRECT = -1
#: the one directive a policy may answer instead of ``(index, cell)``:
#: round-robin the units *below* this segment (its wire packets)
SPRAY = (-2, 0)


class FlowState:
    """What the edge remembers about one flow — the only per-flow state
    any scheme keeps."""

    __slots__ = ("sent", "cell", "cell_bytes", "idx", "last_ns", "pin",
                 "primary")

    def __init__(self):
        self.sent = 0         # high-water mark of sent bytes (end_seq)
        self.cell = 1         # flowcell / flowlet / sprayed-unit id
        self.cell_bytes = 0   # Algorithm 1's byte counter
        self.idx = -1         # label cursor; -1 until first touched
        self.last_ns = -1     # when the previous segment was labelled
        self.pin = -1         # a latched choice; a pinned flow is never sprayed
        self.primary: Optional[FlowState] = None  # the flow this one replicates


def first_touch(st: FlowState, rng: random.Random, span: int) -> int:
    """Draw the flow's starting cursor (decorrelates flows and senders).
    Callers guard with ``st.idx < 0``: it happens once, the first time
    a decision needs it, and costs no call afterwards."""
    st.idx = rng.randrange(span)
    return st.idx


def past(st: FlowState, end_seq: int, threshold: int) -> bool:
    """Cumulative byte-threshold detection: advance the flow's
    high-water mark and say whether it now *exceeds* ``threshold`` —
    strictly, so a flow of exactly ``threshold`` bytes never trips it,
    and retransmissions below the mark do not move it."""
    if end_seq > st.sent:
        st.sent = end_seq
    return st.sent > threshold


class Policy:
    """A scheme's decision.  Called with the flow's state record and
    plain values — ``n`` labels to pick from, the segment's ``nbytes``
    and ``end_seq``, the time ``now`` and the vSwitch's ``rng`` — it
    returns ``(label index, flowcell id)``, :data:`DIRECT` as the index,
    or :data:`SPRAY`.  One instance per host, so a policy may keep
    host-wide state of its own.

    This base is single-path: always the first label.
    """

    #: may answer SPRAY (arms the NIC's per-packet hook)
    sprays = False
    #: decisions are flowcell assignments worth a telemetry event
    traced = False
    #: optional ``view(labels) -> labels``: what of an installed schedule
    #: the policy indexes, computed once per install, not per segment
    #: (None: the schedule as pushed)
    view: Optional[Callable[[Sequence[int]], Sequence[int]]] = None

    def __call__(self, st: FlowState, n: int, nbytes: int, end_seq: int,
                 now: int, rng: random.Random) -> Tuple[int, int]:
        return 0, 1


class VSwitch:
    """Per-host path selection at the soft edge.

    The controller pushes a *schedule* per destination: an ordered,
    immutable tuple of forwarding labels (shadow MACs), possibly with
    duplicates to realize WCMP-style weights (paper S3.3).  The vSwitch
    only holds what it is handed: the controller installs its edge
    switch's whole table in one :meth:`set_schedules` call, so the hosts
    below one edge hold the same table, and a destination missing from
    it is reached by its real MAC.  :meth:`label` turns one outgoing
    unit into ``(dst_mac, flowcell_id)``, which TSO then replicates onto
    the wire packets.
    """

    #: optional telemetry probe (repro.telemetry); None = disabled
    probe = None

    def __init__(self, host_id: int, policy: Optional[Policy] = None,
                 rng: Optional[random.Random] = None):
        self.host_id = host_id
        self.policy = policy if policy is not None else Policy()
        self.rng = rng if rng is not None else random.Random(host_id)
        #: called (no arguments) after every schedule install
        self.on_schedule_change: List[Callable[[], None]] = []
        #: the table last installed, held as given
        self._schedules: Mapping[int, Tuple[int, ...]] = {}
        #: what the policy indexes: the schedules, or its view of them
        self._views = {} if self.policy.view else self._schedules
        self._flows: Dict[int, FlowState] = {}

    def set_schedule(self, dst_host: int, labels: Sequence[int]) -> None:
        """Install a new table that replaces the schedule toward
        ``dst_host``; the table it replaces is left as it was."""
        self.set_schedules({**self._schedules, dst_host: tuple(labels)})

    def set_schedules(self, table: Mapping[int, Tuple[int, ...]]) -> None:
        """Install ``table`` (destination host -> non-empty label tuple)
        as every schedule this host holds, kept as given: its writer
        never edits a table it has handed out.  Observers hear one
        change."""
        if not all(table.values()):
            raise ValueError("schedule must contain at least one label")
        view = self.policy.view
        self._schedules = table
        self._views = ({dst_host: view(labels)
                        for dst_host, labels in table.items()}
                       if view else table)
        for observer in self.on_schedule_change:
            observer()

    def labels_for(self, dst_host: int) -> Tuple[int, ...]:
        """Schedule for a destination; defaults to its real MAC (direct)."""
        return self._schedules.get(dst_host) or (host_mac(dst_host),)

    def flow(self, flow_id: int) -> FlowState:
        """The flow's state record, created untouched on first use."""
        st = self._flows.get(flow_id)
        if st is None:
            st = self._flows[flow_id] = FlowState()
        return st

    def pair(self, primary_flow_id: int, replica_flow_id: int) -> None:
        """Declare ``replica_flow_id`` a duplicate of ``primary_flow_id``
        (a raced copy): policies that care keep the two apart."""
        self.flow(replica_flow_id).primary = self.flow(primary_flow_id)

    def _view(self, dst_host: int) -> Sequence[int]:
        """Nothing pushed toward ``dst_host``: its real MAC, or the
        policy's view of it (not stored)."""
        labels = (host_mac(dst_host),)
        return self.policy.view(labels) if self.policy.view else labels

    def label(self, flow_id: int, dst_host: int, nbytes: int, end_seq: int,
              now: int) -> Tuple[int, int]:
        """The decision: ``(dst_mac, flowcell_id)`` for ``nbytes`` of
        ``flow_id`` ending at ``end_seq``, sent ``now``.  Flowcell id 0
        says the policy answered SPRAY: the label is a placeholder and
        each unit below takes a :meth:`spray` step (a caller with no
        packets below its unit — a fluid cell, a probe — takes one)."""
        st = self._flows.get(flow_id) or self.flow(flow_id)
        labels = self._views.get(dst_host) or self._view(dst_host)
        idx, cell = self.policy(st, len(labels), nbytes, end_seq, now,
                                self.rng)
        if idx >= 0:
            mac = labels[idx]
        elif idx == DIRECT:
            mac = host_mac(dst_host)
        else:
            return labels[0], 0
        if self.probe is not None and self.policy.traced:
            self.probe.on_flowcell(flow_id, idx, cell)
        return mac, cell

    def spray(self, flow_id: int, dst_host: int) -> Optional[Tuple[int, int]]:
        """One round-robin step for one sprayed unit (the NIC calls this
        per wire packet): the next label and a fresh cell id, or None
        for a pinned flow, whose units keep their segment's label."""
        st = self._flows.get(flow_id) or self.flow(flow_id)
        if st.pin >= 0:
            return None
        labels = self._views.get(dst_host) or self._view(dst_host)
        n = len(labels)
        if st.idx < 0:
            first_touch(st, self.rng, n)
        st.idx = (st.idx + 1) % n
        st.cell += 1
        return labels[st.idx], st.cell
