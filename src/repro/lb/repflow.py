"""RepFlow: replicate mice, race the copies, first finisher wins.

Xu & Li, "RepFlow: Minimizing Flow Completion Times with Replicated
Flows in Data Centers" (INFOCOM 2014).  Every short flow is sent
twice, as two independent transport flows routed over *different*
paths; the receiver takes whichever copy completes first and discards
the duplicate's payload.  Long flows are plain single-path ECMP — the
elephant's bandwidth cost would double for no tail benefit.

The transport half (opening the paired copies, first-finisher-wins FCT
accounting, duplicate-byte suppression) is
:class:`repro.host.app.RaceApp`, selected for mice by the ``"repflow"``
row of :data:`repro.experiments.schemes.TRANSPORTS` and identical at
both fidelities; this LB supplies the path half: a replica flow registered via :meth:`pair` is
pinned to a spanning-tree label a deterministic offset away from its
primary's, so the copies ride link-disjoint trees instead of hoping
two ECMP hashes diverge.
"""

from __future__ import annotations

from typing import Dict

from repro.lb.base import LoadBalancer
from repro.net.packet import Segment
from repro.units import KB

#: flows at or under this size are replicated (RepFlow's "short flow"
#: cutoff; matches the trace workloads' 100 KB mice limit)
REPFLOW_MICE_BYTES = 100 * KB


class RepFlowLb(LoadBalancer):
    name = "repflow"

    def __init__(self, host_id: int, rng=None):
        super().__init__(host_id, rng)
        self._choice: Dict[int, int] = {}
        #: replica flow id -> its primary's flow id
        self._replica_of: Dict[int, int] = {}

    def pair(self, primary_flow_id: int, replica_flow_id: int) -> None:
        """Declare ``replica_flow_id`` the duplicate of
        ``primary_flow_id``: it will be pinned to a disjoint tree."""
        self._replica_of[replica_flow_id] = primary_flow_id

    def _index_for(self, flow_id: int, n_labels: int) -> int:
        idx = self._choice.get(flow_id)
        if idx is not None:
            return idx
        primary = self._replica_of.get(flow_id)
        if primary is not None:
            # second spanning tree, half the schedule away from the
            # primary's pick: trees are link-disjoint across the trunk,
            # so a different label IS a disjoint path
            base = self._index_for(primary, n_labels)
            idx = base + max(1, n_labels // 2)
        else:
            idx = self.rng.randrange(n_labels)
        self._choice[flow_id] = idx
        return idx

    def select(self, seg: Segment) -> None:
        labels = self.labels_for(seg.dst_host)
        idx = self._index_for(seg.flow_id, len(labels))
        seg.dst_mac = labels[idx % len(labels)]
        seg.flowcell_id = 1
