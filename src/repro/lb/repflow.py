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
both fidelities; this policy supplies the path half: a replica flow
registered via :meth:`VSwitch.pair <repro.lb.base.VSwitch.pair>` is
pinned to a spanning-tree label a deterministic offset away from its
primary's, so the copies ride link-disjoint trees instead of hoping
two ECMP hashes diverge.
"""

from __future__ import annotations

from repro.lb.base import Policy
from repro.units import KB

#: flows at or under this size are replicated (RepFlow's "short flow"
#: cutoff; matches the trace workloads' 100 KB mice limit)
REPFLOW_MICE_BYTES = 100 * KB


class RepFlow(Policy):
    def __call__(self, st, n, nbytes, end_seq, now, rng):
        return self._index(st, n, rng) % n, 1

    def _index(self, st, n, rng) -> int:
        if st.idx < 0:
            if st.primary is not None:
                # second spanning tree, half the schedule away from the
                # primary's pick: trees are link-disjoint across the
                # trunk, so a different label IS a disjoint path
                st.idx = self._index(st.primary, n, rng) + max(1, n // 2)
            else:
                st.idx = rng.randrange(n)
        return st.idx
