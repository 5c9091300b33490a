"""RDNA-style elephant isolation: detected elephants get their own
source-routed paths, mice share the rest.

Following the residual-capacity / elephant-detection designs in the
RDNA lineage (e.g. Liberato et al., "RDNA: Residue-Defined Networking
Architecture Enabling Ultra-Reliable Low-Latency Datacenters", and the
Hedera/Mahout edge-detection tradition): the edge watches per-flow
byte counts, and the moment a flow crosses the elephant threshold it
is moved off the shared multipath fabric onto a *dedicated* label — a
shadow-MAC spanning tree reserved for elephants, which in this fabric
is exactly a source route (the label fully determines the path).  Mice
keep Presto-style flowcell spraying, but only over the shared subset
of trees, so an elephant's standing queue never sits in front of a
mouse.

The label partition is positional over the schedule's distinct labels:
the first ``ceil(n/2)`` trees are shared (mice), the rest are the
elephant reservation.  With one usable tree everything shares it —
isolation is best-effort under degraded fabrics.
"""

from __future__ import annotations

from typing import Optional

from repro.lb.base import Policy, past
from repro.presto.flowcell import FLOWCELL_BYTES, flowcell
from repro.units import MB

#: cumulative-byte threshold past which a flow is a detected elephant
#: (matches the trace workloads' 1 MB elephant limit)
ELEPHANT_THRESHOLD = 1 * MB


def _n_shared(n: int) -> int:
    """The positional split, stated once: of ``n`` distinct labels the
    mice share the first ``ceil(n/2)`` and the elephants get the rest;
    a lone label is everybody's."""
    return (n + 1) // 2 if n > 1 else n


class ElephantIso(Policy):
    def __init__(self, threshold: Optional[int] = None,
                 flowcell_bytes: int = FLOWCELL_BYTES):
        self.threshold = ELEPHANT_THRESHOLD if threshold is None else threshold
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        self.flowcell_bytes = flowcell_bytes
        #: round-robin cursor over the dedicated labels, host-wide
        self._next_slot = 0

    def view(self, labels):
        """The distinct labels in schedule order (duplicates — WCMP
        weights — collapsed, so the split is over trees): shared then
        dedicated, the split point :func:`_n_shared` of the count."""
        return list(dict.fromkeys(labels))

    def __call__(self, st, n, nbytes, end_seq, now, rng):
        if st.pin < 0 and past(st, end_seq, self.threshold):
            # assign dedicated paths round-robin so concurrent
            # elephants land on different reserved trees
            st.pin = self._next_slot
            self._next_slot += 1
        # Algorithm-1 cell tagging either way: flowcell IDs must stay
        # monotone per flow across the mouse->elephant transition
        if st.pin >= 0:
            dedicated = n - _n_shared(n) or n
            flowcell(st, nbytes, dedicated, self.flowcell_bytes, rng)
            return n - dedicated + st.pin % dedicated, st.cell
        idx = flowcell(st, nbytes, _n_shared(n), self.flowcell_bytes, rng)
        return idx, st.cell
