"""DiffFlow: size-differentiated routing at the vSwitch.

Carpio, Engelmann & Jukan, "DiffFlow: Differentiating Short and Long
Flows for Load Balancing in Data Center Networks" (GLOBECOM 2016).
Short flows (the overwhelming majority by count) are sprayed per
packet — they finish within an RTT or two, so reordering cannot hurt
them — while long flows are pinned to one ECMP path so their packet
trains stay in order for TSO/GRO.

The edge cannot know a flow's total size when its first segment
arrives, so classification is *cumulative and monotonic*: every flow
starts as a mouse and is promoted to elephant the moment its sent
bytes **exceed** ``threshold``; the promotion latches for the flow's
lifetime (a flow is classified once, never reclassified back).  A flow
of exactly ``threshold`` bytes therefore lives and dies a mouse.
"""

from __future__ import annotations

from typing import Optional

from repro.lb.base import SPRAY, Policy, past
from repro.units import KB

#: mice/elephant cutoff on cumulative sent bytes (matches the trace
#: workloads' 100 KB mice limit)
DIFFFLOW_THRESHOLD = 100 * KB


class DiffFlow(Policy):
    sprays = True

    def __init__(self, threshold: Optional[int] = None):
        self.threshold = DIFFFLOW_THRESHOLD if threshold is None else threshold
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")

    def __call__(self, st, n, nbytes, end_seq, now, rng):
        if st.pin < 0:
            if not past(st, end_seq, self.threshold):
                return SPRAY  # mice: the real decision is per packet
            st.pin = rng.randrange(1 << 16)  # promoted: latch an ECMP path
        return st.pin % n, 1
