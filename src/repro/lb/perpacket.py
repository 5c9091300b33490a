"""Per-packet spraying (RPS / DRB style).

Every MTU packet takes the next path round-robin.  The paper argues
this cannot work at 10+ Gbps on hosts because it defeats TSO/GRO; the
policy always answers SPRAY, so the vSwitch's round-robin step runs per
derived packet from the NIC's hook and the ablation can be measured
(massive reordering + small segment flooding at the receiver).
"""

from __future__ import annotations

from repro.lb.base import SPRAY, Policy


class PerPacket(Policy):
    sprays = True

    def __call__(self, st, n, nbytes, end_seq, now, rng):
        return SPRAY
