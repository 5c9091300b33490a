"""Flowcell creation — the paper's Algorithm 1, verbatim — and the
Presto policy that is nothing more.

Per flow, the vSwitch keeps a byte counter, the current label index and
the flowcell ID.  When the counter would exceed the 64 KB threshold the
flow rotates to the next label (round-robin over the controller-pushed
schedule) and increments the flowcell ID.  Retransmitted TCP segments
run through the same code, as the paper notes.

The vSwitch stamps the chosen shadow MAC and the flowcell ID on the
outgoing segment, which TSO then replicates onto every MTU packet.  The
receive-side rewrite (shadow MAC back to real MAC) is a constant-time
cost accounted in :class:`repro.host.cpu.CpuCosts`.
"""

from __future__ import annotations

from repro.lb.base import FlowState, Policy, first_touch
from repro.units import MAX_TSO_BYTES

#: Flowcell granularity = maximum TSO segment (paper S2.1).
FLOWCELL_BYTES = MAX_TSO_BYTES


def flowcell(st: FlowState, nbytes: int, n: int, threshold: int, rng) -> int:
    """Algorithm 1: account ``nbytes`` for the flow; returns the label
    index for this segment (``st.cell`` is its flowcell ID).  Each flow
    starts at a random label, which decorrelates senders."""
    if st.idx < 0:
        st.idx = first_touch(st, rng, 1 << 16) % n
    if st.cell_bytes + nbytes > threshold:
        st.cell_bytes = nbytes
        st.idx = (st.idx + 1) % n
        st.cell += 1
    else:
        st.cell_bytes += nbytes
    return st.idx % n


class Presto(Policy):
    traced = True

    def __init__(self, threshold: int = FLOWCELL_BYTES, mode: str = "rr"):
        """``mode``: "rr" (the paper's round robin) or "random" — the
        ablation showing why deterministic iteration beats randomized
        flowcell placement (S2.1 "assigned over multiple paths very
        evenly by iterating over paths in a round-robin, rather than
        randomized, fashion")."""
        if threshold <= 0:
            raise ValueError(f"threshold must be positive: {threshold}")
        if mode not in ("rr", "random"):
            raise ValueError(f"unknown mode {mode!r}")
        self.threshold = threshold
        self.mode = mode

    def __call__(self, st, n, nbytes, end_seq, now, rng):
        cell = st.cell
        idx = flowcell(st, nbytes, n, self.threshold, rng)
        if self.mode == "random":
            # one draw per flowcell, kept where only this flow's current
            # cell can find it (cell ids are monotone: no old cell returns)
            if st.pin < 0 or st.cell != cell:
                st.pin = rng.randrange(n)
            idx = st.pin % n
        return idx, st.cell
