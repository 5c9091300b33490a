"""Flowlet switching (Sinha et al.; as deployed by CONGA/Juniper VCF).

A new flowlet starts when the gap between consecutive segments of a
flow exceeds an inactivity timer; each flowlet is placed on the next
path round-robin.  The paper evaluates 100 us and 500 us timers
(Fig 1, Fig 13): small timers cause reordering, large timers create
huge head flowlets that collide like whole flows.  Like the paper's
OVS implementation, gaps are observed at segment granularity (that is
what the vSwitch sees).
"""

from __future__ import annotations

from repro.lb.base import Policy, first_touch
from repro.units import usec


class Flowlet(Policy):
    def __init__(self, gap_ns: int = usec(500)):
        if gap_ns <= 0:
            raise ValueError(f"inactivity gap must be positive: {gap_ns}")
        self.gap_ns = gap_ns

    def __call__(self, st, n, nbytes, end_seq, now, rng):
        if st.idx < 0:
            first_touch(st, rng, n)
        if st.last_ns >= 0 and now - st.last_ns > self.gap_ns:
            st.idx = (st.idx + 1) % n
            st.cell += 1
        st.last_ns = now
        return st.idx % n, st.cell
