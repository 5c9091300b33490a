"""Per-flow ECMP, the paper's primary baseline.

The paper implements ECMP "by enumerating all possible end-to-end paths
and randomly selecting a path for each flow"; here each flow draws one
label from the destination's schedule via a deterministic seeded hash,
so collisions happen with exactly the birthday statistics that make
ECMP hurt elephants.
"""

from __future__ import annotations

from repro.lb.base import Policy, first_touch


class Ecmp(Policy):
    def __call__(self, st, n, nbytes, end_seq, now, rng):
        if st.idx < 0:
            first_touch(st, rng, n)
        return st.idx % n, 1
