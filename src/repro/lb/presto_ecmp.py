"""Presto + per-hop ECMP (Fig 14's comparison point).

Flowcells are created exactly as in Presto, but instead of pinning each
flowcell to an end-to-end spanning tree via a shadow MAC, packets keep
the real destination MAC and the *switches* hash on (flow, flowcell) —
per-hop multipathing.  Requires the topology's leaf ECMP groups to be
installed with ``HASH_FLOWCELL`` mode.
"""

from __future__ import annotations

from repro.lb.base import DIRECT
from repro.presto.flowcell import Presto, flowcell


class PrestoEcmp(Presto):
    def __call__(self, st, n, nbytes, end_seq, now, rng):
        # One "label" slot per available path so Algorithm 1's round
        # robin advances the flowcell ID at the same cadence as Presto.
        flowcell(st, nbytes, n, self.threshold, rng)
        return DIRECT, st.cell
