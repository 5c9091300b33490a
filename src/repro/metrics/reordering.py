"""Reordering metrics for Fig 5.

Attach a :class:`ReorderTracker` to a host's ``segment_tap`` and it
records, per flow, the order in which GRO pushed segments up and their
sizes.  Afterwards, over every flow it saw:

* :meth:`out_of_order_counts` — the paper's Fig 5a metric: for each
  flowcell, the number of segments *from other flowcells* pushed
  between that flowcell's first and last segment (0 = no reordering
  exposed to TCP);
* :meth:`segment_sizes` — Fig 5b's pushed-segment size distribution;
* :attr:`pushed` and :attr:`behind` — how many segments were pushed,
  and how many of them landed behind the highest sequence already
  pushed for their flow (the disorder TCP sees, whatever the scheme).

The per-flow record stops at :data:`MAX_SAMPLES` pushes (``truncated``
says so); the two counters count every segment.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.packet import Segment

#: per-flow cap on the pushes recorded for the Fig 5a/5b read-outs
MAX_SAMPLES = 500_000


class ReorderTracker:
    def __init__(self):
        #: flow -> ordered list of (flowcell_id, payload_len)
        self._pushes: Dict[int, List[Tuple[int, int]]] = {}
        #: flow -> highest end sequence pushed so far
        self._hi: Dict[int, int] = {}
        self.truncated = False
        self.pushed = 0
        self.behind = 0

    def observe(self, seg: Segment) -> None:
        self.pushed += 1
        hi = self._hi.get(seg.flow_id)
        if hi is not None and seg.seq < hi:
            self.behind += 1
        if hi is None or seg.end_seq > hi:
            self._hi[seg.flow_id] = seg.end_seq
        pushes = self._pushes.setdefault(seg.flow_id, [])
        if len(pushes) >= MAX_SAMPLES:
            self.truncated = True
            return
        pushes.append((seg.flowcell_id, seg.payload_len))

    def segment_sizes(self) -> List[int]:
        return [size for pushes in self._pushes.values()
                for _, size in pushes]

    def out_of_order_counts(self) -> List[int]:
        """Per-flowcell interleaving counts (Fig 5a)."""
        counts: List[int] = []
        for pushes in self._pushes.values():
            counts.extend(self._counts_for(pushes))
        return counts

    @staticmethod
    def _counts_for(pushes: List[Tuple[int, int]]) -> List[int]:
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        for idx, (cell, _) in enumerate(pushes):
            if cell not in first:
                first[cell] = idx
            last[cell] = idx
        counts = []
        for cell, start in first.items():
            end = last[cell]
            if end == start:
                counts.append(0)
                continue
            interleaved = sum(
                1 for idx in range(start + 1, end) if pushes[idx][0] != cell
            )
            counts.append(interleaved)
        return counts
