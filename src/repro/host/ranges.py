"""Disjoint byte-range set, used for SACK scoreboards and receiver
reassembly.  Ranges are half-open ``[start, end)`` and kept sorted and
coalesced; operations are O(n) in the number of disjoint ranges, which
stays tiny (a handful of holes) in practice.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Tuple


class RangeSet:
    """Sorted set of disjoint half-open integer ranges."""

    def __init__(self, ranges: Iterable[Tuple[int, int]] = ()):
        self._ranges: List[Tuple[int, int]] = []
        for start, end in ranges:
            self.add(start, end)

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self):
        return iter(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RangeSet({self._ranges})"

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging overlaps and adjacency."""
        if end <= start:
            return
        ranges = self._ranges
        starts = [r[0] for r in ranges]
        i = bisect_left(starts, start)
        # merge with predecessor if it touches
        if i > 0 and ranges[i - 1][1] >= start:
            i -= 1
            start = min(start, ranges[i][0])
            end = max(end, ranges[i][1])
            del ranges[i]
        # swallow successors
        while i < len(ranges) and ranges[i][0] <= end:
            end = max(end, ranges[i][1])
            del ranges[i]
        ranges.insert(i, (start, end))

    def prune_below(self, cutoff: int) -> None:
        """Drop all bytes below ``cutoff``."""
        ranges = self._ranges
        while ranges and ranges[0][1] <= cutoff:
            del ranges[0]
        if ranges and ranges[0][0] < cutoff:
            ranges[0] = (cutoff, ranges[0][1])

    def total_bytes(self) -> int:
        return sum(end - start for start, end in self._ranges)

    def contains(self, start: int, end: int) -> bool:
        """True when ``[start, end)`` is fully covered."""
        for s, e in self._ranges:
            if s <= start and end <= e:
                return True
            if s > start:
                break
        return False

    def first_gap(self, floor: int, limit: Optional[int] = None) -> Optional[Tuple[int, int]]:
        """First uncovered ``[gap_start, gap_end)`` at or above ``floor``.

        ``gap_end`` is the start of the next covered range (or ``limit``).
        Returns None when everything from floor to limit is covered or
        there is nothing above floor.
        """
        gap_start = floor
        for s, e in self._ranges:
            if e <= gap_start:
                continue
            if s > gap_start:
                return (gap_start, s if limit is None else min(s, limit))
            gap_start = e
        if limit is not None and gap_start < limit:
            return (gap_start, limit)
        if limit is None:
            return (gap_start, gap_start)  # open-ended gap marker
        return None

    def covered_bytes(self, start: int, end: int) -> int:
        """How many bytes of ``[start, end)`` are covered."""
        total = 0
        for s, e in self._ranges:
            if e <= start:
                continue
            if s >= end:
                break
            total += min(e, end) - max(s, start)
        return total

    def max_end(self) -> int:
        return self._ranges[-1][1] if self._ranges else 0

    def as_tuples(self, limit: Optional[int] = None) -> Tuple[Tuple[int, int], ...]:
        if limit is None:
            return tuple(self._ranges)
        return tuple(self._ranges[:limit])

    def clear(self) -> None:
        self._ranges.clear()
