"""Drop-tail FIFOs with optional shared-buffer admission.

The paper's RackSwitch G8264 (Broadcom Scorpion/Trident class) keeps a
~4 MB packet buffer *shared* across ports with dynamic per-port
thresholds: a lone hot port may absorb megabytes of burst, but when the
pool is contended every port's share shrinks.  :class:`SharedBuffer`
models the classic dynamic-threshold rule (port limit = alpha x free
pool); loss under collision is what makes ECMP hurt, and the counters
mirror the switch counters the paper reads for its loss-rate figures.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Packet


class SharedBuffer:
    """A switch's packet-memory pool with dynamic thresholding: the
    pool's size, its ``alpha`` and the bytes in use.  The admission
    rule itself is in :meth:`DropTailQueue.admit`.
    """

    __slots__ = ("total_bytes", "alpha", "used_bytes")

    def __init__(self, total_bytes: int, alpha: float = 2.0):
        if total_bytes <= 0:
            raise ValueError(f"pool must be positive: {total_bytes}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive: {alpha}")
        self.total_bytes = total_bytes
        self.alpha = alpha
        self.used_bytes = 0

    def release(self, size: int) -> None:
        self.used_bytes -= size
        assert self.used_bytes >= 0, "shared buffer accounting underflow"


class DropTailQueue:
    """FIFO with a byte capacity; enqueue beyond capacity drops the packet."""

    __slots__ = (
        "capacity_bytes",
        "shared",
        "_queue",
        "bytes_queued",
        "track_flows",
        "flow_bytes",
        "enqueued_pkts",
        "enqueued_bytes",
        "dropped_pkts",
        "dropped_bytes",
        "drop_causes",
        "drop_cause_bytes",
        "probe",
    )

    def __init__(
        self,
        capacity_bytes: int,
        track_flows: bool = False,
        shared: Optional[SharedBuffer] = None,
    ):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.shared = shared
        self._queue: deque = deque()
        self.bytes_queued = 0
        #: per-flow occupancy (enabled on host egress queues for TSQ)
        self.track_flows = track_flows
        self.flow_bytes: dict = {}
        # counters (cumulative)
        self.enqueued_pkts = 0
        self.enqueued_bytes = 0
        self.dropped_pkts = 0
        self.dropped_bytes = 0
        #: drops split by cause: "cap" (per-port hard cap), "pool"
        #: (shared-buffer DT admission), "link_down"
        self.drop_causes: dict = {}
        #: same split in wire bytes (fault accounting separates
        #: failure-induced losses from congestion losses by cause)
        self.drop_cause_bytes: dict = {}
        #: optional telemetry probe (repro.telemetry); None = disabled
        self.probe = None

    def __len__(self) -> int:
        return len(self._queue)

    def record_drop(self, pkt: Packet, cause: str) -> None:
        """Count a dropped packet against ``cause``."""
        self.dropped_pkts += 1
        self.dropped_bytes += pkt.wire_size
        self.drop_causes[cause] = self.drop_causes.get(cause, 0) + 1
        self.drop_cause_bytes[cause] = (
            self.drop_cause_bytes.get(cause, 0) + pkt.wire_size)
        if self.probe is not None:
            self.probe.on_drop(pkt, cause, self.bytes_queued)

    def admit(self, pkt: Packet) -> bool:
        """The admission rule: False (and a counted drop) when ``pkt``
        would overflow the port's cap or its share of the shared pool,
        else True and ``pkt`` counts as enqueued.  A port whose
        serializer is idle calls this alone and sends ``pkt`` at once."""
        size = pkt.wire_size
        if self.bytes_queued + size > self.capacity_bytes:
            self.record_drop(pkt, "cap")
            return False
        shared = self.shared
        if shared is not None:
            # the standard Broadcom dynamic-threshold rule: a port may
            # enqueue while the pool has room and its own occupancy
            # stays within alpha x the free pool (alpha=2: a lone
            # congested port can take up to 2/3 of the pool)
            used = shared.used_bytes
            if used + size > shared.total_bytes or (
                self.bytes_queued + size > shared.alpha * (shared.total_bytes - used)
            ):
                self.record_drop(pkt, "pool")
                return False
        self.enqueued_pkts += 1
        self.enqueued_bytes += size
        return True

    def enqueue(self, pkt: Packet) -> bool:
        """Add ``pkt``; returns False (and counts a drop) when full."""
        if not self.admit(pkt):
            return False
        size = pkt.wire_size
        if self.shared is not None:
            self.shared.used_bytes += size
        self._queue.append(pkt)
        self.bytes_queued += size
        if self.track_flows:
            self.flow_bytes[pkt.flow_id] = self.flow_bytes.get(pkt.flow_id, 0) + size
        if self.probe is not None:
            self.probe.on_enqueue(pkt, self.bytes_queued)
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head packet, or None when empty."""
        if not self._queue:
            return None
        pkt = self._queue.popleft()
        size = pkt.wire_size
        self.bytes_queued -= size
        shared = self.shared
        if shared is not None:
            shared.used_bytes -= size
        if self.track_flows:
            left = self.flow_bytes.get(pkt.flow_id, 0) - size
            if left > 0:
                self.flow_bytes[pkt.flow_id] = left
            else:
                self.flow_bytes.pop(pkt.flow_id, None)
        return pkt

    def clear(self) -> int:
        """Drop everything queued (used when a link dies); returns count."""
        n = len(self._queue)
        if self.shared is not None:
            self.shared.release(self.bytes_queued)
        self._queue.clear()
        self.bytes_queued = 0
        self.flow_bytes.clear()
        return n
