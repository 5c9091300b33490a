"""Directional output port: a drop-tail FIFO on an optional shared
buffer, in front of a store-and-forward serializer.

Each port belongs to one node and delivers to a fixed peer node after
``serialization + propagation`` delay, mirroring a real switch ASIC's
output-queued model.

The paper's RackSwitch G8264 (Broadcom Scorpion/Trident class) keeps a
~4 MB packet buffer *shared* across ports with dynamic per-port
thresholds: a lone hot port may absorb megabytes of burst, but when the
pool is contended every port's share shrinks.  :class:`SharedBuffer` is
that pool and :meth:`Port.send` states the classic dynamic-threshold
rule (port limit = alpha x free pool); loss under collision is what
makes ECMP hurt, and the per-port counters mirror the switch counters
the paper reads for its loss-rate and utilization figures.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.units import SEC


#: Default per-port buffering.  The G8264 shares ~4 MB among 64 ports;
#: a few hundred KB per port reproduces the shallow-buffer loss behaviour.
DEFAULT_BUFFER_BYTES = 300 * 1024


class SharedBuffer:
    """A switch's packet-memory pool with dynamic thresholding: the
    pool's size, its ``alpha`` and the bytes in use.  The admission
    rule itself is in :meth:`Port.send`.
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


class Port:
    """One direction of a link: ``owner`` transmits to ``peer``.

    Many ports never hold a packet back (at flow fidelity none carries
    one), so the FIFO is allocated when the first packet has to wait
    behind the serializer (``_fifo`` is None until then), and the
    per-flow byte map only on a port that tracks flows.
    """

    __slots__ = (
        "sim",
        "_schedule",
        "_on_tx_done",
        "name",
        "link",
        "capacity_bytes",
        "shared",
        "_fifo",
        "bytes_queued",
        "flow_bytes",
        "enqueued_pkts",
        "enqueued_bytes",
        "dropped_pkts",
        "dropped_bytes",
        "drop_causes",
        "drop_cause_bytes",
        "probe",
        "peer",
        "peer_port",
        "_busy",
        "_tx_pkt",
        "tx_pkts",
        "tx_bytes",
        "wire_drop_pkts",
        "wire_drop_bytes",
        "tx_jitter_ns",
        "_jstate",
        "on_dequeue",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        link: Link,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ):
        if buffer_bytes <= 0:
            raise ValueError(f"capacity must be positive: {buffer_bytes}")
        self.sim = sim
        # bound once: the transmit machinery schedules two events per
        # packet, and the lookup (and, for _tx_done, a fresh bound-method
        # object) per event shows up in profiles
        self._schedule = sim.schedule
        self._on_tx_done = self._tx_done
        self.name = name
        self.link = link
        #: the port's hard cap on queued bytes
        self.capacity_bytes = buffer_bytes
        #: the switch's SharedBuffer this port draws on; set by Topology
        self.shared: Optional[SharedBuffer] = None
        #: packets waiting behind the serializer (it holds its own
        #: frame); None until the first packet waits
        self._fifo: Optional[deque] = None
        self.bytes_queued = 0
        #: per-flow occupancy, a dict where :attr:`track_flows` is set
        #: (host egress ports, for TSQ), else None
        self.flow_bytes: Optional[dict] = None
        # queue counters (cumulative)
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
        self.peer = None  # node with .receive(pkt, port); set by Topology
        self.peer_port: Optional["Port"] = None  # reverse direction
        self._busy = False
        #: the frame in the serializer; a link failure clears it, which
        #: turns that frame's pending _tx_done into a no-op
        self._tx_pkt: Optional[Packet] = None
        self.tx_pkts = 0
        self.tx_bytes = 0
        #: frames lost on the wire itself: the packet being serialized
        #: when the cable died (never reaches any queue counter)
        self.wire_drop_pkts = 0
        self.wire_drop_bytes = 0
        #: per-packet serialization jitter ceiling (ns).  Host NICs get a
        #: few tens of ns of timing noise (IFG variance, PCIe batching):
        #: without it, constant-MTU flows phase-lock with switch queue
        #: departures and a pinned-full queue starves competitors forever
        #: — an artifact real hardware never exhibits.
        self.tx_jitter_ns = 0
        # zlib.crc32 (not hash()) so runs are stable under hash randomization
        self._jstate = (zlib.crc32(name.encode()) | 1) & 0xFFFFFFFF
        #: optional per-dequeue callback (pkt) — fired as each packet
        #: starts serialization; a host's uplink uses it for TSQ wakeups
        self.on_dequeue = None
        link.ports.append(self)

    @property
    def up(self) -> bool:
        return self.link.up

    @property
    def track_flows(self) -> bool:
        """Whether the port keeps per-flow occupancy in
        :attr:`flow_bytes`; setting it creates (or drops) the map."""
        return self.flow_bytes is not None

    @track_flows.setter
    def track_flows(self, on: bool) -> None:
        if not on:
            self.flow_bytes = None
        elif self.flow_bytes is None:
            self.flow_bytes = {}

    def _drop(self, pkt: Packet, cause: str) -> None:
        """Count a dropped packet against ``cause``."""
        self.dropped_pkts += 1
        self.dropped_bytes += pkt.wire_size
        self.drop_causes[cause] = self.drop_causes.get(cause, 0) + 1
        self.drop_cause_bytes[cause] = (
            self.drop_cause_bytes.get(cause, 0) + pkt.wire_size)
        if self.probe is not None:
            self.probe.on_drop(pkt, cause, self.bytes_queued)

    def send(self, pkt: Packet) -> bool:
        """Queue ``pkt`` for transmission.  Returns False (and counts a
        drop) when the link is down or the admission rule refuses it."""
        if not self.link._up:
            self._drop(pkt, "link_down")
            return False
        size = pkt.wire_size
        queued = self.bytes_queued + size
        if queued > self.capacity_bytes:
            self._drop(pkt, "cap")
            return False
        shared = self.shared
        if shared is not None:
            # the standard Broadcom dynamic-threshold rule: a port may
            # enqueue while the pool has room and its own occupancy
            # stays within alpha x the free pool (alpha=2: a lone
            # congested port can take up to 2/3 of the pool)
            used = shared.used_bytes
            if used + size > shared.total_bytes or (
                queued > shared.alpha * (shared.total_bytes - used)
            ):
                self._drop(pkt, "pool")
                return False
        self.enqueued_pkts += 1
        self.enqueued_bytes += size
        if self.probe is not None:
            self.probe.on_enqueue(pkt, queued)
        if not self._busy:
            # an idle port's FIFO is empty: the packet goes straight
            # to the serializer and never occupies the buffer
            self._start_tx(pkt)
            return True
        if shared is not None:
            shared.used_bytes += size
        fifo = self._fifo
        if fifo is None:
            fifo = self._fifo = deque()
        fifo.append(pkt)
        self.bytes_queued = queued
        flow_bytes = self.flow_bytes
        if flow_bytes is not None:
            flow_bytes[pkt.flow_id] = flow_bytes.get(pkt.flow_id, 0) + size
        return True

    def _pop(self) -> Packet:
        """Take the head of the (non-empty) FIFO off the buffer."""
        pkt = self._fifo.popleft()
        size = pkt.wire_size
        self.bytes_queued -= size
        shared = self.shared
        if shared is not None:
            shared.used_bytes -= size
        flow_bytes = self.flow_bytes
        if flow_bytes is not None:
            left = flow_bytes.get(pkt.flow_id, 0) - size
            if left > 0:
                flow_bytes[pkt.flow_id] = left
            else:
                flow_bytes.pop(pkt.flow_id, None)
        return pkt

    def _start_tx(self, pkt: Packet) -> None:
        self._busy = True
        if self.on_dequeue is not None:
            # _busy is already True, so sends triggered by the wakeup only
            # enqueue — they cannot re-enter the transmit machinery.
            self.on_dequeue(pkt)
        # Serialization time answered from the link's size->ns cache;
        # misses compute serialization_time_ns's exact expression (same
        # rounding), so cached and uncached runs are bit-identical.
        link = self.link
        ws = pkt.wire_size
        ser = link._ser_cache.get(ws)
        if ser is None:
            ser = max(1, int(round(ws * 8 * SEC / link.rate_bps)))
            link._ser_cache[ws] = ser
        jitter_ns = self.tx_jitter_ns
        if jitter_ns:
            # xorshift32: cheap, deterministic per port
            x = self._jstate
            x ^= (x << 13) & 0xFFFFFFFF
            x ^= x >> 17
            x ^= (x << 5) & 0xFFFFFFFF
            self._jstate = x
            ser += x % (jitter_ns + 1)
        self._tx_pkt = pkt
        self._schedule(ser, self._on_tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        if pkt is not self._tx_pkt:
            return  # lost on the wire: the link died mid-serialization
        self.tx_pkts += 1
        self.tx_bytes += pkt.wire_size
        pkt.hops += 1
        # Packet leaves the wire prop_delay later; the transmitter is
        # free to start the next packet immediately (pipelining).
        self._schedule(self.link.prop_delay_ns, self.peer.receive, pkt, self)
        if self._fifo:
            self._start_tx(self._pop())
        else:
            self._busy = False

    def on_link_down(self) -> None:
        """Flush queued packets when the cable dies; the frame in the
        serializer is lost on the wire."""
        while self._fifo:
            self._drop(self._pop(), "link_down")
        if self._busy:
            self.wire_drop_pkts += 1
            self.wire_drop_bytes += self._tx_pkt.wire_size
            self._tx_pkt = None
            self._busy = False

    def on_link_up(self) -> None:
        """Cable restored: resume transmission of anything queued."""
        if not self._busy and self._fifo:
            self._start_tx(self._pop())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Port {self.name}>"
