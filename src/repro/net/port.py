"""Directional output port: drop-tail queue + store-and-forward serializer.

Each port belongs to one node and delivers to a fixed peer node after
``serialization + propagation`` delay, mirroring a real switch ASIC's
output-queued model.  Per-port counters feed the loss-rate and
utilization figures.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.units import SEC, serialization_time_ns


#: Default per-port buffering.  The G8264 shares ~4 MB among 64 ports;
#: a few hundred KB per port reproduces the shallow-buffer loss behaviour.
DEFAULT_BUFFER_BYTES = 300 * 1024


class Port:
    """One direction of a link: ``owner`` transmits to ``peer``."""

    __slots__ = (
        "sim",
        "_schedule",
        "name",
        "link",
        "queue",
        "peer",
        "peer_port",
        "_busy",
        "_tx_event",
        "_tx_pkt",
        "tx_pkts",
        "tx_bytes",
        "wire_drop_pkts",
        "wire_drop_bytes",
        "tx_jitter_ns",
        "_jstate",
        "space_threshold",
        "on_space",
        "_space_armed",
        "on_dequeue",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        link: Link,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ):
        self.sim = sim
        # bound once: the transmit machinery schedules 2+ events per
        # packet and the attribute/descriptor chain shows up in profiles
        self._schedule = sim.schedule
        self.name = name
        self.link = link
        self.queue = DropTailQueue(buffer_bytes)
        self.peer = None  # node with .receive(pkt, port); set by Topology
        self.peer_port: Optional["Port"] = None  # reverse direction
        self._busy = False
        self._tx_event = None  # pending _tx_done for the serializing packet
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
        #: optional low-watermark callback: fired once each time the queue
        #: drains below the threshold (used for TSQ-style backpressure)
        self.space_threshold: Optional[int] = None
        self.on_space = None
        self._space_armed = True
        #: optional per-dequeue callback (pkt) — fired as each packet
        #: starts serialization; the NIC uses it for per-flow TSQ wakeups
        self.on_dequeue = None
        link.ports.append(self)

    @property
    def up(self) -> bool:
        return self.link.up

    def send(self, pkt: Packet) -> bool:
        """Queue ``pkt`` for transmission.  Returns False on drop."""
        if not self.link._up:
            self.queue.record_drop(pkt, "link_down")
            return False
        if not self.queue.enqueue(pkt):
            return False
        if not self._busy:
            self._start_tx()
        return True

    def _start_tx(self) -> None:
        pkt = self.queue.dequeue()
        if self.space_threshold is not None:
            if self.queue.bytes_queued >= self.space_threshold:
                self._space_armed = True
            elif self._space_armed and self.on_space is not None:
                self._space_armed = False
                # deferred so the callback's sends cannot re-enter _start_tx
                self.sim.schedule(0, self.on_space)
        if pkt is None:
            self._busy = False
            return
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
        self._tx_event = self._schedule(ser, self._tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        self._tx_event = None
        self._tx_pkt = None
        self.tx_pkts += 1
        self.tx_bytes += pkt.wire_size
        if self.link._up:
            # Packet leaves the wire prop_delay later; the transmitter is
            # free to start the next packet immediately (pipelining).
            self._schedule(self.link.prop_delay_ns, self._deliver, pkt)
        else:
            self.wire_drop_pkts += 1
            self.wire_drop_bytes += pkt.wire_size
        self._start_tx()

    def _deliver(self, pkt: Packet) -> None:
        pkt.hops += 1
        self.peer.receive(pkt, self)

    def on_link_down(self) -> None:
        """Flush queued packets when the cable dies; the frame in the
        serializer is lost on the wire."""
        while True:
            pkt = self.queue.dequeue()
            if pkt is None:
                break
            self.queue.record_drop(pkt, "link_down")
        if self._tx_event is not None:
            self._tx_event.cancel()
            self._tx_event = None
        if self._tx_pkt is not None:
            self.wire_drop_pkts += 1
            self.wire_drop_bytes += self._tx_pkt.wire_size
            self._tx_pkt = None
        self._busy = False

    def on_link_up(self) -> None:
        """Cable restored: resume transmission of anything queued."""
        if not self._busy and len(self.queue):
            self._start_tx()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Port {self.name}>"
