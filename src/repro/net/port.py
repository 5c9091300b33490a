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
        "_on_tx_done",
        "name",
        "link",
        "queue",
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
        self.sim = sim
        # bound once: the transmit machinery schedules two events per
        # packet, and the lookup (and, for _tx_done, a fresh bound-method
        # object) per event shows up in profiles
        self._schedule = sim.schedule
        self._on_tx_done = self._tx_done
        self.name = name
        self.link = link
        self.queue = DropTailQueue(buffer_bytes)
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

    def send(self, pkt: Packet) -> bool:
        """Queue ``pkt`` for transmission.  Returns False on drop."""
        queue = self.queue
        if not self.link._up:
            queue.record_drop(pkt, "link_down")
            return False
        if self._busy or queue.probe is not None:
            if not queue.enqueue(pkt):
                return False
            if not self._busy:
                self._start_tx(queue.dequeue())
            return True
        # An idle port's queue is empty: admit the packet by the queue's
        # own rule and counters, and serialize it without the deque
        # round trip (a probe wants to see the enqueue, so not then).
        if not queue.admit(pkt):
            return False
        self._start_tx(pkt)
        return True

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
        queue = self.queue
        if queue.bytes_queued:
            self._start_tx(queue.dequeue())
        else:
            self._busy = False

    def on_link_down(self) -> None:
        """Flush queued packets when the cable dies; the frame in the
        serializer is lost on the wire."""
        queue = self.queue
        while queue.bytes_queued:
            queue.record_drop(queue.dequeue(), "link_down")
        if self._busy:
            self.wire_drop_pkts += 1
            self.wire_drop_bytes += self._tx_pkt.wire_size
            self._tx_pkt = None
            self._busy = False

    def on_link_up(self) -> None:
        """Cable restored: resume transmission of anything queued."""
        if not self._busy and self.queue.bytes_queued:
            self._start_tx(self.queue.dequeue())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Port {self.name}>"
