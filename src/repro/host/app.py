"""Traffic applications used by the paper's measurements.

* :class:`BulkApp` — nuttcp/scp-style elephant: a fixed-size or endless
  packet-level TCP transfer; throughput is measured at the receiver.
* :class:`RttProbeApp` — sockperf-style ping-pong: a tiny message is
  echoed by the peer; the round trip time is recorded at the client.

and the engine-agnostic traffic layer, written once on top of the
testbed's "open one transfer" primitives (so it runs unchanged at
packet and flow fidelity):

* :class:`RaceApp` — N full-size copies of one payload raced over
  distinct paths, first finisher wins (RepFlow's transport half).
* :class:`MiceApp` — a request every ``interval_ns`` over the scheme's
  transport; the flow completion time (request start until the payload
  is fully acknowledged) is the paper's mice FCT metric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.host.transfer import Transfer, delivered_for
from repro.sim.engine import Simulator
from repro.units import KB, msec

if TYPE_CHECKING:
    from repro.host.host import Host

#: every mice request's payload (the paper's 50 KB mice)
MICE_BYTES = 50 * KB
#: gap between an RTT probe's echo and its next ping (sockperf's 1 ms)
PROBE_INTERVAL_NS = msec(1)


class FlowIdAllocator:
    """Monotonic flow-id source shared by an experiment."""

    def __init__(self, start: int = 1):
        self._next = start

    def next(self) -> int:
        flow_id = self._next
        self._next += 1
        return flow_id


class BulkApp(Transfer):
    """One elephant transfer from ``src`` to ``dst``."""

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        flow_id: int,
        size_bytes: Optional[int] = None,
        start_ns: int = 0,
        on_complete=None,
    ):
        self.sim = sim
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        self.on_complete = on_complete
        self.sender = None
        if start_ns is None:
            # "now": open the sender inside the caller's event (a mice
            # tick) instead of deferring through the heap
            self._start()
        else:
            sim.schedule(start_ns, self._start)

    def _start(self) -> None:
        self.sender = self.src.open_sender(
            self.flow_id, self.dst.host_id, on_complete=self._done
        )
        if self.size_bytes is None:
            self.sender.set_unbounded()
        else:
            self.sender.write(self.size_bytes)

    def _done(self, sender) -> None:
        if self.on_complete is not None:
            self.on_complete(self)

    # --- Transfer interface ---------------------------------------------------

    def flow_ids(self) -> Tuple[int, ...]:
        return (self.flow_id,)

    def delivered_by_flow(self) -> Dict[int, int]:
        return {self.flow_id: delivered_for(self.dst, self.flow_id)}

    @property
    def fct_ns(self):
        """Flow completion time (None while incomplete or unbounded)."""
        return self.sender.fct_ns if self.sender is not None else None


class RaceApp(Transfer):
    """One payload raced as ``copies`` full-size transfers over distinct
    paths (RepFlow, Xu & Li: see :class:`repro.lb.repflow.RepFlow`).

    Each copy is an ordinary single-flow transfer opened through the
    testbed's data plane, so this runs at either fidelity.  The first
    copy to finish sets the transfer's FCT and is the one whose bytes
    count as delivered; the duplicates' payload is *suppressed* at the
    receiver — tracked in ``dup_suppressed_bytes``, never in
    ``delivered_bytes()``, so byte conservation holds at the
    application layer (received payload == flow size) while the wire
    carries every copy.
    """

    def __init__(self, tb, src: int, dst: int, size_bytes: int,
                 start_ns: Optional[int] = 0, on_complete=None,
                 copies: int = 2):
        if size_bytes is None or size_bytes <= 0:
            raise ValueError(
                f"a race replicates bounded transfers only, "
                f"got size_bytes={size_bytes}")
        self.size_bytes = size_bytes
        self.on_complete = on_complete
        self.winner = None
        # copies always start through the heap (never "now"), so the
        # pairing below lands before any copy's first LB decision
        self.copies = tuple(
            tb.plane.open(src, dst, size_bytes, start_ns or 0,
                          self._copy_done)
            for _ in range(copies))
        primary, *replicas = (c.flow_ids()[0] for c in self.copies)
        for replica in replicas:
            tb.hosts[src].lb.pair(primary, replica)

    def _copy_done(self, copy) -> None:
        if self.winner is None:
            self.winner = copy
            if self.on_complete is not None:
                self.on_complete(self)

    def _leader(self):
        """The copy whose bytes count: the winner once decided, else
        whichever copy is ahead (ties go to the primary)."""
        if self.winner is not None:
            return self.winner
        return max(self.copies, key=lambda c: (c.delivered_bytes(),
                                               -c.flow_ids()[0]))

    @property
    def dup_suppressed_bytes(self) -> int:
        """Payload bytes the receiver discarded as duplicates."""
        leader = self._leader()
        return sum(c.delivered_bytes() for c in self.copies
                   if c is not leader)

    # --- Transfer interface ---------------------------------------------------

    def flow_ids(self) -> Tuple[int, ...]:
        return tuple(f for c in self.copies for f in c.flow_ids())

    def delivered_by_flow(self) -> Dict[int, int]:
        leader = self._leader()
        out = {f: 0 for f in self.flow_ids()}
        out.update(leader.delivered_by_flow())
        return out

    @property
    def fct_ns(self):
        """First-finisher-wins completion time."""
        return self.winner.fct_ns if self.winner is not None else None


class MiceApp(Transfer):
    """Periodic mice flows from ``src`` to ``dst`` over the scheme's
    transport (whatever ``tb.open`` opens: a TCP flow, an MPTCP
    connection, a RepFlow race, a fluid).

    Each request is a fresh :data:`MICE_BYTES` transfer; its FCT
    (write -> fully acked) is appended to ``fcts_ns``.  Requests overlap
    if the previous one has not finished (open-loop, as in the paper's
    100 ms cadence).  Over MPTCP the paper's Table 2 shows these timing
    out — small per-subflow windows cannot trigger fast retransmit, so
    losses cost an RTO.
    """

    def __init__(self, tb, src: int, dst: int, interval_ns: int = msec(100),
                 start_ns: int = 0, stop_ns: Optional[int] = None):
        self.tb = tb
        self.src = src
        self.dst = dst
        self.interval_ns = interval_ns
        self.stop_ns = stop_ns
        self._fcts_ns: List[int] = []
        self.sent = 0
        self._transfers: List = []
        tb.sim.schedule(start_ns, self._tick)

    def _tick(self) -> None:
        sim = self.tb.sim
        if self.stop_ns is not None and sim.now >= self.stop_ns:
            return
        self._transfers.append(self.tb.open(
            self.src, self.dst, MICE_BYTES, None, self._done))
        self.sent += 1
        sim.schedule(self.interval_ns, self._tick)

    def _done(self, transfer) -> None:
        if transfer.fct_ns is not None:
            self._fcts_ns.append(transfer.fct_ns)

    @property
    def fcts_ns(self) -> List[int]:
        """One entry per completed request, in completion order."""
        return self._fcts_ns

    @property
    def dup_suppressed_bytes(self) -> int:
        """Duplicate payload suppressed by racing transports, rolled up
        over spawned mice (0 for single-copy transports)."""
        return sum(getattr(t, "dup_suppressed_bytes", 0)
                   for t in self._transfers)

    # --- Transfer interface ---------------------------------------------------

    def flow_ids(self) -> Tuple[int, ...]:
        return tuple(f for t in self._transfers for f in t.flow_ids())

    def delivered_by_flow(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for transfer in self._transfers:
            out.update(transfer.delivered_by_flow())
        return out


class RttProbeApp(Transfer):
    """sockperf-style RTT probe: single-packet ping-pong over TCP, the
    next ping :data:`PROBE_INTERVAL_NS` after each echo."""

    PROBE_BYTES = 64

    def __init__(
        self,
        sim: Simulator,
        client: Host,
        server: Host,
        flow_ids: FlowIdAllocator,
        start_ns: int = 0,
    ):
        self.sim = sim
        self.client = client
        self.server = server
        self.rtts_ns: List[int] = []
        self._c2s = flow_ids.next()
        self._s2c = flow_ids.next()
        self._sent_at: Optional[int] = None
        self._client_sender = None
        self._server_sender = None
        self._echoed = 0
        self._received = 0
        sim.schedule(start_ns, self._start)

    def _start(self) -> None:
        self._client_sender = self.client.open_sender(self._c2s, self.server.host_id)
        self._server_sender = self.server.open_sender(self._s2c, self.client.host_id)
        self.server.expect_flow(self._c2s, self._on_server_data)
        self.client.expect_flow(self._s2c, self._on_client_data)
        self._send_probe()

    def _send_probe(self) -> None:
        self._sent_at = self.sim.now
        self._client_sender.write(self.PROBE_BYTES)

    def _on_server_data(self, total: int) -> None:
        # echo every fully received probe back to the client
        while total - self._echoed >= self.PROBE_BYTES:
            self._echoed += self.PROBE_BYTES
            self._server_sender.write(self.PROBE_BYTES)

    def _on_client_data(self, total: int) -> None:
        while total - self._received >= self.PROBE_BYTES:
            self._received += self.PROBE_BYTES
            if self._sent_at is not None:
                self.rtts_ns.append(self.sim.now - self._sent_at)
                self._sent_at = None
                self.sim.schedule(PROBE_INTERVAL_NS, self._send_probe)

    # --- Transfer interface ---------------------------------------------------

    def flow_ids(self) -> Tuple[int, ...]:
        return (self._c2s, self._s2c)

    def delivered_by_flow(self) -> Dict[int, int]:
        return {
            self._c2s: delivered_for(self.server, self._c2s),
            self._s2c: delivered_for(self.client, self._s2c),
        }
