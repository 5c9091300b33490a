"""Wire and host-stack data units.

Two granularities, mirroring a real TSO/GRO stack:

* :class:`Segment` — what TCP hands to the NIC (up to 64 KB, the flowcell
  size) and what GRO pushes back up to TCP.  Pure ACKs are zero-payload
  segments.
* :class:`Packet` — the MTU-sized unit that actually crosses links.  TSO
  fans a segment out into packets (replicating the shadow MAC and
  flowcell ID exactly like a real NIC replicates header fields); GRO
  merges packets back into segments.

Byte sequence numbers are absolute offsets in the flow's byte stream,
``seq`` inclusive / ``end_seq`` exclusive.
"""

from __future__ import annotations

from typing import Tuple

from repro.units import HEADER_BYTES

DATA = "data"
ACK = "ack"


class Packet:
    """An MTU-sized packet on the wire.

    ``end_seq`` and ``wire_size`` are plain attributes computed at
    construction (they used to be properties): ``seq``/``payload_len``
    are never mutated after a packet is built, and the two derived
    values are read for every enqueue, dequeue and serialization.
    """

    __slots__ = (
        "flow_id",
        "src_host",
        "dst_host",
        "dst_mac",
        "kind",
        "seq",
        "payload_len",
        "flowcell_id",
        "is_retx",
        "ack_seq",
        "sack",
        "ts",
        "ts_echo",
        "hops",
        "end_seq",
        "wire_size",
    )

    def __init__(
        self,
        flow_id: int,
        src_host: int,
        dst_host: int,
        dst_mac: int,
        kind: str,
        seq: int,
        payload_len: int,
        flowcell_id: int,
        is_retx: bool = False,
        ack_seq: int = 0,
        sack: Tuple[Tuple[int, int], ...] = (),
        ts: int = 0,
        ts_echo: int = 0,
    ):
        self.flow_id = flow_id
        self.src_host = src_host
        self.dst_host = dst_host
        self.dst_mac = dst_mac
        self.kind = kind
        self.seq = seq
        self.payload_len = payload_len
        self.flowcell_id = flowcell_id
        self.is_retx = is_retx
        self.ack_seq = ack_seq
        self.sack = sack
        self.ts = ts
        self.ts_echo = ts_echo
        self.hops = 0
        self.end_seq = seq + payload_len
        self.wire_size = payload_len + HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet f{self.flow_id} {self.kind} seq={self.seq}+{self.payload_len}"
            f" cell={self.flowcell_id}{' retx' if self.is_retx else ''}>"
        )


class Segment:
    """A TSO/GRO mega-segment: contiguous bytes of one flow.

    On the send side a segment is the unit TCP passes to the vSwitch/NIC
    (Algorithm 1 operates per segment).  On the receive side GRO builds
    segments from packets and pushes them up to TCP.
    """

    __slots__ = (
        "flow_id",
        "src_host",
        "dst_host",
        "dst_mac",
        "kind",
        "seq",
        "end_seq",
        "pkt_count",
        "flowcell_id",
        "is_retx",
        "ack_seq",
        "sack",
        "ts",
        "ts_echo",
        "created_at",
        "last_merge_at",
    )

    def __init__(
        self,
        flow_id: int,
        src_host: int,
        dst_host: int,
        kind: str = DATA,
        seq: int = 0,
        end_seq: int = 0,
        pkt_count: int = 0,
        flowcell_id: int = 0,
        is_retx: bool = False,
        ack_seq: int = 0,
        sack: Tuple[Tuple[int, int], ...] = (),
        ts: int = 0,
        ts_echo: int = 0,
        dst_mac: int = 0,
    ):
        self.flow_id = flow_id
        self.src_host = src_host
        self.dst_host = dst_host
        self.dst_mac = dst_mac
        self.kind = kind
        self.seq = seq
        self.end_seq = end_seq
        self.pkt_count = pkt_count
        self.flowcell_id = flowcell_id
        self.is_retx = is_retx
        self.ack_seq = ack_seq
        self.sack = sack
        self.ts = ts
        self.ts_echo = ts_echo
        self.created_at = 0
        self.last_merge_at = 0

    @property
    def payload_len(self) -> int:
        return self.end_seq - self.seq

    @classmethod
    def from_packet(cls, pkt: Packet) -> "Segment":
        """Start a new GRO segment from a single received packet."""
        return cls(
            flow_id=pkt.flow_id,
            src_host=pkt.src_host,
            dst_host=pkt.dst_host,
            kind=pkt.kind,
            seq=pkt.seq,
            end_seq=pkt.end_seq,
            pkt_count=1,
            flowcell_id=pkt.flowcell_id,
            is_retx=pkt.is_retx,
            ack_seq=pkt.ack_seq,
            sack=pkt.sack,
            ts=pkt.ts,
            ts_echo=pkt.ts_echo,
            dst_mac=pkt.dst_mac,
        )

    def try_merge(self, pkt: Packet, require_same_flowcell: bool) -> bool:
        """Append/prepend ``pkt`` if it is contiguous with this segment.

        Real GRO only appends at the tail; we also allow a head-merge of
        the immediately preceding packet, which real GRO achieves through
        segment adjacency — the simplification does not change which
        bytes get pushed in-order.  Returns True when merged.
        """
        if pkt.flow_id != self.flow_id or pkt.kind != self.kind:
            return False
        if require_same_flowcell and pkt.flowcell_id != self.flowcell_id:
            return False
        if pkt.is_retx != self.is_retx:
            return False
        if pkt.seq == self.end_seq:
            self.end_seq = pkt.end_seq
        elif pkt.end_seq == self.seq:
            self.seq = pkt.seq
        else:
            return False
        self.pkt_count += 1
        if pkt.ts:
            self.ts = self.ts or pkt.ts
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Segment f{self.flow_id} {self.kind} [{self.seq},{self.end_seq})"
            f" cell={self.flowcell_id} n={self.pkt_count}>"
        )


def make_ack(
    flow_id: int,
    src_host: int,
    dst_host: int,
    ack_seq: int,
    sack: Tuple[Tuple[int, int], ...] = (),
    ts_echo: int = 0,
) -> Segment:
    """A pure-ACK segment (zero payload, one wire packet)."""
    return Segment(
        flow_id=flow_id,
        src_host=src_host,
        dst_host=dst_host,
        kind=ACK,
        ack_seq=ack_seq,
        sack=sack,
        ts_echo=ts_echo,
    )
