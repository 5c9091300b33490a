"""Generic Receive Offload: the stock Linux algorithm and Presto's.

Official GRO (S2.2, Fig 2): one segment per flow; a packet that cannot
be merged ejects the current segment up the stack and starts a new one.
Under reordering this degenerates to pushing MTU-sized segments — the
*small segment flooding* problem — and exposes TCP to out-of-order
delivery.

Presto GRO (S3.2, Algorithm 2): keeps a *list* of segments per flow,
merges only within flowcell boundaries, and at flush time decides
per-segment whether to push or hold:

* same flowcell as the last in-order one  -> push (an intra-flowcell
  sequence gap means loss, never reordering, because one flowcell rides
  one path);
* next flowcell, contiguous sequence      -> push, advance state;
* next flowcell, overlapping sequence     -> push (retransmission);
* next flowcell, gap at the boundary      -> hold until the gap fills or
  an adaptive timeout (alpha * EWMA of observed reordering durations,
  extended while merges are still landing within EWMA/beta) fires;
* stale flowcell                          -> push immediately.

Both flavours cap a merged segment at ``MAX_TSO_BYTES`` (64 KB, the
largest TSO segment), and Presto's beta and EWMA gain are the module
constants ``DEFAULT_BETA`` and ``EWMA_GAIN``: the merge and flush code
reads all three at call time, so no instance carries a copy.  Alpha,
the initial EWMA and the two ablation switches stay parameters.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.net.packet import Packet, Segment
from repro.units import MAX_TSO_BYTES, usec

#: Paper sets both empirical constants to 2 (S3.2).
DEFAULT_ALPHA = 2.0
DEFAULT_BETA = 2.0
#: EWMA starting point before any reordering has been observed.  Sized to
#: the worst-case one-queue serialization skew between two paths (a
#: ~300 KB switch buffer at 10 Gbps drains in ~240 us), so early timeouts
#: do not leak reordering before the EWMA has learned the fabric.
DEFAULT_INITIAL_EWMA_NS = usec(150)
#: EWMA gain (new sample weight), a conventional 1/8.
EWMA_GAIN = 0.125


class GroBase:
    """Interface the NIC drives: merge() per packet, flush() per poll."""

    #: name used in experiment tables
    name = "gro"
    #: optional telemetry probe (repro.telemetry); None = disabled
    probe = None

    def merge(self, pkt: Packet, now: int) -> None:
        raise NotImplementedError

    def flush(self, now: int) -> List[Segment]:
        raise NotImplementedError

    def earliest_deadline(self) -> Optional[int]:
        """Absolute time of the next hold-timeout, or None."""
        return None

    def held_segment_count(self) -> int:
        return 0

    def held_packet_count(self) -> int:
        """Wire packets merged into segments not yet pushed up the stack.

        Together with ``merged_pkts`` and a count of pushed packets this
        closes the GRO conservation law checked by ``repro.validate``:
        ``merged_pkts == pushed + held`` at any event boundary.
        """
        return 0


class OfficialGro(GroBase):
    """Stock Linux GRO: at most one in-flight segment per flow."""

    name = "official"

    def __init__(self):
        self._current: Dict[int, Segment] = {}
        self._ready: List[Segment] = []
        self.merged_pkts = 0
        self.evicted_segments = 0

    def merge(self, pkt: Packet, now: int) -> None:
        self.merged_pkts += 1
        seg = self._current.get(pkt.flow_id)
        if seg is not None:
            if (
                seg.payload_len + pkt.payload_len <= MAX_TSO_BYTES
                and seg.try_merge(pkt, require_same_flowcell=False)
            ):
                seg.last_merge_at = now
                return
            # Cannot merge: eject the existing segment (this is the small
            # segment flooding path under reordering).
            self._ready.append(seg)
            self.evicted_segments += 1
            if self.probe is not None:
                self.probe.on_evict(pkt.flow_id, seg, now)
        seg = Segment.from_packet(pkt)
        seg.created_at = now
        seg.last_merge_at = now
        self._current[pkt.flow_id] = seg

    def flush(self, now: int) -> List[Segment]:
        out = self._ready
        out.extend(self._current.values())
        self._ready = []
        self._current.clear()
        return out

    def held_segment_count(self) -> int:
        return len(self._ready) + len(self._current)

    def held_packet_count(self) -> int:
        return (sum(s.pkt_count for s in self._ready)
                + sum(s.pkt_count for s in self._current.values()))


class _PrestoFlow:
    """Per-flow receive state of Algorithm 2."""

    __slots__ = ("segments", "exp_seq", "last_flowcell", "ewma_ns")

    def __init__(self, initial_ewma_ns: float):
        self.segments: List[Segment] = []
        self.exp_seq = 0
        self.last_flowcell = 0
        self.ewma_ns = initial_ewma_ns


class PrestoGro(GroBase):
    """Presto's GRO: multi-segment lists + flowcell-aware flush."""

    name = "presto"

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        initial_ewma_ns: int = DEFAULT_INITIAL_EWMA_NS,
        loss_detection: bool = True,
        adaptive: bool = True,
    ):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.initial_ewma_ns = initial_ewma_ns
        #: ablation knob: adaptive=False freezes the EWMA, making the hold
        #: timeout the *static* alpha * initial_ewma the paper argues
        #: against (e.g. DRB's fixed 10 ms)
        self.adaptive = adaptive
        #: ablation knob: with loss_detection=False intra-flowcell gaps are
        #: held like boundary gaps (showing why the discrimination matters)
        self.loss_detection = loss_detection
        self._flows: Dict[int, _PrestoFlow] = {}
        self._ready: List[Segment] = []
        self.merged_pkts = 0
        self.reorder_samples = 0
        self.timeout_fires = 0

    # --- merge path -----------------------------------------------------------

    def merge(self, pkt: Packet, now: int) -> None:
        """Retransmissions flow through the same merge/flush machinery:
        Algorithm 2's flowcell-ID cases (lines 7, 11-13, 20) guarantee
        they are pushed at the next flush rather than held, while still
        advancing ``expSeq``/``lastFlowcell`` so post-loss streams do not
        get stuck behind a never-filling gap."""
        self.merged_pkts += 1
        flow = self._flows.get(pkt.flow_id)
        if flow is None:
            flow = _PrestoFlow(self.initial_ewma_ns)
            self._flows[pkt.flow_id] = flow
        # New segments sit at the head, so in the common case (packets of
        # the newest flowcell arriving back-to-back) merge is O(1).
        for seg in flow.segments:
            if (
                seg.payload_len + pkt.payload_len <= MAX_TSO_BYTES
                and seg.try_merge(pkt, require_same_flowcell=True)
            ):
                seg.last_merge_at = now
                return
        seg = Segment.from_packet(pkt)
        seg.created_at = now
        seg.last_merge_at = now
        flow.segments.insert(0, seg)

    # --- flush path (Algorithm 2) ----------------------------------------------

    def flush(self, now: int) -> List[Segment]:
        out = self._ready
        self._ready = []
        probe = self.probe
        for flow_id, flow in self._flows.items():
            if not flow.segments:
                continue
            flow.segments.sort(key=lambda s: s.seq)
            held: List[Segment] = []
            pushed_from = len(out)
            for seg in flow.segments:
                cell = seg.flowcell_id
                if cell == flow.last_flowcell:
                    # Same path as the in-order stream: any gap is loss;
                    # push regardless (lines 3-5).
                    if self.loss_detection or flow.exp_seq >= seg.seq:
                        if probe is not None and flow.exp_seq < seg.seq:
                            probe.on_loss_detected(flow_id, seg, now)
                        flow.exp_seq = max(flow.exp_seq, seg.end_seq)
                        out.append(seg)
                    elif self._timed_out(seg, flow, now):
                        self.timeout_fires += 1
                        if probe is not None:
                            probe.on_timeout(flow_id, seg, now)
                        flow.exp_seq = max(flow.exp_seq, seg.end_seq)
                        out.append(seg)
                    else:
                        held.append(seg)
                elif cell > flow.last_flowcell:
                    if flow.exp_seq == seg.seq:
                        # Boundary gap resolved in order: if this segment
                        # had been held, its wait is a reordering sample.
                        if seg.created_at < now:
                            self._sample_reorder(
                                flow_id, flow, now - seg.created_at)
                        flow.last_flowcell = cell
                        flow.exp_seq = seg.end_seq
                        out.append(seg)
                    elif flow.exp_seq > seg.seq:
                        # Overlap: a retransmitted first packet of a new
                        # flowcell (lines 11-13).
                        flow.last_flowcell = cell
                        flow.exp_seq = max(flow.exp_seq, seg.end_seq)
                        out.append(seg)
                    elif seg.is_retx:
                        # Never hold a retransmission: TCP must see it at
                        # once.  State untouched — the hole below it is
                        # still outstanding.
                        out.append(seg)
                    elif self._timed_out(seg, flow, now):
                        self.timeout_fires += 1
                        if probe is not None:
                            probe.on_timeout(flow_id, seg, now)
                        # Feed the wait into the EWMA as well: if real
                        # reordering routinely outlives the timeout, the
                        # timeout must grow, else it would keep leaking
                        # reordering while never observing a long sample.
                        self._sample_reorder(flow_id, flow, now - seg.created_at)
                        flow.last_flowcell = cell
                        flow.exp_seq = seg.end_seq
                        out.append(seg)
                    else:
                        held.append(seg)
                else:
                    # Stale flowcell (late retransmission): push (line 20).
                    out.append(seg)
            flow.segments = held
            if probe is not None:
                for seg in out[pushed_from:]:
                    probe.on_push(flow_id, seg, now)
        return out

    def _timed_out(self, seg: Segment, flow: _PrestoFlow, now: int) -> bool:
        if now - seg.created_at < self.alpha * flow.ewma_ns:
            return False
        # beta optimization: merges still landing recently suggest the gap
        # is reordering in flight — keep holding.
        if now - seg.last_merge_at < flow.ewma_ns / DEFAULT_BETA:
            return False
        return True

    def _sample_reorder(self, flow_id: int, flow: _PrestoFlow, wait_ns: int) -> None:
        if wait_ns <= 0:
            return
        self.reorder_samples += 1
        if self.probe is not None:
            self.probe.on_reorder_sample(flow_id, wait_ns)
        if self.adaptive:
            flow.ewma_ns = ((1 - EWMA_GAIN) * flow.ewma_ns
                            + EWMA_GAIN * wait_ns)

    # --- timers ----------------------------------------------------------------

    def earliest_deadline(self) -> Optional[int]:
        deadline = None
        for flow in self._flows.values():
            for seg in flow.segments:
                # ceil: firing a timer 1 ns before _timed_out holds would
                # flush nothing and re-arm at the same instant, forever.
                d = max(
                    seg.created_at + math.ceil(self.alpha * flow.ewma_ns),
                    seg.last_merge_at + math.ceil(flow.ewma_ns / DEFAULT_BETA),
                )
                if deadline is None or d < deadline:
                    deadline = d
        return deadline

    def held_segment_count(self) -> int:
        return len(self._ready) + sum(len(f.segments) for f in self._flows.values())

    def held_packet_count(self) -> int:
        return (sum(s.pkt_count for s in self._ready)
                + sum(s.pkt_count
                      for f in self._flows.values() for s in f.segments))
