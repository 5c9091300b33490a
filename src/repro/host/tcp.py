"""Byte-stream TCP with SACK, fast retransmit/recovery and RTO.

The model matches the behaviours the paper depends on rather than the
full RFC state machine:

* the sender passes up-to-64 KB TSO segments down the stack;
* duplicate ACKs (three, or FACK-style "3 MSS SACKed above una") move
  the sender into fast recovery and halve the window — so reordering
  that leaks past GRO *hurts*, exactly as in S2.2;
* SACK scoreboards drive hole retransmission;
* a 200 ms-floored RTO with exponential backoff reproduces the mice
  timeout pathologies the paper observes for MPTCP (Table 2);
* RTT sampling (timestamp echo, Karn-excluded retransmits) feeds both
  the RTO and CUBIC.

Connections are unidirectional data + reverse pure-ACKs; applications
build RPCs out of two flows (see :mod:`repro.host.app`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.host.cc import make_cc
from repro.host.ranges import RangeSet
from repro.net.packet import ACK, DATA, Segment, make_ack
from repro.sim.engine import Event, Simulator
from repro.units import MAX_TSO_BYTES, MB, msec, seconds

OPEN = "open"
RECOVERY = "recovery"
LOSS = "loss"


@dataclass
class TcpConfig:
    """Knobs shared by all connections of an experiment."""

    mss: int = 1448
    init_cwnd_pkts: int = 10
    rcv_wnd: int = 1 * MB
    max_tso: int = MAX_TSO_BYTES
    cc_name: str = "cubic"
    dupack_thresh: int = 3
    min_rto_ns: int = msec(200)
    max_rto_ns: int = seconds(2)
    initial_rto_ns: int = msec(200)
    #: FACK-style early trigger: enter recovery when this many MSS are
    #: SACKed above snd_una (tcp_fack=1 in the paper's settings)
    fack_bytes_thresh_mss: int = 3


class TcpSender:
    """Send half of one flow, living on the source host."""

    def __init__(
        self,
        sim: Simulator,
        host,
        flow_id: int,
        dst_host: int,
        cfg: TcpConfig,
        on_complete: Optional[Callable[["TcpSender"], None]] = None,
        cc=None,
    ):
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.dst_host = dst_host
        self.cfg = cfg
        self.on_complete = on_complete
        self.cc = cc if cc is not None else make_cc(cfg.cc_name, cfg.mss, cfg.init_cwnd_pkts)

        self.snd_una = 0
        self.snd_nxt = 0
        self.app_limit = 0
        self.unbounded = False
        self.state = OPEN
        self.dup_acks = 0
        self.recover_seq = 0
        self.retx_high = 0
        self.sacked = RangeSet()

        self.srtt_ns: Optional[float] = None
        self.rttvar_ns = 0.0
        self.rto_ns = cfg.initial_rto_ns
        self._rto_event: Optional[Event] = None
        self._backoff = 1

        #: PRR (RFC 6937) send budget during fast recovery: grows with
        #: delivered bytes, so retransmissions are paced by the ACK clock
        #: instead of bursting a whole presumed-lost window at line rate.
        self._prr_quota = 0.0
        #: FACK point when we last emitted a retransmission: if SACKs later
        #: advance well beyond it while snd_una is still stuck, the
        #: retransmission itself died (Linux tcp_mark_lost_retrans) and we
        #: may re-send it without waiting for the RTO.
        self._fack_at_last_retx = 0
        self._recovery_started = 0

        self.start_time: Optional[int] = None
        self.complete_time: Optional[int] = None
        self.completed = False
        self.bytes_retx = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    # --- application interface ----------------------------------------------

    def write(self, nbytes: int) -> None:
        """Append ``nbytes`` to the stream and try to send."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive: {nbytes}")
        if self.start_time is None:
            self.start_time = self.sim.now
        self.app_limit += nbytes
        self.completed = False
        self._send_window()

    def set_unbounded(self) -> None:
        """Endless data source (nuttcp-style elephant)."""
        if self.start_time is None:
            self.start_time = self.sim.now
        self.unbounded = True
        self._send_window()

    @property
    def fct_ns(self) -> Optional[int]:
        if self.start_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.start_time

    # --- sending ---------------------------------------------------------------

    def _pipe(self) -> int:
        """Bytes believed to be in flight.

        Outside recovery this is flight minus SACKed bytes.  During
        recovery, un-SACKed bytes below the loss boundary are marked
        *lost* and leave the pipe (FACK semantics — the paper runs with
        ``tcp_fack=1``; RFC 6675 pipe) or the window wedges shut after a
        multi-packet loss and progress waits on timeouts:

        * LOSS (post-RTO): the boundary is ``recover_seq`` — everything
          outstanding at the timeout is presumed lost;
        * RECOVERY (fast retransmit): the boundary is the highest SACKed
          byte (the FACK point).

        Bytes we have retransmitted this episode ([una, retx_high)) are
        back in flight unless SACKed.
        """
        if self.state == OPEN:
            return (self.snd_nxt - self.snd_una) - self.sacked.total_bytes()
        if self.state == LOSS:
            boundary = self.recover_seq
        else:
            boundary = max(self.snd_una, self.sacked.max_end())
        resent_out = (self.retx_high - self.snd_una) - self.sacked.covered_bytes(
            self.snd_una, self.retx_high
        )
        above = (self.snd_nxt - boundary) - self.sacked.covered_bytes(
            boundary, self.snd_nxt
        )
        return max(0, resent_out) + max(0, above)

    def _emit(self, seq: int, size: int, is_retx: bool) -> None:
        seg = Segment(
            flow_id=self.flow_id,
            src_host=self.host.host_id,
            dst_host=self.dst_host,
            kind=DATA,
            seq=seq,
            end_seq=seq + size,
            pkt_count=(size + self.cfg.mss - 1) // self.cfg.mss,
            is_retx=is_retx,
            ts=0 if is_retx else self.sim.now,
        )
        if is_retx:
            self.bytes_retx += size
        self.host.send_segment(seg)

    def _send_window(self) -> None:
        cfg = self.cfg
        cwnd = min(self.cc.cwnd, cfg.rcv_wnd)
        if self.state != OPEN:
            self._send_retransmissions(cwnd)
        # new data
        while True:
            if self.unbounded:
                avail = cfg.max_tso
            else:
                avail = self.app_limit - self.snd_nxt
            if avail <= 0:
                break
            space = int(cwnd) - self._pipe()
            if space <= 0:
                break
            if space < cfg.mss and avail > space:
                break  # avoid silly-window tinygrams
            if not self.host.tx_ok(self.flow_id):
                # TSQ: the egress queue already holds our share; resume
                # from on_tx_space() when it drains.
                self.host.tsq_block(self)
                break
            size = min(cfg.max_tso, avail, space)
            if self.state == RECOVERY:
                size = min(size, int(self._prr_quota))
                if size <= 0:
                    break
                self._prr_quota -= size
            self._emit(self.snd_nxt, size, is_retx=False)
            self.snd_nxt += size
        self._arm_rto()

    def on_tx_space(self) -> None:
        """NIC egress drained below the TSQ mark: try to send again."""
        self._send_window()

    def _send_retransmissions(self, cwnd: float) -> None:
        """Fill presumed-lost holes we have not resent this episode.

        After a timeout everything up to ``recover_seq`` is fair game; in
        fast recovery only holes below the FACK point are presumed lost
        (data between the FACK point and ``recover_seq`` is still in
        flight and must not be retransmitted speculatively).
        """
        if self.state == LOSS:
            limit = self.recover_seq
        else:
            limit = min(self.recover_seq, max(self.snd_una, self.sacked.max_end()))
        first = True
        while self._pipe() < cwnd:
            floor = max(self.snd_una, self.retx_high)
            if floor >= limit:
                break
            gap = self.sacked.first_gap(floor, limit)
            if gap is None or gap[0] >= limit:
                break
            if not first and not self.host.tx_ok(self.flow_id):
                # Retransmissions traverse the qdisc too (TSQ): blasting a
                # whole window of presumed-lost bytes at line rate just
                # re-drops them.  The head retransmission always goes out
                # so recovery cannot deadlock.
                self.host.tsq_block(self)
                break
            start, end = gap
            size = min(end - start, self.cfg.max_tso)
            if self.state == RECOVERY and not first:
                size = min(size, int(self._prr_quota))
            if size <= 0:
                break
            self._emit(start, size, is_retx=True)
            if self.state == RECOVERY:
                self._prr_quota = max(0.0, self._prr_quota - size)
            self.retx_high = start + size
            self._fack_at_last_retx = max(self.snd_una, self.sacked.max_end())
            first = False

    # --- ACK processing ----------------------------------------------------------

    def on_ack_packet(self, pkt) -> None:
        now = self.sim.now
        delivered_before = self.snd_una + self.sacked.total_bytes()
        new_sack = False
        for s, e in pkt.sack:
            if e > self.snd_una and not self.sacked.contains(max(s, self.snd_una), e):
                new_sack = True
            self.sacked.add(s, e)
        if pkt.ts_echo:
            self._sample_rtt(now - pkt.ts_echo)
        ack = pkt.ack_seq
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self.snd_una = ack
            self.sacked.prune_below(ack)
            self.dup_acks = 0
            self._backoff = 1
            rtt = int(self.srtt_ns) if self.srtt_ns else self.rto_ns
            if self.state == OPEN:
                self.cc.on_ack(acked, now, rtt)
            elif self.state == LOSS:
                # Slow-start restart after a timeout: the window must
                # regrow per ACK or recovery trickles one MSS per RTT.
                self.cc.on_ack(acked, now, rtt)
                if ack >= self.recover_seq:
                    self.state = OPEN
                else:
                    self.retx_high = max(self.retx_high, self.snd_una)
            else:  # RECOVERY
                if ack >= self.recover_seq:
                    self.state = OPEN
                    self.cc.on_exit_recovery(now)
                    probe = self.host.tcp_probe
                    if probe is not None:
                        probe.on_recovery_end(
                            self.flow_id, self._recovery_started, now)
                else:
                    # partial ACK: keep retransmitting holes
                    self.retx_high = max(self.retx_high, self.snd_una)
            # clamp: nothing beyond the receive window is ever usable
            self.cc.cwnd = min(self.cc.cwnd, float(self.cfg.rcv_wnd))
            self._check_complete()
            self._arm_rto(restart=True)
        elif self.snd_nxt > self.snd_una:
            self.dup_acks += 1
            if self.state == OPEN:
                fack_trigger = (
                    self.sacked.total_bytes()
                    >= self.cfg.fack_bytes_thresh_mss * self.cfg.mss
                )
                # Early Retransmit (RFC 5827 / tcp_early_retrans): small
                # windows cannot raise three dupacks; two suffice when
                # fewer than four segments are outstanding.
                flight = self.snd_nxt - self.snd_una
                early = (
                    self.dup_acks >= 2
                    and new_sack
                    and flight <= 4 * self.cfg.mss
                )
                if (
                    self.dup_acks >= self.cfg.dupack_thresh
                    or (new_sack and fack_trigger)
                    or early
                ):
                    self._enter_recovery()
        if self.state == RECOVERY:
            delivered_now = self.snd_una + self.sacked.total_bytes()
            self._prr_quota += 0.7 * max(0, delivered_now - delivered_before)
            # PRR-SSRB: when the pipe has collapsed below ssthresh, every
            # arriving ACK is evidence of drainage and grants one MSS.
            if self._pipe() < self.cc.ssthresh:
                self._prr_quota += self.cfg.mss
            # Lost-retransmission detection: SACK progress well past the
            # FACK point at our last retransmission, with snd_una stuck,
            # proves the retransmission died — walk back and re-send.
            fack = self.sacked.max_end()
            if (
                self.retx_high > self.snd_una
                and fack >= self._fack_at_last_retx + 3 * self.cfg.mss
            ):
                self.retx_high = self.snd_una
                self._fack_at_last_retx = fack
        self._send_window()

    def _enter_recovery(self) -> None:
        self.state = RECOVERY
        self.fast_retransmits += 1
        self.recover_seq = self.snd_nxt
        self.retx_high = self.snd_una
        self._prr_quota = float(self.cfg.mss)  # head retransmission
        self._recovery_started = self.sim.now
        flight = self.snd_nxt - self.snd_una
        self.cc.on_enter_recovery(flight, self.sim.now)
        probe = self.host.tcp_probe
        if probe is not None:
            probe.on_fast_retransmit(self.flow_id, self.snd_una, self.snd_nxt)

    # --- RTO ----------------------------------------------------------------------

    def _sample_rtt(self, sample_ns: int) -> None:
        if sample_ns <= 0:
            return
        if self.srtt_ns is None:
            self.srtt_ns = float(sample_ns)
            self.rttvar_ns = sample_ns / 2.0
        else:
            err = abs(self.srtt_ns - sample_ns)
            self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * err
            self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * sample_ns
        rto = self.srtt_ns + 4.0 * self.rttvar_ns
        self.rto_ns = int(min(max(rto, self.cfg.min_rto_ns), self.cfg.max_rto_ns))

    def _rto_jitter(self) -> float:
        """Deterministic per-flow jitter factor in [1.0, 1.1).

        Identical flows arming identical timers phase-lock on drop-tail
        queues (global synchronization); real kernels decorrelate via
        timer-wheel granularity.  A cheap hash of (flow, timeout count)
        keeps runs reproducible while breaking lockstep.
        """
        x = (self.flow_id * 0x9E3779B1 + self.timeouts * 0x85EBCA77) & 0xFFFFFFFF
        x ^= x >> 16
        x = (x * 0x45D9F3B) & 0xFFFFFFFF
        x ^= x >> 16
        return 1.0 + (x & 0xFFFF) / 0xFFFF * 0.1

    def _arm_rto(self, restart: bool = False) -> None:
        outstanding = self.snd_nxt > self.snd_una
        if not outstanding:
            self._cancel_rto()
            return
        if self._rto_event is not None:
            if not restart:
                return
            self._rto_event.cancel()
        delay = min(self.rto_ns * self._backoff, self.cfg.max_rto_ns)
        delay = int(delay * self._rto_jitter())
        self._rto_event = self.sim.timer(delay, self._rto_fire)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _rto_fire(self) -> None:
        self._rto_event = None
        if self.snd_una >= self.snd_nxt:
            return
        self.timeouts += 1
        self._backoff = min(self._backoff * 2, 64)
        probe = self.host.tcp_probe
        if probe is not None:
            probe.on_rto(self.flow_id, self.snd_una, self.snd_nxt, self.rto_ns)
        self.state = LOSS
        self.recover_seq = self.snd_nxt
        self.retx_high = self.snd_una
        flight = self.snd_nxt - self.snd_una
        self.cc.on_timeout(flight, self.sim.now)
        self.dup_acks = 0
        # retransmit the first hole (one MSS, slow-start restart)
        gap = self.sacked.first_gap(self.snd_una, self.recover_seq)
        if gap is not None and gap[1] > gap[0]:
            size = min(gap[1] - gap[0], self.cfg.mss)
            self._emit(gap[0], size, is_retx=True)
            self.retx_high = gap[0] + size
        self._arm_rto()

    def _check_complete(self) -> None:
        if (
            not self.completed
            and not self.unbounded
            and self.app_limit > 0
            and self.snd_una >= self.app_limit
        ):
            self.completed = True
            self.complete_time = self.sim.now
            self._cancel_rto()
            if self.on_complete is not None:
                self.on_complete(self)


class TcpReceiver:
    """Receive half of one flow, living on the destination host."""

    def __init__(
        self,
        sim: Simulator,
        host,
        flow_id: int,
        peer_host: int,
        cfg: TcpConfig,
        on_data: Optional[Callable[[int], None]] = None,
    ):
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer_host = peer_host
        self.cfg = cfg
        self.on_data = on_data
        self.rcv_nxt = 0
        self.ooo = RangeSet()
        self.delivered_bytes = 0
        self.segments_received = 0
        self.dup_segments = 0
        self.acks_sent = 0

    def on_segment(self, seg: Segment) -> None:
        self.segments_received += 1
        advanced = 0
        if seg.end_seq <= self.rcv_nxt:
            self.dup_segments += 1
        else:
            self.ooo.add(max(seg.seq, self.rcv_nxt), seg.end_seq)
            first = next(iter(self.ooo), None)
            if first is not None and first[0] <= self.rcv_nxt:
                advanced = first[1] - self.rcv_nxt
                self.rcv_nxt = first[1]
                self.ooo.prune_below(self.rcv_nxt)
        if advanced:
            self.delivered_bytes += advanced
            if self.on_data is not None:
                self.on_data(self.delivered_bytes)
        self._send_ack(seg.ts)

    def _send_ack(self, ts_echo: int) -> None:
        self.acks_sent += 1
        ack = make_ack(
            flow_id=self.flow_id,
            src_host=self.host.host_id,
            dst_host=self.peer_host,
            ack_seq=self.rcv_nxt,
            sack=self.ooo.as_tuples(3),
            ts_echo=ts_echo,
        )
        self.host.send_segment(ack)
