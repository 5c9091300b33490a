"""Always-on, whole-system invariants any :class:`Testbed` run can check.

Grown out of the chaos soak (:mod:`repro.faults`): these are
conservation laws, not per-feature assertions — *any* bug in the
datapath (a queue flushed without counting, a forwarding loop, a
schedule the controller forgot to push, a GRO segment stranded forever)
shows up as a violated invariant even when no test anticipated that
specific bug.  ``TestbedConfig(validate=True)`` arms them for a plain
experiment; the soak keeps calling :func:`check_invariants` directly.

1. **Quiesce** — once all bounded transfers are done and the topology
   restored, the event heap must drain: nothing may keep rescheduling
   itself forever.
2. **No stuck flows** — every bounded transfer completes (TCP's
   retransmit machinery must survive arbitrary restored fault
   schedules).
3. **Byte conservation** — every wire byte a host NIC transmitted is
   either received by a host NIC (delivered or ring-dropped) or shows
   up in exactly one drop counter along the path:

   ``nic_tx = nic_rx + nic_ring_drop + queue_drops + wire_drops
   + no_route_drops + ttl_drops``  (all in wire bytes)

   Mid-run (``allow_in_flight=True``) the difference must be the
   non-negative number of bytes still sitting in queues and on wires.
4. **Schedule consistency** — after the control plane's last reaction,
   every vSwitch's label schedule equals what the controller would
   compute from the final topology (no stale weighted schedules, no
   missed recovery).
5. **Flowcell-ID monotonicity** (:class:`ValidationProbe`) — per
   (sender, flow), the flowcell ID stamped on outgoing data segments
   never decreases and never skips (paper Algorithm 1; retransmissions
   ride the current cell).
6. **GRO no-data-loss** (:class:`ValidationProbe`) — every wire packet
   a receiver's GRO merged is either pushed up the stack or still held;
   once the sim quiesces nothing may remain held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class InvariantViolation(AssertionError):
    """Raised by :meth:`Testbed.run` when an armed invariant fails."""


@dataclass
class InvariantReport:
    """Outcome of :func:`check_invariants`: violations + the evidence."""

    violations: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def byte_ledger(tb) -> Dict[str, int]:
    """The conservation ledger, in wire bytes."""
    ledger = {
        "nic_tx": sum(h.nic.tx_bytes for h in tb.hosts),
        "nic_rx": sum(h.nic.rx_bytes for h in tb.hosts),
        "nic_ring_drop": sum(h.nic.ring_drop_bytes for h in tb.hosts),
        "queue_drop": 0,
        "wire_drop": 0,
        "no_route_drop": sum(
            sw.no_route_drop_bytes for sw in tb.topo.switches.values()),
        "ttl_drop": sum(
            sw.ttl_drop_bytes for sw in tb.topo.switches.values()),
    }
    for port in tb.ports():
        ledger["queue_drop"] += port.queue.dropped_bytes
        ledger["wire_drop"] += port.wire_drop_bytes
    ledger["accounted"] = (
        ledger["nic_rx"] + ledger["nic_ring_drop"] + ledger["queue_drop"]
        + ledger["wire_drop"] + ledger["no_route_drop"] + ledger["ttl_drop"])
    return ledger


class ValidationProbe:
    """Online observers for the invariants that need in-flight evidence.

    Wraps each host NIC's ``tx_segment`` (labelled segments entering
    TSO) and ``on_segment`` (GRO-flushed segments entering TCP) with
    pass-through observers.  Observation draws no randomness, schedules
    no events and mutates no packet state, so an armed run's
    packet-level behaviour is identical to an unarmed one.
    """

    #: keep reports readable under a pathological datapath
    MAX_RECORDED = 20

    def __init__(self, tb):
        self.violations: List[str] = []
        self._suppressed = 0
        #: (host_id, flow_id) -> last flowcell ID stamped
        self._last_cell: Dict[Tuple[int, int], int] = {}
        #: host_id -> wire packets GRO pushed up the stack
        self._pushed_pkts: Dict[int, int] = {}
        self.segments_labelled = 0
        for host in tb.hosts:
            self._attach(host)

    # --- wiring -----------------------------------------------------------

    def _attach(self, host) -> None:
        nic = host.nic
        host_id = host.host_id
        inner_tx = nic.tx_segment

        def tx_segment(seg, _inner=inner_tx, _hid=host_id):
            self._observe_tx(_hid, seg)
            _inner(seg)

        nic.tx_segment = tx_segment
        inner_up = nic.on_segment

        def on_segment(seg, _inner=inner_up, _hid=host_id):
            self._observe_push(_hid, seg)
            _inner(seg)

        nic.on_segment = on_segment

    def _record(self, message: str) -> None:
        if len(self.violations) < self.MAX_RECORDED:
            self.violations.append(message)
        else:
            self._suppressed += 1

    # --- observers --------------------------------------------------------

    def _observe_tx(self, host_id: int, seg) -> None:
        if seg.end_seq <= seg.seq:  # ACKs / zero-payload control segments
            return
        self.segments_labelled += 1
        key = (host_id, seg.flow_id)
        prev = self._last_cell.get(key, 0)
        cell = seg.flowcell_id
        if cell < prev:
            self._record(
                f"flowcell ID went backwards at host {host_id} flow "
                f"{seg.flow_id}: {prev} -> {cell}")
        elif cell > prev + 1:
            self._record(
                f"flowcell ID skipped at host {host_id} flow "
                f"{seg.flow_id}: {prev} -> {cell}")
        self._last_cell[key] = cell

    def _observe_push(self, host_id: int, seg) -> None:
        self._pushed_pkts[host_id] = (
            self._pushed_pkts.get(host_id, 0) + seg.pkt_count)

    # --- checking ---------------------------------------------------------

    def check(self, tb, report: InvariantReport,
              require_drained: bool) -> None:
        """Fold the online evidence into ``report``.

        GRO packet conservation (``merged == pushed + held``) holds at
        any event boundary; ``require_drained`` additionally demands
        nothing is still held (true once the sim quiesced).
        """
        for message in self.violations:
            report.violations.append(message)
        if self._suppressed:
            report.violations.append(
                f"... and {self._suppressed} more flowcell violations")
        merged_total = pushed_total = held_total = 0
        for host in tb.hosts:
            merged = getattr(host.gro, "merged_pkts", None)
            if merged is None:  # a custom GRO without counters
                continue
            held = host.gro.held_packet_count()
            pushed = self._pushed_pkts.get(host.host_id, 0)
            merged_total += merged
            pushed_total += pushed
            held_total += held
            if merged != pushed + held:
                report.violations.append(
                    f"GRO packet conservation violated at host "
                    f"{host.host_id}: merged={merged} != pushed={pushed} "
                    f"+ held={held}")
            if require_drained and held:
                report.violations.append(
                    f"GRO at host {host.host_id} still holding {held} "
                    f"packet(s) after quiesce")
        report.stats["segments_labelled"] = self.segments_labelled
        report.stats["flowcell_violations"] = (
            len(self.violations) + self._suppressed)
        report.stats["gro_pkts_merged"] = merged_total
        report.stats["gro_pkts_pushed"] = pushed_total
        report.stats["gro_pkts_held"] = held_total


def check_invariants(
    tb,
    transfers=(),
    check_quiesced: bool = True,
    check_schedules: bool = True,
    probe: Optional[ValidationProbe] = None,
    allow_in_flight: bool = False,
) -> InvariantReport:
    """Run all invariants against a testbed.

    ``transfers`` are the run's *bounded* transfers (objects with the
    :class:`~repro.host.transfer.Transfer` interface plus ``fct_ns``).
    ``check_schedules`` should be False when the control plane has a
    reaction still pending at the horizon (then schedules legitimately
    lag the topology).  ``allow_in_flight=True`` relaxes byte
    conservation to "nothing is double-counted" for mid-run checks,
    when queued/serializing bytes are legitimately unaccounted.
    ``probe`` folds a :class:`ValidationProbe`'s online evidence in.
    """
    report = InvariantReport()

    # 1. quiesce
    pending = tb.sim.peek_time()
    report.stats["quiesced"] = int(pending is None)
    if check_quiesced and pending is not None:
        report.violations.append(
            f"sim did not quiesce: event still pending at t={pending}")

    # 2. no stuck flows
    stuck = [t for t in transfers if getattr(t, "fct_ns", None) is None]
    report.stats["flows_total"] = len(list(transfers))
    report.stats["flows_stuck"] = len(stuck)
    for t in stuck:
        report.violations.append(
            f"stuck transfer: flows {t.flow_ids()} delivered "
            f"{t.delivered_bytes()} bytes, never completed")

    # 3. byte conservation
    ledger = byte_ledger(tb)
    report.stats.update(ledger)
    in_flight = ledger["nic_tx"] - ledger["accounted"]
    if allow_in_flight:
        report.stats["in_flight"] = in_flight
        if in_flight < 0:
            report.violations.append(
                "byte conservation violated: more bytes accounted than "
                f"transmitted (nic_tx={ledger['nic_tx']}, "
                f"accounted={ledger['accounted']}, ledger={ledger})")
    elif in_flight != 0:
        report.violations.append(
            "byte conservation violated: "
            f"nic_tx={ledger['nic_tx']} != accounted={ledger['accounted']} "
            f"(delta={in_flight}, ledger={ledger})")

    # 4. schedules consistent with the final topology
    if check_schedules:
        mismatches = 0
        for lb in tb.controller._vswitches:
            for dst_host in tb.topo.hosts:
                if dst_host == lb.host_id:
                    continue
                expected = tb.controller.schedule_for(lb.host_id, dst_host)
                if lb.labels_for(dst_host) != expected:
                    mismatches += 1
                    if mismatches <= 3:  # keep the report readable
                        report.violations.append(
                            f"stale schedule at host {lb.host_id} -> "
                            f"{dst_host}: {lb.labels_for(dst_host)} != "
                            f"{expected}")
        if mismatches > 3:
            report.violations.append(
                f"... and {mismatches - 3} more stale schedules")
        report.stats["schedule_mismatches"] = mismatches

    # 5+6. online probe evidence (flowcell monotonicity, GRO conservation)
    if probe is not None:
        probe.check(tb, report, require_drained=pending is None)

    return report


def bounded_transfers(apps) -> List:
    """The subset of a run's apps whose completion is checkable: they
    expose ``fct_ns`` and were opened with a byte bound."""
    return [
        app for app in apps
        if getattr(app, "size_bytes", None) is not None
        and hasattr(app, "fct_ns")
    ]


def runtime_check(tb) -> InvariantReport:
    """The always-on subset, with flags derived from live testbed state.

    Safe to call after *any* ``Testbed.run`` horizon: quiesce is never
    demanded (the run may continue), stuck flows are only judged once
    the heap drained, byte conservation tolerates in-flight bytes
    mid-run, and schedule consistency is only asserted when every link
    is up and the control plane (if any) has settled.
    """
    quiesced = tb.sim.peek_time() is None
    control = tb.control_plane
    all_up = all(link.up for link in tb.topo.links)
    return check_invariants(
        tb,
        bounded_transfers(tb.apps) if quiesced else (),
        check_quiesced=False,
        check_schedules=all_up and (control is None or control.settled()),
        probe=getattr(tb, "validation", None),
        allow_in_flight=not quiesced,
    )
