"""The fluid engine: transfers as max-min fluid demands over real paths.

Instead of queueing packets, the engine keeps every active transfer as
a set of *pipes* — (wire flow id, LB label, resolved port path, byte
fraction) — and recomputes a weighted max-min fair allocation
(:func:`repro.fluid.allocator.max_min_allocation`) whenever the flow
population or the topology changes: transfer arrival, transfer
completion, link up/down/rate events, and controller schedule pushes.
Between reallocations rates are constant, so delivered bytes are exact
integrals and the next completion time is a single division — one sim
event per transition instead of one per packet.

Fidelity anchors (what stays *identical* to the packet engine):

* **Path selection.**  Flows are sliced into the same 64 KB flowcells
  and each cell is labelled by the source host's own
  :class:`~repro.lb.base.VSwitch` — the same object, policy and call
  (``label``: plain values in, a label out, no stand-in packet) a
  packet host makes per segment — so Presto's Algorithm-1 rotation,
  ECMP's per-flow pick, flowlet gaps and per-packet spraying all draw
  from the same RNG streams and produce the same label sequences.
* **Forwarding.**  Each pipe's path is found by asking every switch on
  the way for its ``next_hop`` — the one statement of the pipeline
  ``Switch.receive`` runs: exact match, ECMP groups (including
  per-(flow, cell) leaf hashing) and fast failover with its hardware
  latency — so shadow-MAC trees, backup paths and blackhole windows
  behave exactly as a packet would see them.  A walk is kept until the
  forwarding state can have changed under it: after set-up that
  happens only through ``Link.set_down/set_up/set_rate`` observers,
  the close of a failover detection window, or a schedule push (which
  re-slices) — see ``FluidEngine._fwd_epoch``.
* **Fairness.**  Pipe weights are byte *fractions* of their transfer
  (they sum to 1 per transfer), so a Presto elephant sprayed over four
  trees competes at a shared access link as one flow, not four — the
  invariant that keeps mice-vs-elephant FCT ordering truthful.

What is approximated away: queueing delay, slow start, retransmission
and reordering.  ``python -m repro.runner run compare`` quantifies the
resulting divergence per metric.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.fluid.allocator import max_min_allocation
from repro.host.transfer import Transfer
from repro.net.switch import Switch
from repro.units import SEC

#: residual bytes under which a bounded transfer counts as finished
#: (floats only; delivered ints are forced exact at completion)
_DONE_EPS = 1e-6

#: cap on LB probe cells per slicing pass; transfers larger than
#: ``cap * flowcell_bytes`` are sampled at coarser equal-size cells
#: (label *shares* converge with ~hundreds of samples; exact per-cell
#: boundaries only matter for small transfers, which stay exact)
MAX_SLICE_CELLS = 512

#: probe cells per label for unbounded (run-length) transfers
UNBOUNDED_CELLS_PER_LABEL = 8

#: "no walk kept" in a slice's memo (``None`` is a result: blackholed)
_UNWALKED = object()


class _Pipe:
    """One (wire flow, label, path) strand of a transfer's fluid."""

    __slots__ = ("flow_id", "dst_mac", "flowcell_id", "frac", "path",
                 "epoch", "rate", "delivered")

    def __init__(self, flow_id: int, dst_mac: int, flowcell_id: int,
                 path: Optional[Tuple[str, ...]], epoch: int):
        self.flow_id = flow_id
        self.dst_mac = dst_mac          # label as originally selected
        self.flowcell_id = flowcell_id  # representative cell (ECMP hash)
        self.frac = 0.0                 # byte fraction of the transfer
        self.path = path                # port names, or None (blackholed)
        self.epoch = epoch              # forwarding epoch `path` was walked in
        self.rate = 0.0                 # bytes/ns, set by realloc
        self.delivered = 0.0            # bytes carried by this pipe


class FluidTransfer(Transfer):
    """A transfer modeled as fluid; a :class:`Transfer`, so every
    collector works unchanged."""

    def __init__(self, engine: "FluidEngine", src: int, dst: int, lb,
                 wire_flow_ids: Sequence[int],
                 size_bytes: Optional[int], start_ns: int,
                 on_complete: Optional[Callable]):
        self.engine = engine
        self.src = src
        self.dst = dst
        self.lb = lb
        self._flow_ids = tuple(wire_flow_ids)
        self.size_bytes = size_bytes
        self.start_ns = start_ns
        self.on_complete = on_complete
        self.pipes: List[_Pipe] = []
        #: bytes drained from retired pipe generations, per wire flow
        self._retired: Dict[int, float] = {}
        self.remaining: Optional[float] = (
            None if size_bytes is None else float(size_bytes))
        self.done = False
        self.fct_ns: Optional[int] = None
        self._final_by_flow: Optional[Dict[int, int]] = None

    # --- Transfer protocol ------------------------------------------------

    def flow_ids(self) -> Tuple[int, ...]:
        return self._flow_ids

    def delivered_by_flow(self) -> Dict[int, int]:
        if self._final_by_flow is not None:
            return dict(self._final_by_flow)
        self.engine.sync()
        out = {f: self._retired.get(f, 0.0) for f in self._flow_ids}
        for pipe in self.pipes:
            out[pipe.flow_id] = out.get(pipe.flow_id, 0.0) + pipe.delivered
        return {f: int(v) for f, v in out.items()}

    # --- internals --------------------------------------------------------

    def _total_rate(self) -> float:
        total = 0.0
        for pipe in self.pipes:
            total += pipe.rate
        return total

    def _retire_pipes(self) -> None:
        """Fold current pipes' delivered bytes into the retired ledger
        (before re-slicing onto a new schedule)."""
        for pipe in self.pipes:
            self._retired[pipe.flow_id] = (
                self._retired.get(pipe.flow_id, 0.0) + pipe.delivered)
        self.pipes = []

    def _finalize(self) -> None:
        """Force integer delivered counts to sum exactly to the size:
        floor each flow's float, then hand out the leftover bytes in
        sorted flow-id order (deterministic)."""
        assert self.size_bytes is not None
        self._retire_pipes()
        floors = {f: int(self._retired.get(f, 0.0)) for f in self._flow_ids}
        deficit = self.size_bytes - sum(floors.values())
        for flow_id in sorted(floors):
            if deficit <= 0:
                break
            give = min(deficit, self.size_bytes - floors[flow_id])
            floors[flow_id] += give
            deficit -= give
        self._final_by_flow = floors


class FluidEngine:
    """Event-driven fluid allocator over a built topology.

    One engine per flow-fidelity testbed
    (:class:`~repro.fluid.testbed.FluidPlane`).  The plane opens
    transfers; the engine owns advancement, reallocation
    and completion.  All port bookkeeping is keyed by *port name*
    (strings), never Port objects, so every reduction in the allocator
    sorts deterministically across processes.
    """

    def __init__(self, sim, topo, flowcell_bytes: int,
                 failover_latency_ns: int = 0, validate: bool = False):
        self.sim = sim
        self.topo = topo
        self.flowcell_bytes = int(flowcell_bytes)
        self.failover_latency_ns = int(failover_latency_ns)
        self.validate = validate
        self.transfers: List[FluidTransfer] = []
        self._active: List[FluidTransfer] = []
        self._last_ns = 0
        self._ports: Dict[str, object] = {}  # port name -> Port
        #: bytes/ns of every port in ``_ports``: the allocator's capacities
        self._capacity: Dict[str, float] = {}
        self._leg_bytes: Dict[str, float] = {}
        self._realloc_times: set = set()
        self._reslice_pending = False
        self._watching = False
        #: Generation of the fabric's forwarding state.  What a walk of
        #: the switch tables returns can change only when a link changes
        #: state (``Link.on_state_change``) or a failover detection
        #: window closes, so both bump it and a pipe's path is walked
        #: again only if it dates from an older epoch.  (Schedule pushes
        #: re-slice, which walks everything afresh.)
        self._fwd_epoch = 0
        #: times at which a detection window opened by a link change
        #: closes and :class:`FailoverGroup` backups engage, ascending
        self._window_closes: Deque[int] = deque()
        #: whether the last :meth:`resolve_path` walk consulted a
        #: per-flowcell ECMP group (its result holds for that cell only)
        self._cell_hashed = False
        #: the one pending completion: every reallocation re-predicts
        #: every transfer, so only the earliest prediction can ever fire
        self._completion_event = None
        #: counters surfaced via telemetry and the compare report
        self.reallocs = 0
        self.slices = 0
        self.violations: List[str] = []

    # --- wiring -----------------------------------------------------------

    def watch_links(self) -> None:
        """Subscribe to every link's state changes (call after all hosts
        are attached).  A change reallocates immediately — dead pipes go
        to zero — and again once the hardware failover latency elapses,
        when :class:`FailoverGroup` starts rerouting."""
        if self._watching:
            return
        self._watching = True
        for link in self.topo.links:
            link.on_state_change.append(self._on_link_change)

    def _on_link_change(self, link) -> None:
        self._fwd_epoch += 1
        for port in link.ports:
            if port.name in self._capacity:
                self._capacity[port.name] = link.rate_bps / (8.0 * SEC)
        self.request_realloc(0)
        if self.failover_latency_ns > 0:
            self._window_closes.append(self.sim.now + self.failover_latency_ns)
            self.request_realloc(self.failover_latency_ns)

    def schedules_changed(self) -> None:
        """A controller pushed new LB schedules: re-slice every active
        transfer's remaining bytes over the new labels at the next
        reallocation."""
        self._reslice_pending = True
        self.request_realloc(0)

    def request_realloc(self, delay_ns: int = 0) -> None:
        """Schedule a reallocation ``delay_ns`` from now (coalesced per
        target timestamp)."""
        at = self.sim.now + delay_ns
        if at in self._realloc_times:
            return
        self._realloc_times.add(at)
        self.sim.schedule(delay_ns, self._run_realloc, at)

    # --- transfers --------------------------------------------------------

    def open_transfer(self, src: int, dst: int, lb,
                      wire_flow_ids: Sequence[int],
                      size_bytes: Optional[int] = None,
                      start_ns: int = 0,
                      on_complete: Optional[Callable] = None) -> FluidTransfer:
        """Register a transfer; it becomes fluid ``start_ns`` from now
        (a delay, as every packet-level app takes it)."""
        if size_bytes is not None and size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive: {size_bytes}")
        transfer = FluidTransfer(self, src, dst, lb, wire_flow_ids,
                                 size_bytes, start_ns, on_complete)
        self.transfers.append(transfer)
        self.sim.schedule(start_ns, self._start_transfer, transfer)
        return transfer

    def _start_transfer(self, transfer: FluidTransfer) -> None:
        transfer.start_ns = self.sim.now
        self._slice_transfer(transfer)
        self._active.append(transfer)
        self.request_realloc(0)

    # --- slicing (LB-driven) ----------------------------------------------

    def _slice_transfer(self, transfer: FluidTransfer) -> None:
        """Cut the transfer's (remaining) bytes into flowcells, push each
        through the source host's vSwitch, resolve each cell's path, and
        group cells into pipes by (wire flow, label, path)."""
        self.slices += 1
        transfer._retire_pipes()
        total = (transfer.remaining if transfer.remaining is not None
                 else None)
        per_flow: List[Tuple[int, Optional[float]]] = [
            (f, None if total is None else total / len(transfer._flow_ids))
            for f in transfer._flow_ids]

        cells: List[Tuple[int, int, int, float]] = []  # flow,mac,cell,bytes
        for flow_id, budget in per_flow:
            cells.extend(self._slice_flow(
                transfer.lb, flow_id, transfer.dst, budget))

        grand = 0.0
        for value in sorted(c[3] for c in cells):
            grand += value
        if grand <= 0.0:
            return
        now = self.sim.now
        epoch = self._fwd_epoch
        #: this slice's walks: (flow, label, None) -> path where the walk
        #: never hashed on the cell, (flow, label, cell) -> path where it did
        walked: Dict[Tuple[int, int, Optional[int]], object] = {}
        pipes: Dict[Tuple[int, int, Optional[Tuple[str, ...]]], _Pipe] = {}
        for flow_id, dst_mac, cell_id, nbytes in cells:
            path = walked.get((flow_id, dst_mac, None), _UNWALKED)
            if path is _UNWALKED:
                path = walked.get((flow_id, dst_mac, cell_id), _UNWALKED)
            if path is _UNWALKED:
                path = self.resolve_path(transfer.src, transfer.dst,
                                         flow_id, dst_mac, cell_id, now)
                walked[flow_id, dst_mac,
                       cell_id if self._cell_hashed else None] = path
            key = (flow_id, dst_mac, path)
            pipe = pipes.get(key)
            if pipe is None:
                pipes[key] = pipe = _Pipe(flow_id, dst_mac, cell_id, path,
                                          epoch)
            pipe.frac += nbytes / grand
        transfer.pipes = list(pipes.values())

    def _slice_flow(self, lb, flow_id: int, dst: int,
                    budget: Optional[float]):
        """(flow_id, dst_mac, flowcell_id, bytes) cells for one wire
        flow, labelled by the source host's vSwitch.  The whole slice is
        cut at one ``now``, so a policy that reads the clock (flowlet
        gaps) sees no time pass between its cells."""
        cell = self.flowcell_bytes
        if budget is None:
            n_labels = max(1, len(lb.labels_for(dst)))
            n_cells = n_labels * UNBOUNDED_CELLS_PER_LABEL
            sizes = [float(cell)] * n_cells
        else:
            n_cells = max(1, int(math.ceil(budget / cell)))
            if n_cells > MAX_SLICE_CELLS:
                n_cells = MAX_SLICE_CELLS
                sizes = [budget / n_cells] * n_cells
            else:
                sizes = [float(cell)] * (n_cells - 1)
                sizes.append(budget - cell * (n_cells - 1))
        now = self.sim.now
        out = []
        seq = 0
        for nbytes in sizes:
            payload = int(nbytes) or 1
            seq += payload
            dst_mac, cell_id = lb.label(flow_id, dst, payload, seq, now)
            if not cell_id:  # SPRAY: no packets here, one step per cell
                dst_mac, cell_id = lb.spray(flow_id, dst)
            out.append((flow_id, dst_mac, cell_id, float(nbytes)))
        return out

    # --- forwarding (real switch state) -----------------------------------

    def resolve_path(self, src: int, dst: int, flow_id: int, dst_mac: int,
                     flowcell_id: int, now: int
                     ) -> Optional[Tuple[str, ...]]:
        """Walk the switch tables exactly as ``Switch.receive`` would
        forward a packet carrying this label.  Returns the directional
        port-name path host→…→host, or None if the packet would
        blackhole (down link with no engaged backup, no route, or a
        forwarding loop).

        Between two bumps of ``_fwd_epoch`` the result depends on the
        arguments alone — on ``flowcell_id`` only if ``_cell_hashed``
        comes back set — which is what lets callers keep it."""
        self._cell_hashed = False
        leaf_port = self.topo.host_port.get(src)
        if leaf_port is None:
            return None
        egress = leaf_port.peer_port  # host -> leaf
        if egress is None or not egress.link.up:
            return None
        legs = [egress.name]
        node = self.topo.host_leaf.get(src)
        hops = 0
        while node is not None:
            # (a failover bucket may relabel: dst_mac is handed on)
            out, dst_mac, by_cell = node.next_hop(
                flow_id, dst_mac, flowcell_id, now)
            if by_cell:
                self._cell_hashed = True
            if out is None or not out.link.up:
                return None
            legs.append(out.name)
            self._see_port(out)
            peer = out.peer
            if not isinstance(peer, Switch):
                if getattr(peer, "host_id", None) != dst:
                    return None  # mislabeled: a packet would be ignored
                self._see_port(egress)
                return tuple(legs)
            node = peer
            hops += 1
            if hops > Switch.MAX_HOPS:
                return None
        return None

    def _see_port(self, port) -> None:
        if port.name not in self._ports:
            self._ports[port.name] = port
            self._capacity[port.name] = port.link.rate_bps / (8.0 * SEC)

    # --- advancement ------------------------------------------------------

    def sync(self) -> None:
        """Integrate delivered bytes up to the current sim time (rates
        are piecewise constant, so this is exact)."""
        self._advance(self.sim.now)

    def _advance(self, now: int) -> None:
        dt = now - self._last_ns
        if dt <= 0:
            return
        leg_bytes = self._leg_bytes
        for transfer in self._active:
            total = transfer._total_rate()
            if total <= 0.0:
                continue
            eff = float(dt)
            if transfer.remaining is not None:
                eff = min(eff, transfer.remaining / total)
            if eff <= 0.0:
                continue
            for pipe in transfer.pipes:
                if pipe.rate <= 0.0:
                    continue
                moved = pipe.rate * eff
                pipe.delivered += moved
                if pipe.path is not None:
                    for leg in pipe.path:
                        leg_bytes[leg] = leg_bytes.get(leg, 0.0) + moved
            if transfer.remaining is not None:
                transfer.remaining = max(0.0, transfer.remaining - total * eff)
        self._last_ns = now

    # --- reallocation -----------------------------------------------------

    def _run_realloc(self, at: int) -> None:
        self._realloc_times.discard(at)
        self._realloc()

    def _completion_due(self) -> None:
        self._completion_event = None
        self._realloc()

    def _realloc(self) -> None:
        now = self.sim.now
        self._advance(now)
        self._complete_drained(now)
        # Decided by the clock, not by which event got here first: an
        # arrival at the very timestamp a window closes already walks
        # the engaged backups.
        closes = self._window_closes
        if closes and closes[0] <= now:
            while closes and closes[0] <= now:
                closes.popleft()
            self._fwd_epoch += 1
        epoch = self._fwd_epoch
        if self._reslice_pending:
            self._reslice_pending = False
            for transfer in self._active:
                self._slice_transfer(transfer)

        entries = []   # allocator input
        routed = []    # pipes aligned with entries
        for transfer in self._active:
            for pipe in transfer.pipes:
                if pipe.epoch != epoch:
                    pipe.path = self.resolve_path(
                        transfer.src, transfer.dst, pipe.flow_id,
                        pipe.dst_mac, pipe.flowcell_id, now)
                    pipe.epoch = epoch
                pipe.rate = 0.0
                if pipe.path is not None and pipe.frac > 0.0:
                    entries.append((pipe.path, pipe.frac, None))
                    routed.append(pipe)
        if entries:
            rates = max_min_allocation(entries, self._capacity)
            for pipe, rate in zip(routed, rates):
                pipe.rate = rate
            if self.validate:
                self._check_allocation(entries, rates, self._capacity)

        self._schedule_completion()
        self.reallocs += 1

    def _check_allocation(self, entries, rates, capacity) -> None:
        used: Dict[str, float] = {}
        for (links, _w, _d), rate in zip(entries, rates):
            for leg in links:
                used[leg] = used.get(leg, 0.0) + rate
        for leg in sorted(used):
            cap = capacity[leg]
            if used[leg] > cap * (1.0 + 1e-9) + 1e-15:
                self.violations.append(
                    f"t={self.sim.now}: allocation exceeds capacity on "
                    f"{leg}: {used[leg]:.6g} > {cap:.6g} bytes/ns")

    def _schedule_completion(self) -> None:
        """Re-arm the completion timer for the transfer that, at the
        rates just set, drains first."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        soonest = None
        for transfer in self._active:
            if transfer.remaining is None:
                continue
            total = transfer._total_rate()
            if total <= 0.0:
                continue  # stalled (e.g. blackholed); a later realloc revives it
            delay = int(math.ceil(transfer.remaining / total))
            if soonest is None or delay < soonest:
                soonest = delay
        if soonest is not None:
            self._completion_event = self.sim.timer(
                max(1, soonest), self._completion_due)

    def _complete_drained(self, now: int) -> None:
        drained = [t for t in self._active
                   if t.remaining is not None and t.remaining <= _DONE_EPS]
        for transfer in drained:
            self._active.remove(transfer)
            transfer.done = True
            transfer.remaining = 0.0
            transfer.fct_ns = now - transfer.start_ns
            transfer._finalize()
            if transfer.on_complete is not None:
                transfer.on_complete(transfer)

    # --- readouts ---------------------------------------------------------

    def link_bytes(self) -> Dict[str, int]:
        """Bytes carried per directional port (sorted by name), the
        fluid counterpart of the packet engine's ``port.tx_bytes``."""
        self.sync()
        return {name: int(self._leg_bytes[name])
                for name in sorted(self._leg_bytes)}

    def path_latency_ns(self, path: Sequence[str], payload_bytes: int) -> int:
        """One-way propagation + per-hop serialization along a resolved
        path (no queueing — fluid RTT probes report the floor)."""
        total = 0.0
        for name in path:
            link = self._ports[name].link
            total += link.prop_delay_ns
            total += payload_bytes * 8 * SEC / link.rate_bps
        return int(total)
