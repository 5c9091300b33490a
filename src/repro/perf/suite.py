"""The four timed loops the perf ledger imports.

``benchmarks/ledger/direct.py`` is the only caller; this file goes when
the ledger owns its own copies (ROADMAP item 1b).  Each loop is a plain
function ``fn(scale) -> (wall_s, units)`` that builds its own fixture
(excluded from timing), runs a fixed-seed workload through public APIs
only, and reports the wall time of the hot section plus the natural
work-unit count.  Fixed seeds make the *work* identical run to run;
``scale`` shrinks the workload without changing its shape.

* ``bench_event_churn``      — ``timer()``/cancel churn à la TCP RTO
  re-arming (units: reschedules + events fired);
* ``bench_tso_fanout``       — 64 KB segments fanned into MTU packets
  through the host egress port/queue/serializer cycle (units: wire
  packets);
* ``bench_gro_merge``        — Presto GRO merge+flush over a
  deterministic cross-flowcell reordered arrival stream (units: packets
  merged);
* ``bench_scalability_8host`` — the Fig 7-9 presto cell at 4 paths
  (8 hosts), warm + measure windows included (units: simulator events).
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from repro.units import gbps, msec, usec


def _noop() -> None:
    pass


# --- event loop churn -------------------------------------------------


def bench_event_churn(scale: float = 1.0) -> Tuple[float, int]:
    """Timer/cancel churn: long-dated timers re-armed per "ACK".

    Mirrors what TCP does to the heap: every ACK cancels the pending
    RTO timer and arms a fresh one ~20 ms out with ``sim.timer``, so
    cancelled entries pile up far beyond the run horizon; plain
    fire-and-forget ``schedule`` events keep the loop firing.  Work
    units are the reschedule operations plus the events that fire.
    """
    from repro.sim.engine import Simulator

    n_timers = 256
    ops = max(1000, int(150_000 * scale))
    sim = Simulator()
    timers = [sim.timer(msec(20) + i, _noop) for i in range(n_timers)]
    t0 = time.perf_counter()
    for i in range(ops):
        idx = i & (n_timers - 1)
        timers[idx].cancel()
        timers[idx] = sim.timer(msec(20) + i, _noop)
        if not (i & 3):
            # near-term work events keep the loop actually firing
            sim.schedule(i & 63, _noop)
    fired = sim.run(until=msec(19))
    wall = time.perf_counter() - t0
    return wall, ops + fired


# --- TSO fan-out ------------------------------------------------------


class _PacketSink:
    """Counts delivered packets; stands in for the far-end switch."""

    __slots__ = ("rx_pkts",)

    def __init__(self) -> None:
        self.rx_pkts = 0

    def receive(self, pkt, port) -> None:
        self.rx_pkts += 1


def bench_tso_fanout(scale: float = 1.0) -> Tuple[float, int]:
    """64 KB segments through TSO -> egress queue -> serializer -> wire.

    Each segment fans into 46 MTU packets, every one of which costs a
    queue enqueue/dequeue (the first packet of a burst finds the port
    idle and skips the queue) and two simulator events: the
    serializer's tx-done and the far end's receive.  Work units are
    wire packets delivered.
    """
    from repro.host.cpu import ReceiverCpu
    from repro.host.gro import OfficialGro
    from repro.host.nic import Nic
    from repro.net.link import Link
    from repro.net.packet import DATA, Segment
    from repro.net.port import Port
    from repro.sim.engine import Simulator

    n_segments = max(50, int(2_000 * scale))
    sim = Simulator()
    link = Link("bench", rate_bps=gbps(40), prop_delay_ns=usec(1))
    port = Port(sim, "bench-tx", link)
    sink = _PacketSink()
    port.peer = sink
    nic = Nic(sim, OfficialGro(), ReceiverCpu(sim))
    nic.attach_port(port)
    seg_bytes = 64 * 1024
    t0 = time.perf_counter()
    for i in range(n_segments):
        seq = i * seg_bytes
        seg = Segment(
            flow_id=i & 7, src_host=0, dst_host=1, kind=DATA,
            seq=seq, end_seq=seq + seg_bytes, dst_mac=1,
        )
        nic.tx_segment(seg)
        sim.run()  # drain: the queue holds ~4 segments of backlog
    wall = time.perf_counter() - t0
    return wall, sink.rx_pkts


# --- GRO merge --------------------------------------------------------


def _riffled_arrivals(
    rng: random.Random, n_flows: int, n_cells: int, per_cell: int
) -> List[Tuple[int, int, int]]:
    """(flow, seq, cell) arrival order: FIFO within a flowcell, riffled
    across cells with a bias toward older cells (gaps resolve quickly),
    flows interleaved round-robin — the shape a spraying fabric hands
    the receiver."""
    mss = 1448
    per_flow: List[List[Tuple[int, int, int]]] = []
    for flow in range(n_flows):
        queues = []
        seq = 0
        for cell in range(1, n_cells + 1):
            cell_pkts = []
            for _ in range(per_cell):
                cell_pkts.append((flow, seq, cell))
                seq += mss
            queues.append(cell_pkts)
        order = []
        while queues:
            # 2:1 bias toward the oldest live cell
            idx = 0 if rng.random() < 0.66 else rng.randrange(len(queues))
            order.append(queues[idx].pop(0))
            if not queues[idx]:
                queues.pop(idx)
        per_flow.append(order)
    merged: List[Tuple[int, int, int]] = []
    cursors = [0] * n_flows
    live = list(range(n_flows))
    while live:
        flow = live[len(merged) % len(live)]
        merged.append(per_flow[flow][cursors[flow]])
        cursors[flow] += 1
        if cursors[flow] == len(per_flow[flow]):
            live.remove(flow)
    return merged


def bench_gro_merge(scale: float = 1.0) -> Tuple[float, int]:
    """Presto GRO merge + flush over a reordered multi-flow stream.

    Work units are packets merged; flushes run every 64 arrivals, as a
    NAPI poll would.
    """
    from repro.host.gro import PrestoGro
    from repro.net.packet import Packet

    rng = random.Random(0xBEEF)
    repeats = max(1, int(12 * scale))
    arrivals = _riffled_arrivals(rng, n_flows=8, n_cells=8, per_cell=45)
    t0 = time.perf_counter()
    merged = 0
    for rep in range(repeats):
        gro = PrestoGro(initial_ewma_ns=usec(50))
        now = 0
        for i, (flow, seq, cell) in enumerate(arrivals):
            gro.merge(
                Packet(
                    flow_id=flow, src_host=0, dst_host=1, dst_mac=1,
                    kind="data", seq=seq, payload_len=1448,
                    flowcell_id=cell,
                ),
                now,
            )
            merged += 1
            if i % 64 == 63:
                gro.flush(now)
                now += usec(15)
        for _ in range(200):
            if gro.held_segment_count() == 0:
                break
            now += usec(100)
            gro.flush(now)
    wall = time.perf_counter() - t0
    return wall, merged


# --- 8-host scalability point ----------------------------------------


def bench_scalability_8host(scale: float = 1.0) -> Tuple[float, int]:
    """The Figs 7-9 presto cell at 4 paths: 2 leaves x 4 hosts, four
    elephants + one RTT probe, warm + measure windows.  Work units are
    simulator events fired."""
    from repro.experiments.common import START_JITTER_NS
    from repro.experiments.harness import Testbed
    from repro.experiments.scalability import scalability_config

    n_paths = 4
    warm_ns = msec(5)
    measure_ns = msec(max(1.0, 15.0 * scale))
    tb = Testbed(scalability_config("presto", n_paths, seed=1))
    rng = tb.streams.stream("starts")
    for i in range(n_paths):
        tb.add_elephant(i, n_paths + i, start_ns=rng.randrange(START_JITTER_NS))
    tb.add_probe(0, n_paths, interval_ns=msec(1), start_ns=warm_ns // 2)
    t0 = time.perf_counter()
    tb.run(warm_ns + measure_ns)
    wall = time.perf_counter() - t0
    return wall, tb.sim.events_executed
