"""MPTCP connection: N subflows, each an independent TCP flow whose
path is chosen by the host's ECMP label hash (as real MPTCP subflows
are ECMP-hashed by their distinct 5-tuples).

Scheduling simplification (documented in DESIGN.md): a sized transfer
is partitioned evenly across subflows up front, and an unbounded
(elephant) transfer makes every subflow unbounded.  This preserves the
properties the paper exercises — path diversity, coupled-increase
fairness, one-subflow-halves-on-loss aggression, and the tiny
per-subflow windows that make small MPTCP flows timeout-prone
(Table 2) — without modelling data-level reassembly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional

from repro.host.app import FlowIdAllocator
from repro.host.host import Host
from repro.host.transfer import Transfer, delivered_for
from repro.mptcp.coupled import CoupledCc, CoupledGroup
from repro.sim.engine import Simulator

DEFAULT_SUBFLOWS = 8


class MptcpConnection(Transfer):
    """One MPTCP transfer from ``src`` to ``dst``."""

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        flow_ids: FlowIdAllocator,
        n_subflows: int = DEFAULT_SUBFLOWS,
        size_bytes: Optional[int] = None,
        start_ns: int = 0,
        on_complete: Optional[Callable[["MptcpConnection"], None]] = None,
    ):
        if n_subflows <= 0:
            raise ValueError(f"need at least one subflow: {n_subflows}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.n_subflows = n_subflows
        self.size_bytes = size_bytes
        self.on_complete = on_complete
        self.subflow_ids: List[int] = [flow_ids.next() for _ in range(n_subflows)]
        self.group = CoupledGroup()
        self.senders: List = []
        self._completed_subflows = 0
        self.start_time: Optional[int] = None
        self.complete_time: Optional[int] = None
        sim.schedule(start_ns, self._start)

    def _start(self) -> None:
        self.start_time = self.sim.now
        host_cfg = self.src.tcp_cfg
        # The connection's receive buffer is shared across subflows (real
        # MPTCP couples them through one meta-socket); giving every
        # subflow the whole window would octuple the offered load.
        cfg = replace(
            host_cfg,
            rcv_wnd=max(4 * host_cfg.mss, host_cfg.rcv_wnd // self.n_subflows),
        )
        for i, flow_id in enumerate(self.subflow_ids):
            cc = CoupledCc(self.group, cfg.mss, cfg.init_cwnd_pkts)
            sender = self.src.open_sender(
                flow_id, self.dst.host_id, on_complete=self._subflow_done,
                cc=cc, cfg=cfg,
            )
            self.senders.append(sender)
            if self.size_bytes is None:
                sender.set_unbounded()
            else:
                share = self.size_bytes // self.n_subflows
                if i == 0:
                    share += self.size_bytes % self.n_subflows
                if share > 0:
                    sender.write(share)
                else:
                    self._completed_subflows += 1
        if self.size_bytes is not None and self._completed_subflows == self.n_subflows:
            self._finish()

    def _subflow_done(self, sender) -> None:
        self._completed_subflows += 1
        if self._completed_subflows >= len(
            [s for s in self.senders if not s.unbounded]
        ) and self.size_bytes is not None:
            self._finish()

    def _finish(self) -> None:
        if self.complete_time is None:
            self.complete_time = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self)

    @property
    def fct_ns(self) -> Optional[int]:
        if self.start_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.start_time

    def timeouts(self) -> int:
        return sum(s.timeouts for s in self.senders)

    # --- Transfer interface ---------------------------------------------------

    def flow_ids(self) -> tuple:
        return tuple(self.subflow_ids)

    def delivered_by_flow(self) -> dict:
        return {f: delivered_for(self.dst, f) for f in self.subflow_ids}
