"""Trace-driven workload (paper S6, Table 1).

The paper replays flow sizes and inter-arrival times measured by
Kandula et al., "The Nature of Data Center Traffic" (IMC 2009), scaled
by 10x, over long-lived all-to-all TCP connections: each server
repeatedly samples a size + gap and sends to a random out-of-rack
receiver.  The raw traces are proprietary, so we encode the published
shape of the distribution — the overwhelming majority of flows are
mice (<10 KB) while most *bytes* come from flows >1 MB — as an
empirical CDF (see DESIGN.md substitution table).

Mice are flows <100 KB, elephants >1 MB, as the paper defines.

Two further published workloads join the Kandula shape for the fabric
sweeps: the web-search distribution from the DCTCP measurement study
(Alizadeh et al., SIGCOMM 2010) and the data-mining distribution from
VL2 (Greenberg et al., SIGCOMM 2009).  ``TRACE_PROFILES`` maps names to
(sizes, interarrivals) pairs so sweeps can select one by string.

Every size distribution is scaled by the paper's x10 (:data:`SIZE_SCALE`).
The incast pattern's request size, cadence and fan-in are the
constants :data:`INCAST_REQUEST_BYTES`, :data:`INCAST_INTERVAL_NS` and
:data:`INCAST_FANIN`; only the fan-in is a parameter, which small
fabrics clamp.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.units import KB, MB, msec, usec
from repro.workloads.flows import EmpiricalDistribution

#: Flow-size CDF encoding the IMC'09 measurement shape (80% of flows
#: under ~10 KB; byte volume dominated by the >1 MB tail).
KANDULA_FLOW_SIZES = EmpiricalDistribution(
    [
        (350, 0.0),
        (1 * KB, 0.50),
        (10 * KB, 0.80),
        (100 * KB, 0.95),
        (1 * MB, 0.99),
        (10 * MB, 0.999),
        (100 * MB, 1.0),
    ]
)

#: Web-search flow sizes (DCTCP, Fig 2 shape): mostly short query
#: traffic with a moderate 1-30 MB background tail.
WEBSEARCH_FLOW_SIZES = EmpiricalDistribution(
    [
        (6 * KB, 0.0),
        (10 * KB, 0.15),
        (30 * KB, 0.40),
        (100 * KB, 0.60),
        (300 * KB, 0.75),
        (1 * MB, 0.85),
        (3 * MB, 0.93),
        (10 * MB, 0.98),
        (30 * MB, 1.0),
    ]
)

#: Data-mining flow sizes (VL2 shape): even heavier mice skew — over
#: 80% of flows under 10 KB — with a sparse 100 MB-class tail carrying
#: most bytes.
DATAMINING_FLOW_SIZES = EmpiricalDistribution(
    [
        (100, 0.0),
        (1 * KB, 0.50),
        (10 * KB, 0.82),
        (100 * KB, 0.90),
        (1 * MB, 0.95),
        (10 * MB, 0.98),
        (100 * MB, 0.999),
        (1000 * MB, 1.0),
    ]
)

#: Per-server flow inter-arrival CDF: median ~a few ms with a bursty
#: short tail, per the paper's "continuously samples ... inter-arrival
#: times" methodology.
KANDULA_INTERARRIVALS_NS = EmpiricalDistribution(
    [
        (usec(100), 0.0),
        (usec(800), 0.5),
        (msec(3), 0.9),
        (msec(10), 0.99),
        (msec(100), 1.0),
    ]
)

#: the paper's flow-size scaling of the measured distributions
SIZE_SCALE = 10.0

#: an incast request: its bytes, split evenly over the workers, and
#: the gap between requests
INCAST_REQUEST_BYTES = 1 * MB
INCAST_INTERVAL_NS = msec(2)
#: out-of-rack workers answering each request
INCAST_FANIN = 8

#: Named (sizes, interarrivals) pairs the fabric sweep selects from.
#: All three reuse the Kandula arrival process; published studies vary
#: the size distribution far more than the arrival shape.
TRACE_PROFILES = {
    "kandula": (KANDULA_FLOW_SIZES, KANDULA_INTERARRIVALS_NS),
    "websearch": (WEBSEARCH_FLOW_SIZES, KANDULA_INTERARRIVALS_NS),
    "datamining": (DATAMINING_FLOW_SIZES, KANDULA_INTERARRIVALS_NS),
}


def trace_profile(name: str) -> Tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Look up a named trace profile, with a clear error on typos."""
    try:
        return TRACE_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown trace profile {name!r}; "
            f"choose from {sorted(TRACE_PROFILES)}"
        ) from None


class TraceWorkload:
    """Replays the empirical distributions on a testbed.

    Each server loops: wait ~interarrival, pick a random receiver not in
    its own rack, send a transfer sized from ``sizes`` x
    :data:`SIZE_SCALE`.  Completions are sorted
    into mice (<100 KB) and elephants (>1 MB): each mouse's FCT goes to
    ``mice_sink``, each elephant's (bytes, FCT) to ``elephant_sink`` —
    a list's ``append``, or a :class:`repro.metrics.streaming`
    feeder that keeps per-cell memory O(1) in simulated time.  The
    rack check uses ``testbed.pod_of``, so the workload runs
    unchanged on 2-tier Clos and 3-tier fat-tree fabrics.
    """

    MICE_LIMIT = 100 * KB
    ELEPHANT_LIMIT = 1 * MB

    def __init__(
        self,
        testbed,
        rng: random.Random,
        load_scale: float = 1.0,
        sizes: Optional[EmpiricalDistribution] = None,
        interarrivals: Optional[EmpiricalDistribution] = None,
        stop_ns: Optional[int] = None,
        max_size: int = 20 * MB,
        *,
        mice_sink: Callable[[int], None],
        elephant_sink: Callable[[int, int], None],
    ):
        self.tb = testbed
        self.rng = rng
        self.sizes = (sizes or KANDULA_FLOW_SIZES).scaled(SIZE_SCALE)
        self.interarrivals = interarrivals or KANDULA_INTERARRIVALS_NS
        self.load_scale = load_scale
        self.stop_ns = stop_ns
        #: cap keeps single sampled transfers from outliving short runs
        self.max_size = max_size
        self.mice_sink = mice_sink
        self.elephant_sink = elephant_sink
        self.flows_started = 0
        self.flows_completed = 0

    def start(self) -> None:
        for src in range(len(self.tb.hosts)):
            self.tb.sim.schedule(self._next_gap(), self._tick, src)

    def _next_gap(self) -> int:
        gap = self.interarrivals.sample(self.rng) / self.load_scale
        return max(1, int(gap))

    def _pick_dst(self, src: int) -> int:
        n = len(self.tb.hosts)
        src_pod = self.tb.pod_of(src)
        while True:
            dst = self.rng.randrange(n)
            if dst != src and self.tb.pod_of(dst) != src_pod:
                return dst

    def _tick(self, src: int) -> None:
        if self.stop_ns is not None and self.tb.sim.now >= self.stop_ns:
            return
        dst = self._pick_dst(src)
        size = min(self.max_size, max(350, int(self.sizes.sample(self.rng))))
        self.flows_started += 1
        self.tb.add_elephant(
            src, dst, size_bytes=size,
            on_complete=lambda app, size=size: self._done(app, size),
        )
        self.tb.sim.schedule(self._next_gap(), self._tick, src)

    def _done(self, app, size: int) -> None:
        fct = app.fct_ns
        if fct is None:
            return
        self.flows_completed += 1
        if size < self.MICE_LIMIT:
            self.mice_sink(fct)
        elif size > self.ELEPHANT_LIMIT:
            self.elephant_sink(size, fct)


class IncastWorkload:
    """Fan-in (incast) pattern: every :data:`INCAST_INTERVAL_NS` an
    aggregator requests :data:`INCAST_REQUEST_BYTES` split across
    ``fanin`` out-of-rack workers, who all respond at once.  The request
    FCT is the time until the *last* response completes — the
    paper-style partition/aggregate metric.

    Each host takes a turn as aggregator round-robin; request FCTs feed
    ``sink``.
    """

    def __init__(
        self,
        testbed,
        rng: random.Random,
        fanin: int = INCAST_FANIN,
        stop_ns: Optional[int] = None,
        *,
        sink: Callable[[int], None],
    ):
        self.tb = testbed
        self.rng = rng
        self.fanin = fanin
        self.stop_ns = stop_ns
        self.sink = sink
        self.requests_started = 0
        self.requests_completed = 0
        self._next_aggregator = 0

    def _workers_for(self, aggregator: int) -> List[int]:
        agg_pod = self.tb.pod_of(aggregator)
        candidates = [
            h for h in range(len(self.tb.hosts))
            if h != aggregator and self.tb.pod_of(h) != agg_pod
        ]
        if len(candidates) < self.fanin:
            raise ValueError(
                f"fan-in {self.fanin} needs {self.fanin} out-of-rack "
                f"workers but only {len(candidates)} exist"
            )
        return self.rng.sample(candidates, self.fanin)

    def start(self) -> None:
        self.tb.sim.schedule(1, self._fire)

    def _fire(self) -> None:
        if self.stop_ns is not None and self.tb.sim.now >= self.stop_ns:
            return
        aggregator = self._next_aggregator
        self._next_aggregator = (aggregator + 1) % len(self.tb.hosts)
        workers = self._workers_for(aggregator)
        start_ns = self.tb.sim.now
        per_worker = max(1, INCAST_REQUEST_BYTES // self.fanin)
        pending = {"left": len(workers)}
        self.requests_started += 1

        def one_done(app, _p=pending, _t0=start_ns):
            _p["left"] -= 1
            if _p["left"] == 0:
                self.requests_completed += 1
                self.sink(self.tb.sim.now - _t0)

        for w in workers:
            self.tb.add_elephant(
                w, aggregator, size_bytes=per_worker, on_complete=one_done
            )
        self.tb.sim.schedule(INCAST_INTERVAL_NS, self._fire)
