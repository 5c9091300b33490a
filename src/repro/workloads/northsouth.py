"""North-south cross traffic (paper S6, Table 2).

One remote-user host hangs off each spine switch behind a 100 Mbps
(WAN-emulating) link.  Every datacenter server starts a flow to a
random remote user each millisecond, sized from a web-transfer
distribution (He et al., IMC'13 [29]) — this is ECMP-load-balanced
north-south traffic coexisting with Presto's east-west traffic.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.host.gro import OfficialGro
from repro.host.host import Host
from repro.units import KB, MB, mbps, msec, usec
from repro.workloads.flows import EmpiricalDistribution

#: Web-object transfer sizes (IMC'13 shape: mostly small responses,
#: occasional large downloads).
WEB_FLOW_SIZES = EmpiricalDistribution(
    [
        (500, 0.0),
        (2 * KB, 0.4),
        (10 * KB, 0.7),
        (100 * KB, 0.95),
        (1 * MB, 1.0),
    ]
)


class NorthSouthWorkload:
    """Attaches remote users to the spines and drives the flows."""

    def __init__(
        self,
        testbed,
        rng: random.Random,
        wan_rate_bps: float = mbps(100),
        interval_ns: int = msec(1),
        sizes: Optional[EmpiricalDistribution] = None,
        stop_ns: Optional[int] = None,
    ):
        self.tb = testbed
        self.rng = rng
        self.interval_ns = interval_ns
        self.sizes = sizes or WEB_FLOW_SIZES
        self.stop_ns = stop_ns
        self.remote_users: List[Host] = []
        self.flows_started = 0
        next_id = len(testbed.hosts)
        for spine in testbed.topo.tiers[1]:
            user = Host(
                testbed.sim,
                next_id,
                gro=OfficialGro(),
                tcp_cfg=testbed.cfg.tcp,
                model_cpu=False,
            )
            # remote users hang off the spines behind the WAN-limited link
            testbed.topo.attach_host(
                user, spine, rate_bps=wan_rate_bps,
                prop_delay_ns=usec(50),
            )
            self.remote_users.append(user)
            next_id += 1

    def start(self) -> None:
        for src in range(len(self.tb.hosts)):
            self.tb.sim.schedule(
                self.rng.randrange(self.interval_ns), self._tick, src
            )

    def _tick(self, src: int) -> None:
        if self.stop_ns is not None and self.tb.sim.now >= self.stop_ns:
            return
        user = self.rng.choice(self.remote_users)
        size = max(350, int(self.sizes.sample(self.rng)))
        flow_id = self.tb.flow_ids.next()
        sender = self.tb.hosts[src].open_sender(flow_id, user.host_id)
        sender.write(size)
        self.flows_started += 1
        self.tb.sim.schedule(self.interval_ns, self._tick, src)
