"""North-south cross traffic (paper S6, Table 2).

One remote-user host hangs off each spine switch behind a 100 Mbps
(WAN-emulating) link, :data:`WAN_RATE_BPS`.  Every datacenter server
starts a flow to a random remote user each millisecond
(:data:`INTERVAL_NS`), sized from a web-transfer distribution (He et
al., IMC'13 [29]) — this is ECMP-load-balanced north-south traffic
coexisting with Presto's east-west traffic.  It runs until the
simulation stops.
"""

from __future__ import annotations

import random
from typing import List

from repro.host.gro import OfficialGro
from repro.host.host import Host
from repro.units import KB, MB, mbps, msec, usec
from repro.workloads.flows import EmpiricalDistribution

#: the remote users' WAN-limited access links
WAN_RATE_BPS = mbps(100)
#: each server's gap between north-south flows
INTERVAL_NS = msec(1)

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

    def __init__(self, testbed, rng: random.Random):
        self.tb = testbed
        self.rng = rng
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
                user, spine, rate_bps=WAN_RATE_BPS,
                prop_delay_ns=usec(50),
            )
            self.remote_users.append(user)
            next_id += 1

    def start(self) -> None:
        for src in range(len(self.tb.hosts)):
            self.tb.sim.schedule(
                self.rng.randrange(INTERVAL_NS), self._tick, src
            )

    def _tick(self, src: int) -> None:
        user = self.rng.choice(self.remote_users)
        size = max(350, int(WEB_FLOW_SIZES.sample(self.rng)))
        flow_id = self.tb.flow_ids.next()
        sender = self.tb.hosts[src].open_sender(flow_id, user.host_id)
        sender.write(size)
        self.flows_started += 1
        self.tb.sim.schedule(INTERVAL_NS, self._tick, src)
